"""Polynomial Weyl symbols on a transverse phase space and their algebra.

Symbols are polynomials in the transverse variables (y, eta) of
R^d x R^d; any tangential dependence is frozen at the base point and
never represented.  The monomial structure is exact: addition,
multiplication, and differentiation never truncate a symbol.  Floating
point enters only through the coefficient values.

A multi-index is a tuple of 2d nonnegative integers, the first d
entries for powers of y, the last d for powers of eta.

Storage.  A PolynomialSymbol holds two arrays: an int64 exponent
matrix, one row per monomial with the rows sorted as tuples, and the
complex128 coefficients, none of them zero.  The algebra reads and
builds only these arrays.  `terms`, the {multi-index: coefficient}
dict, is a view built on first read for the public boundary (`to_dict`,
`str`, `==` and `hash` read it); a product lists its monomials in the
order they first occur in the sorted double loop.  Public input is
validated: PolynomialSymbol(d, terms), monomial, from_dict and
HalfGradedPolynomial(...) check every multi-index and convert every
coefficient to complex.

Accumulation order.  Every result is a sum of contributions grouped by
monomial, and each monomial's contributions are added from 0 in a fixed
order with np.add.at, which is unbuffered and adds in index order: a
product adds a_i b_j in the sorted double loop (i over the monomials of
a, j over those of b), each B^r adds its products in series order, a
series adds its B^r in order, and a fold or weighted sum adds its parts
in the order given.  Multiplications follow Python's complex formula in
separate float operations (numpy's complex multiply may fuse a multiply
and an add); where a product only feeds a sum that starts at 0, the sign
of a zero part, which no such sum keeps, is left free.  So every
coefficient is bit for bit the one a loop over Python complex numbers
gives, inf and NaN included, and like that loop the algebra raises no
floating-point warning.  GradedSymbol.fold merges its levels on its
first call, so a sweep's folds of one symbol sort them once.

Keys.  Grouping sorts one int64 key per row: the exponents packed in
base (largest exponent + 1), which orders the rows as tuples, when the
packed range (times the number of result levels) stays below 2^62.
When it does not (d = 4 with exponents above 1000, say), a row's key is
its rank among the distinct rows (np.unique over rows), which orders
them the same way.  Every row's total degree fits in int64: building a
symbol with a larger one, or a product or star series that would make
one, raises OverflowError, so no exponent sum wraps.

The module also provides the Moyal star product

    a # b = sum_j (1/j!) (i*hbar/2)^j B^j(a, b)

with B(a, b) = sum_s (dy_s a * deta_s b - deta_s a * dy_s b), the
convention pinned by star(y, eta) - star(eta, y) = i*hbar, and the
graded-symbol machinery: levels q_{m-j} with Lambda-weights
Lambda^(m-j), scaling to the unit model scale, and transverse Taylor
splitting.  graded_star, moyal_star and bidifferential_power run one
batched kernel (_star_sum) per call.  Its cached series plan is keyed
by (d, top, caps), caps bounding each axis of a term's partial by the
operands' largest exponents, so its size is set by the operands; one
term table serves a directly and b half-swapped.  Its terms are counted
from the caps before any is listed, and a series whose plan and partial
tables would take more than MAX_STAR_BYTES = 1 GiB (estimated from that
count) raises ResourceLimitError before anything of that size exists.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, GradingError, ResourceLimitError, VanishingOrderError

__all__ = [
    "PolynomialSymbol",
    "GradedSymbol",
    "HalfGradedPolynomial",
    "y",
    "eta",
    "moyal_star",
    "bidifferential_power",
    "poisson_bracket",
    "graded_star",
    "taylor_transverse",
    "scale_symbol",
]

MultiIndex = tuple  # tuple[int, ...] of length 2d: (y-powers, eta-powers)

_ROOM = 2 ** 62  # every packed key stays below this
_INT64_MAX = 2 ** 63 - 1
MAX_STAR_BYTES = 2 ** 30  # the series plan and a partial table, estimated (_star_bytes)


def _check_index(index: Sequence[int], d: int) -> MultiIndex:
    idx = tuple(int(p) for p in index)
    if len(idx) != 2 * d:
        raise DimensionMismatch(
            f"multi-index of length {len(idx)} does not match d={d} (need {2 * d})"
        )
    if any(p < 0 for p in idx):
        raise ValueError(f"negative exponent in multi-index {idx}")
    _check_degree(sum(idx))
    return idx


def _check_degree(total: int) -> None:
    """Refuse a total degree beyond int64, where the exponent rows' sums
    would wrap."""
    if total > _INT64_MAX:
        raise OverflowError(f"total degree {total} does not fit in int64")


# ---------------------------------------------------------------------------
# Array kernels
# ---------------------------------------------------------------------------


def _silent(func):
    """func with numpy's overflow and invalid-value warnings off, as in
    Python's complex arithmetic, which the algebra reproduces: inf and NaN
    propagate without a word.  One errstate per function, so nesting is safe
    on every numpy."""
    return np.errstate(over="ignore", invalid="ignore")(func)


def _parts(c: np.ndarray) -> np.ndarray:
    """Complex values as (2, n) rows of real and imaginary parts: a view,
    so a write to it writes c."""
    return c.view(np.float64).reshape(len(c), 2).T


def _complex(parts: np.ndarray) -> np.ndarray:
    out = np.empty(parts.shape[1], dtype=complex)
    out.real, out.imag = parts
    return out


@_silent
def _times(parts: np.ndarray, other) -> np.ndarray:
    """(re, im) rows times (re', im') rows (or scalars) as Python's complex
    multiply computes them, bit for bit: (re re' - im im', re im' + im re'),
    each product rounded on its own (numpy's complex multiply may fuse a
    multiply and an add)."""
    out = parts * other[0]
    cross = parts[::-1] * other[1]
    cross[0] *= -1.0
    out += cross
    return out


@_silent
def _times_real(parts: np.ndarray, f) -> np.ndarray:
    """(re, im) rows times real f as Python's complex multiply computes
    (re f - im 0, re 0 + im f), except for the sign of a zero part: a
    non-finite part still turns the other one into NaN.  Fit only where
    the result is added to a sum that starts at 0, or gets 0 added."""
    out = parts[::-1] * 0.0
    out += parts
    out *= f
    return out


def _keys(rows: np.ndarray, lead: np.ndarray | None = None) -> np.ndarray:
    """int64 keys ordering the rows of an exponent matrix as the tuples
    (lead, *row): the rows packed in base (largest exponent + 1) when that
    fits below 2^62, else each row's rank among the distinct rows."""
    n, width = rows.shape
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    base = int(rows.max()) + 1
    size, span = base ** width, 1 if lead is None else int(lead.max()) + 1
    if size * span <= _ROOM:
        keys = rows @ (base ** np.arange(width - 1, -1, -1, dtype=np.int64))
        return keys if lead is None else keys + lead * size
    if lead is not None:
        rows = np.column_stack((lead, rows))
    return np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)


def _starts(sorted_keys: np.ndarray) -> np.ndarray:
    """True where a run of equal sorted keys starts."""
    new = np.ones(len(sorted_keys), dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new[1:])
    return new


def _group(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equal exponent rows grouped: (head, where), where head[g] is the
    first row of group g, groups in sorted order, and where[i] is row i's
    group.  np.add.at over `where` adds each group's values in row order."""
    keys = _keys(rows)
    order = keys.argsort(kind="stable")  # rows come in sorted runs, which timsort merges
    new = _starts(keys.take(order))
    where = np.empty_like(order)
    where[order] = new.cumsum() - 1
    return order[new], where


def _ranges(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For consecutive ranges of the given lengths: the range each element
    belongs to and its position inside it."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (counts.cumsum() - counts)[owner]


@_silent
def _add_runs(parts: np.ndarray, runs: np.ndarray, count: int) -> np.ndarray:
    """The complex sums of the (re, im) columns over `count` runs, each
    from 0 in column order."""
    out = np.zeros(count, dtype=complex)
    np.add.at(out.real, runs, parts[0])
    np.add.at(out.imag, runs, parts[1])
    return out


@_silent
def _merge(d: int, levels: list) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct monomials of the symbols and each symbol's
    (re, im) rows on them, 0 where it lacks one, as (L, 2, U), with the
    weight-free half of _times_real already applied."""
    rows = np.concatenate([q._exps for q in levels] or [np.zeros((0, 2 * d), np.int64)])
    head, where = _group(rows)
    level = np.repeat(np.arange(len(levels)), [len(q._coef) for q in levels])
    parts = np.zeros((len(levels), 2, len(head)))
    coef = np.concatenate([q._coef for q in levels] or [np.zeros(0, complex)])
    parts[level, :, where] = coef.view(np.float64).reshape(-1, 2)
    parts += parts[:, ::-1] * 0.0
    return rows.take(head, axis=0), parts


@_silent
def _fold(d: int, merged: tuple[np.ndarray, np.ndarray], weights: list[float]) -> "PolynomialSymbol":
    """sum_l w_l q_l for the symbols of a _merge and finite real w_l: each
    monomial adds its c_l w_l from 0, in level order.  A symbol that lacks
    the monomial adds a zero there, which changes no sum."""
    rows, mixed = merged
    total = np.zeros(len(rows), dtype=complex)
    sums = _parts(total)
    for term in mixed * np.asarray(weights)[:, None, None]:  # the rest of _times_real
        sums += term
    return PolynomialSymbol._arrays(d, rows, total)


def _split(d: int, labels: np.ndarray, rows: np.ndarray, coef: np.ndarray) -> dict:
    """{label: symbol} of sorted rows grouped by their sorted labels."""
    cuts = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist(), len(labels)]
    return {int(labels[lo]): PolynomialSymbol._arrays(d, rows[lo:hi], coef[lo:hi])
            for lo, hi in zip(cuts, cuts[1:]) if hi > lo}


class PolynomialSymbol:
    """A complex polynomial in (y_1..y_d, eta_1..eta_d).

    Stored as sorted exponent rows and their nonzero coefficients, so
    equal polynomials compare equal; `terms` is the {multi-index:
    coefficient} view.  Instances are treated as immutable after
    construction.

    Example
    -------
    >>> p = PolynomialSymbol(1, {(2, 0): 1.0, (0, 2): 1.0})   # y^2 + eta^2
    >>> p.degree()
    2
    """

    __slots__ = ("d", "_exps", "_coef", "_order", "_view")

    def __init__(self, d: int, terms: Mapping[MultiIndex, complex] | None = None):
        if d < 1:
            raise ValueError(f"transverse dimension must be >= 1, got {d}")
        d = int(d)
        clean: dict[MultiIndex, complex] = {}
        if terms:
            for index, coeff in terms.items():
                idx = _check_index(index, d)
                c = complex(coeff)
                if c != 0:
                    clean[idx] = clean.get(idx, 0.0) + c
        clean = {k: v for k, v in clean.items() if v != 0}
        items = sorted(clean.items())
        self.d, self._order, self._view = d, None, clean
        self._exps = np.array([k for k, _ in items], dtype=np.int64).reshape(len(items), 2 * d)
        self._coef = np.array([c for _, c in items], dtype=complex)

    @classmethod
    def _arrays(cls, d: int, exps: np.ndarray, coef: np.ndarray,
                first: np.ndarray | None = None) -> "PolynomialSymbol":
        """A symbol from sorted, distinct exponent rows the algebra built
        out of valid symbols, dropping zero coefficients.  `first` ranks the
        rows for the dict view (where a product's monomials first occur)."""
        keep = coef != 0
        if not keep.all():
            exps, coef = exps[keep], coef[keep]
            first = None if first is None else first[keep]
        self = cls.__new__(cls)
        self.d, self._exps, self._coef, self._view = d, exps, coef, None
        self._order = None if first is None else np.argsort(first)
        return self

    @property
    def terms(self) -> dict[MultiIndex, complex]:
        """{multi-index: coefficient}, built on first read; treat it as read-only."""
        if self._view is None:
            exps, coef = self._exps, self._coef
            if self._order is not None:
                exps, coef = exps[self._order], coef[self._order]
            self._view = dict(zip(map(tuple, exps.tolist()), coef.tolist()))
        return self._view

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, d: int) -> "PolynomialSymbol":
        return cls(d, {})

    @classmethod
    def constant(cls, d: int, value: complex) -> "PolynomialSymbol":
        return cls(d, {(0,) * (2 * d): complex(value)})

    @classmethod
    def monomial(cls, d: int, index: Sequence[int], coeff: complex = 1.0) -> "PolynomialSymbol":
        return cls(d, {tuple(index): complex(coeff)})

    # -- basic queries -----------------------------------------------

    def is_zero(self) -> bool:
        return not len(self._coef)

    def is_real(self) -> bool:
        """True iff every coefficient has exactly zero imaginary part."""
        return not self._coef.imag.any()

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return int(self._exps.sum(axis=1).max(initial=-1))

    def min_degree(self) -> int:
        """Smallest total degree present; -1 for the zero polynomial."""
        return int(self._exps.sum(axis=1).min()) if len(self._coef) else -1

    def is_finite(self) -> bool:
        """True iff every coefficient is finite."""
        return bool(np.isfinite(self._coef).all())

    def max_abs(self) -> float:
        """Largest coefficient modulus; 0.0 for the zero polynomial."""
        return max(map(abs, self._coef.tolist()), default=0.0)

    def iter_terms(self) -> Iterator[tuple[MultiIndex, complex]]:
        """Terms in the canonical order (by total degree, then index)."""
        terms = zip(map(tuple, self._exps.tolist()), self._coef.tolist())
        return iter(sorted(terms, key=lambda kv: sum(kv[0])))  # stable: rows are sorted

    # -- ring operations ---------------------------------------------

    def _require_same_d(self, other: "PolynomialSymbol") -> None:
        if self.d != other.d:
            raise DimensionMismatch(f"cannot combine symbols with d={self.d} and d={other.d}")

    @_silent
    def __add__(self, other):
        if isinstance(other, PolynomialSymbol):
            self._require_same_d(other)
            # a monomial of self keeps its coefficient, one only in other starts at 0 + c
            rows = np.concatenate((self._exps, other._exps))
            head, where = _group(rows)
            coef = np.zeros(len(head), dtype=complex)
            coef[where[:len(self._coef)]] = self._coef
            np.add.at(coef, where[len(self._coef):], other._coef)
            return PolynomialSymbol._arrays(self.d, rows.take(head, axis=0), coef)
        if isinstance(other, (int, float, complex)):
            return self + PolynomialSymbol.constant(self.d, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return PolynomialSymbol._arrays(self.d, self._exps, -self._coef)

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = PolynomialSymbol.constant(self.d, other)
        if isinstance(other, PolynomialSymbol):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, PolynomialSymbol):
            self._require_same_d(other)
            _check_degree(self.degree() + other.degree())
            # both operands are sorted, so row i * len(other) + j is a_i b_j of the sorted double loop
            rows = (self._exps[:, None, :] + other._exps[None, :, :]).reshape(-1, 2 * self.d)
            a = np.repeat(_parts(self._coef), len(other._coef), axis=1)
            b = np.tile(_parts(other._coef), len(self._coef))
            head, where = _group(rows)
            sums = _add_runs(_times(a, b), where, len(head))
            return PolynomialSymbol._arrays(self.d, rows.take(head, axis=0), sums, head)
        if isinstance(other, (int, float, complex)):
            c = complex(other)
            coef = _complex(_times(_parts(self._coef), (c.real, c.imag)))
            return PolynomialSymbol._arrays(self.d, self._exps, coef)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"polynomial power must be a nonnegative integer, got {n!r}")
        out = PolynomialSymbol.constant(self.d, 1.0)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, PolynomialSymbol):
            return NotImplemented
        return self.d == other.d and self.terms == other.terms

    def __hash__(self):
        return hash((self.d, frozenset(self.terms.items())))

    # -- calculus ----------------------------------------------------

    def derivative(self, axis: int) -> "PolynomialSymbol":
        """Partial derivative along one of the 2d coordinate axes
        (0..d-1 are y_1..y_d, d..2d-1 are eta_1..eta_d)."""
        if not 0 <= axis < 2 * self.d:
            raise ValueError(f"axis {axis} out of range for d={self.d}")
        keep = self._exps[:, axis] > 0
        exps = self._exps[keep]
        power = exps[:, axis].copy()
        exps[:, axis] -= 1  # rows stay sorted and distinct
        # the old loop's 0 + v * p: adding 0 settles the sign of every zero part
        coef = _complex(_times_real(_parts(self._coef[keep]), power) + 0.0)
        return PolynomialSymbol._arrays(self.d, exps, coef)

    def conjugate(self) -> "PolynomialSymbol":
        return PolynomialSymbol._arrays(self.d, self._exps, self._coef.conj())

    def evaluate(self, yv: np.ndarray, ev: np.ndarray) -> np.ndarray:
        """Evaluate at sample points.

        Parameters
        ----------
        yv, ev : arrays of shape (M, d)
            y and eta coordinates of M sample points.

        Returns
        -------
        complex array of shape (M,).  Each call takes its powers afresh;
        `hypothesis_check` reads its grid's from a per-process cache (<= 11.4 MB).
        """
        yv = np.atleast_2d(np.asarray(yv, dtype=float))
        ev = np.atleast_2d(np.asarray(ev, dtype=float))
        if yv.shape[1] != self.d or ev.shape != yv.shape:
            raise DimensionMismatch(
                f"sample arrays must both have shape (M, {self.d}), got {yv.shape} and {ev.shape}"
            )
        cols = [yv[:, s] for s in range(self.d)] + [ev[:, s] for s in range(self.d)]
        return self._evaluate(yv.shape[0], lambda s, e: cols[s] ** e).astype(complex, copy=False)

    def _evaluate(self, m: int, power) -> np.ndarray:
        """Sum of the terms at m points; power(s, e) is variable s (y, then eta) to the e.
        float64 when every coefficient is real (the real parts of the complex sum, bit
        for bit), complex otherwise."""
        real = self.is_real()
        out = np.zeros(m, dtype=float if real else complex)
        for k, c in self.iter_terms():
            if real:
                c = c.real
            mono = np.ones(m)
            for s in range(self.d):
                if k[s]:
                    mono = mono * power(s, k[s])
                if k[self.d + s]:
                    mono = mono * power(self.d + s, k[self.d + s])
            out += c * mono
        return out

    # -- serialization and display -----------------------------------

    def to_dict(self) -> dict:
        """JSON-ready literal: {"d": d, "terms": [{"c": [re, im], "y": [...], "eta": [...]}]}."""
        terms = [
            {"c": [c.real, c.imag], "y": list(k[: self.d]), "eta": list(k[self.d :])}
            for k, c in self.iter_terms()
        ]
        return {"d": self.d, "terms": terms}

    @classmethod
    def from_dict(cls, data: Mapping) -> "PolynomialSymbol":
        d = int(data["d"])
        terms: dict[MultiIndex, complex] = {}
        for t in data["terms"]:
            if len(t["y"]) != d or len(t["eta"]) != d:
                raise DimensionMismatch(f"exponent lists of term {t} must have length d={d}")
            idx = tuple(int(p) for p in t["y"]) + tuple(int(p) for p in t["eta"])
            c = complex(t["c"][0], t["c"][1])
            terms[idx] = terms.get(idx, 0.0) + c
        return cls(d, terms)

    def _fmt_monomial(self, k: MultiIndex) -> str:
        parts = []
        for s in range(self.d):
            sub = "" if self.d == 1 else str(s + 1)
            if k[s]:
                parts.append(f"y{sub}" + (f"^{k[s]}" if k[s] > 1 else ""))
            if k[self.d + s]:
                parts.append(f"eta{sub}" + (f"^{k[self.d + s]}" if k[self.d + s] > 1 else ""))
        return "*".join(parts)

    def __str__(self):
        if self.is_zero():
            return "0"
        chunks = []
        for k, c in self.iter_terms():
            if c.imag == 0.0:
                cs = f"{c.real:g}"
            elif c.real == 0.0:
                cs = f"{c.imag:g}i"
            else:
                sign = "+" if c.imag >= 0 else "-"
                cs = f"({c.real:g}{sign}{abs(c.imag):g}i)"
            mono = self._fmt_monomial(k)
            if not mono:
                chunks.append(cs)
            elif cs == "1":
                chunks.append(mono)
            elif cs == "-1":
                chunks.append(f"-{mono}")
            else:
                chunks.append(f"{cs}*{mono}")
        return " + ".join(chunks).replace("+ -", "- ")

    def __repr__(self):
        return f"PolynomialSymbol(d={self.d}, {str(self)})"


def y(d: int = 1, mode: int = 0) -> PolynomialSymbol:
    """The coordinate symbol y_(mode+1)."""
    idx = [0] * (2 * d)
    idx[mode] = 1
    return PolynomialSymbol.monomial(d, idx)


def eta(d: int = 1, mode: int = 0) -> PolynomialSymbol:
    """The coordinate symbol eta_(mode+1)."""
    idx = [0] * (2 * d)
    idx[d + mode] = 1
    return PolynomialSymbol.monomial(d, idx)


# ---------------------------------------------------------------------------
# Moyal star product
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _compositions(total: int, caps: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All tuples of nonnegative integers at most `caps` summing to `total`, in order."""
    if len(caps) == 1:
        return ((total,),) if total <= caps[0] else ()
    return tuple((head,) + rest for head in range(min(total, caps[0]) + 1)
                 for rest in _compositions(total - head, caps[1:]))


class _Plan(NamedTuple):
    """Index arrays of the star series up to order `top` within per-axis caps."""

    tables: tuple        # (T, 2d) partial of each term: (alpha, beta) of a, (beta, alpha) of b
    chains: tuple        # each table's derivative chain (_chain)
    r: np.ndarray        # per term: its order r = |alpha| + |beta|
    weight: np.ndarray   # r! / (alpha! beta!) (-1)^|beta|, as float


def _chain(table: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """(axis, offset), each (top, T): the axis of the s-th derivative taking
    each partial d^gamma of the table, and how far it is already lowered.
    Each partial d^gamma is one derivative, along the first nonzero axis
    of gamma, of d^(gamma - e_axis); unrolled, the derivatives run from
    the last axis to the first, and the s-th along an axis multiplies by
    the exponent minus s."""
    # step s runs along the first axis whose later axes took at most s steps; the
    # chain holds small integers, 2 * top bytes per partial below top 128
    after = table[:, ::-1].cumsum(axis=1)[:, ::-1] - table
    axis, offset = np.zeros((2, top, len(table)), np.min_scalar_type(-max(top, table.shape[1])))
    for step in range(top):
        axis[step] = (after > step).sum(axis=1)
        offset[step] = step - after[np.arange(len(table)), axis[step]]
    return axis, offset


@functools.lru_cache(maxsize=64)
def _plan_terms(top: int, caps: tuple[int, ...]) -> int:
    """The number of terms of _series_plan(d, top, caps), without listing
    them: the per-axis ranges 0..cap convolved, up to order top."""
    counts = [1]
    for cap in caps:
        counts = [sum(counts[max(0, k - cap):k + 1]) for k in range(min(len(counts) + cap, top + 1))]
    return sum(counts)


def _star_bytes(top: int, caps: tuple[int, ...], monomials: int) -> int:
    """Bytes of the series plan of (top, caps) and of the partial table of
    an operand side with `monomials` monomials, estimated from the plan's T
    terms: per term two int64 table rows, two (top,) chain columns per
    table, r and weight; per partial (at most T per monomial) two int64
    (top,) factor columns, two chain reads, its exponents and parts."""
    terms, chain = _plan_terms(top, caps), np.min_scalar_type(-max(top, len(caps))).itemsize
    return terms * (16 * len(caps) + 4 * chain * top + 16
                    + monomials * ((16 + 2 * chain) * top + 8 * len(caps) + 32))


@functools.lru_cache(maxsize=64)
def _series_plan(d: int, top: int, caps: tuple[int, ...]) -> _Plan:
    """The plan of B^0 .. B^top, terms in the order the expansion adds them,
    keeping those whose partial (alpha, beta) of a is at most `caps` on every
    axis; past the caps _star_sum sets, a or b lacks the term's partial."""
    terms = []
    for r in range(top + 1):
        rfact = math.factorial(r)
        for ra in range(r + 1):
            for alpha in _compositions(ra, caps[:d]):
                for beta in _compositions(r - ra, caps[d:]):
                    weight = rfact // math.prod(map(math.factorial, alpha + beta))
                    terms.append((alpha + beta, r, -weight if (r - ra) % 2 else weight))
    table, r, weight = (np.array(col) for col in zip(*terms))
    tables = (table, np.roll(table, d, axis=1))
    return _Plan(tables, tuple(_chain(t, top) for t in tables), r, weight.astype(float))


@_silent
def _partial_table(levels: list[PolynomialSymbol], table: np.ndarray, chain: tuple):
    """Every mixed partial d^gamma q of every level q at each row of `table`, at once.

    Returns (exps, parts, starts, counts): the partial of level l at row
    g is columns starts[g, l] .. + counts[g, l] of exps and of the (re, im)
    rows `parts`, monomials in sorted order.  Each coefficient takes one
    derivative at a time, c * power, as the derivative of its parent
    partial computes it (up to the sign of zero parts)."""
    exps = np.concatenate([q._exps for q in levels])
    below = exps[:, 0] >= table[:, :1]  # (T, N): gamma <= row
    for axis in range(1, exps.shape[1]):
        below &= exps[:, axis] >= table[:, axis:axis + 1]
    g, t = np.divmod(np.flatnonzero(below), len(exps))
    gammas = table.take(g, axis=0)
    parts = _parts(np.concatenate([q._coef for q in levels])).take(t, axis=1)
    factors = exps.take(chain[0].take(g, axis=1) + t * exps.shape[1]) - chain[1].take(g, axis=1)
    firsts = np.searchsorted(gammas.sum(axis=1), np.arange(len(chain[0])), side="right")
    for step, lo in enumerate(firsts.tolist()):  # columns lo.. take at least step + 1 derivatives
        part = parts[:, lo:]  # times the factor, in place, as _times_real
        part += part[::-1] * 0.0
        part *= factors[step, lo:]
    level = np.repeat(np.arange(len(levels)), [len(q._coef) for q in levels])
    counts = np.bincount(g * len(levels) + level[t], minlength=len(table) * len(levels))
    counts = counts.reshape(len(table), len(levels))
    starts = counts.cumsum().reshape(counts.shape) - counts
    return exps.take(t, axis=0) - gammas, parts, starts, counts


def _star_sum(d: int, left, right, hbar: float | None = None, merge: bool = False,
              first: int = 0, last: int | None = None) -> dict[int, PolynomialSymbol]:
    """The Moyal series of every level pair, in one batched kernel.

    left and right are (j, symbol) levels.  For each pair (a, b) in loop
    order and each first <= r <= min(last, deg a, deg b), B^r(a, b) is
    weighted by (i hbar/2)^r / r! and filed under level j_a + j_b + r (under
    0 with merge); with hbar None it is filed unweighted, which needs one
    (pair, r) per level.  Per monomial, a product adds a_i b_j in the sorted
    double loop, B^r adds its products in series order, and a level adds
    its B^r in (pair, r) order, each sum from 0.  Returns {level: symbol}.
    """
    left = [(j, a) for j, a in left if not a.is_zero()]
    right = [(j, b) for j, b in right if not b.is_zero()]
    if not left or not right:
        return {}
    deg_a, deg_b = (max(q.degree() for _, q in side) for side in (left, right))
    _check_degree(deg_a + deg_b)
    top = min(deg_a, deg_b)
    if last is not None:
        top = min(top, last)
    if top < first:
        return {}
    # a's partial (alpha, beta) is zero past a's largest exponents, b's (beta, alpha) past b's
    high = [np.concatenate([q._exps for _, q in side]).max(axis=0) for side in (left, right)]
    caps = np.minimum(np.minimum(high[0], np.concatenate((high[1][d:], high[1][:d]))), top)
    caps = tuple(caps.tolist())
    size = _star_bytes(top, caps, max(sum(len(q._coef) for _, q in side) for side in (left, right)))
    if size > MAX_STAR_BYTES:
        raise ResourceLimitError(
            f"the star series up to order {top} needs about {size / 2 ** 30:.1f} GiB for its "
            f"plan and partials, above the limit {MAX_STAR_BYTES / 2 ** 30:g} GiB")
    plan = _series_plan(d, top, caps)
    (exps_a, parts_a, start_a, count_a), (exps_b, parts_b, start_b, count_b) = (
        _partial_table([q for _, q in side], table, chain)
        for side, table, chain in zip((left, right), plan.tables, plan.chains))

    # the series terms from order `first` of each level pair, in loop order, whose partials exist
    keep = (count_a.T[:, None] > 0) & (count_b.T[None] > 0) & (plan.r >= first)  # (la, lb, term)
    pair, term = np.divmod(np.flatnonzero(keep), len(plan.r))
    la, lb = np.divmod(pair, len(right))
    n_a, n_b = count_a[term, la], count_b[term, lb]
    r = plan.r[term]
    series = pair * (top + 1) + r
    level = (np.zeros_like(r) if merge else
             np.array([j for j, _ in left])[la] + np.array([j for j, _ in right])[lb] + r)

    # every a_i b_j of every product, products in series order
    prod, local = _ranges(n_a * n_b)
    if not len(prod):
        return {}
    ia = start_a[term, la][prod] + local // n_b[prod]
    ib = start_b[term, lb][prod] + local % n_b[prod]
    rows = exps_a.take(ia, axis=0) + exps_b.take(ib, axis=0)
    keys = _keys(rows, level[prod])
    order = keys.argsort(kind="stable")
    sorted_keys = keys.take(order)
    sorted_prod = prod[order]
    new_level = _starts(sorted_keys)  # a monomial of a level starts
    new_prod, new_series = new_level.copy(), new_level.copy()
    new_prod[1:] |= sorted_prod[1:] != sorted_prod[:-1]
    sorted_series = series[sorted_prod]
    new_series[1:] |= sorted_series[1:] != sorted_series[:-1]

    # products, then each B^r from its products, then each level from its B^r
    vals = _times(parts_a.take(ia, axis=1), parts_b.take(ib, axis=1))
    runs = new_prod.cumsum() - 1
    sums = _add_runs(vals.take(order, axis=1), runs, int(runs[-1]) + 1)
    head = np.flatnonzero(new_prod)
    runs = new_series.cumsum() - 1
    weights = plan.weight[term[sorted_prod[head]]]
    sums = _add_runs(_times_real(_parts(sums), weights), runs[head], int(runs[-1]) + 1)
    head = np.flatnonzero(new_series)
    if hbar is not None:
        coeffs = _parts(np.array([(1j * hbar / 2) ** k / math.factorial(k)
                                  for k in range(top + 1)]))
        runs = new_level.cumsum() - 1
        weights = coeffs.take(r[sorted_prod[head]], axis=1)
        sums = _add_runs(_times(_parts(sums), weights), runs[head], int(runs[-1]) + 1)
        head = np.flatnonzero(new_level)

    return _split(d, level[sorted_prod[head]], rows.take(order[head], axis=0), sums)


def bidifferential_power(a: PolynomialSymbol, b: PolynomialSymbol, j: int) -> PolynomialSymbol:
    """The j-th power B^j(a, b) of the symplectic bidifferential operator.

    B^j(a, b) = sum_{|alpha|+|beta|=j} j!/(alpha! beta!) (-1)^|beta|
                (dy^alpha deta^beta a) (deta^alpha dy^beta b)

    B^1 is the Poisson bracket {a, b}.
    """
    if j < 0:
        raise ValueError(f"bidifferential order must be >= 0, got {j}")
    a._require_same_d(b)
    levels = _star_sum(a.d, [(0, a)], [(0, b)], first=j, last=j)
    return levels.get(j, PolynomialSymbol.zero(a.d))


def poisson_bracket(a: PolynomialSymbol, b: PolynomialSymbol) -> PolynomialSymbol:
    """{a, b} = sum_s (dy_s a deta_s b - deta_s a dy_s b)."""
    return bidifferential_power(a, b, 1)


def moyal_star(a: PolynomialSymbol, b: PolynomialSymbol, hbar: float) -> PolynomialSymbol:
    """Moyal star product a # b at semiclassical parameter hbar.

    The expansion terminates at j = min(deg a, deg b), so the result is
    exact.  hbar = 0 is accepted and returns the commutative product.
    """
    a._require_same_d(b)
    if not 0 <= hbar < math.inf:
        raise ValueError(f"hbar must be finite and >= 0, got {hbar}")
    if hbar == 0:
        return a * b
    levels = _star_sum(a.d, [(0, a)], [(0, b)], hbar=hbar, merge=True)
    return levels.get(0, PolynomialSymbol.zero(a.d))


# ---------------------------------------------------------------------------
# Transverse Taylor splitting
# ---------------------------------------------------------------------------


def taylor_transverse(p: PolynomialSymbol, order: int,
                      strict: bool = False) -> tuple[PolynomialSymbol, PolynomialSymbol]:
    """Split p into (homogeneous part of total degree `order`, higher part).

    Terms of degree below `order` raise VanishingOrderError when
    `strict`, otherwise they are dropped; leading + remainder + dropped
    terms reassemble p exactly.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    deg = p._exps.sum(axis=1)
    if strict and (deg < order).any():
        low = int(np.argmax(deg < order))
        raise VanishingOrderError(
            f"monomial {tuple(p._exps[low].tolist())} has degree {deg[low]} "
            f"< required transverse order {order}"
        )
    return tuple(PolynomialSymbol._arrays(p.d, p._exps[rows], p._coef[rows])
                 for rows in (deg == order, deg > order))


@_silent
def _pull_back(p: PolynomialSymbol, frame: tuple[float, float]) -> PolynomialSymbol:
    """p o T, the composition of a d = 1 symbol with the linear symplectic
    T = [[a, 0], [c, 1/a]] (frame = (a, c); see melinlab.localize for the
    frame): y^m eta^n becomes a^m y^m (c y + eta/a)^n, expanded by the
    binomial theorem, each monomial of the result summed in the order of
    p's monomials."""
    a, c = frame
    owner, t = _ranges(p._exps[:, 1] + 1)
    m, n = p._exps[owner].T
    weight = np.array([math.comb(*nt) for nt in zip(n.tolist(), t.tolist())], dtype=float)
    weight *= a ** (m - n + t).astype(float) * c ** t.astype(float)
    rows = np.column_stack((m + t, n - t))
    head, where = _group(rows)
    coef = _add_runs(_parts(p._coef[owner] * weight), where, len(head))
    return PolynomialSymbol._arrays(1, rows.take(head, axis=0), coef)


# ---------------------------------------------------------------------------
# Graded symbols
# ---------------------------------------------------------------------------


class GradedSymbol:
    """A Lambda-graded symbol p = sum_j Lambda^(m-j) q_{m-j}.

    Levels are indexed by the integer drop j >= 0; each level is a
    PolynomialSymbol in the transverse variables.  `m` is the overall
    order (an exact Fraction) and `k` the codimension order: under the
    vanishing hypothesis, level j <= k carries transverse degree at
    least 2k - 2j.
    """

    __slots__ = ("d", "m", "k", "levels", "_merged")

    def __init__(self, d: int, k: int, levels: Mapping[int, PolynomialSymbol] | None = None,
                 m: Fraction | int | float = 0):
        if d < 1:
            raise ValueError(f"transverse dimension must be >= 1, got {d}")
        if k < 0:
            raise ValueError(f"codimension order must be >= 0, got {k}")
        self.d = int(d)
        self.k = int(k)
        self.m = Fraction(m)
        lv: dict[int, PolynomialSymbol] = {}
        if levels:
            for j, q in levels.items():
                jj = int(j)
                if jj < 0:
                    raise ValueError(f"level index must be >= 0, got {jj}")
                if not isinstance(q, PolynomialSymbol):
                    raise TypeError(f"level {jj} is not a PolynomialSymbol")
                if q.d != self.d:
                    raise DimensionMismatch(f"level {jj} has d={q.d}, symbol has d={self.d}")
                if not q.is_zero():
                    lv[jj] = q
        self.levels = dict(sorted(lv.items()))
        self._merged = None

    def __eq__(self, other):
        if not isinstance(other, GradedSymbol):
            return NotImplemented
        return (self.d, self.m, self.k, self.levels) == (other.d, other.m, other.k, other.levels)

    def __repr__(self):
        lv = ", ".join(f"{j}: {q}" for j, q in self.levels.items())
        return f"GradedSymbol(d={self.d}, m={self.m}, k={self.k}, levels={{{lv}}})"

    def fold(self, lam: float) -> PolynomialSymbol:
        """Numeric symbol sum_j Lambda^(m-j) q_j at a concrete Lambda >= 1.
        The levels are merged on the first fold and kept (they never
        change), so the rows of a sweep merge one symbol once."""
        if not 1 <= lam < math.inf:
            raise ValueError(f"Lambda must be a finite number >= 1, got {lam}")
        if self._merged is None:
            self._merged = _merge(self.d, list(self.levels.values()))
        return _fold(self.d, self._merged, [float(lam) ** float(self.m - j) for j in self.levels])

    def max_degree(self) -> int:
        return max((q.degree() for q in self.levels.values()), default=-1)

    def to_dict(self) -> dict:
        """JSON literal {"d", "m", "k", "levels": [{"j", "terms": [...]}]}."""
        levels = [
            {"j": j, "terms": q.to_dict()["terms"]}
            for j, q in self.levels.items()
        ]
        m = self.m
        return {
            "d": self.d,
            "m": int(m) if m.denominator == 1 else float(m),
            "k": self.k,
            "levels": levels,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "GradedSymbol":
        d = int(data["d"])
        levels: dict[int, PolynomialSymbol] = {}
        for entry in data["levels"]:
            j = int(entry["j"])
            if j in levels:
                raise ValueError(f"duplicate level index {j}")
            levels[j] = PolynomialSymbol.from_dict({"d": d, "terms": entry["terms"]})
        return cls(d, int(data["k"]), levels, m=Fraction(data["m"]))


def graded_star(p: GradedSymbol, q: GradedSymbol) -> GradedSymbol:
    """Graded Moyal composition of two graded symbols.

    Orders add (m = m_p + m_q, k = k_p + k_q) and levels combine as
    J = j_p + j_q + r, where r is the star-product order: each power of
    the bidifferential lowers the transverse degree by 2 and deepens the
    Lambda-grading by one, because the star parameter is hbar = 1/Lambda.
    Folding the result at any Lambda therefore reproduces
    moyal_star(p.fold(Lambda), q.fold(Lambda), 1/Lambda).  One kernel call
    takes the mixed partials of all levels of each operand at once.
    """
    if p.d != q.d:
        raise DimensionMismatch(f"cannot compose symbols with d={p.d} and d={q.d}")
    levels = _star_sum(p.d, p.levels.items(), q.levels.items(), hbar=1.0)
    return GradedSymbol(p.d, p.k + q.k, levels, m=p.m + q.m)


class HalfGradedPolynomial:
    """A polynomial with half-integer Lambda-exponents on its terms.

    Terms map (multi-index, e2) -> coefficient where e2 = 2e stores the
    exponent e of Lambda^e exactly as an integer; they are held as one
    PolynomialSymbol per e2 (`levels`, ascending e2).  Produced by
    scale_symbol; folding at a numeric Lambda returns a plain
    PolynomialSymbol.
    """

    __slots__ = ("d", "levels")

    def __init__(self, d: int, terms: Mapping[tuple[MultiIndex, int], complex] | None = None):
        self.d = int(d)
        by_e2: dict[int, dict] = {}
        for (index, e2), coeff in (terms or {}).items():
            if not isinstance(e2, int):
                raise GradingError(f"exponent 2e={e2!r} is not an integer")
            by_e2.setdefault(e2, {})[index] = coeff
        levels = {e2: PolynomialSymbol(self.d, t) for e2, t in sorted(by_e2.items())}
        self.levels = {e2: q for e2, q in levels.items() if not q.is_zero()}

    @property
    def terms(self) -> dict[tuple[MultiIndex, int], complex]:
        """{(multi-index, e2): coefficient}."""
        return {(idx, e2): c for e2, q in self.levels.items() for idx, c in q.terms.items()}

    def fold(self, lam: float) -> PolynomialSymbol:
        if not 1 <= lam < math.inf:
            raise ValueError(f"Lambda must be a finite number >= 1, got {lam}")
        # each monomial adds c Lambda^(e2/2) from 0 in e2 order
        return _fold(self.d, _merge(self.d, list(self.levels.values())),
                     [float(lam) ** (e2 / 2.0) for e2 in self.levels])

    def __eq__(self, other):
        if not isinstance(other, HalfGradedPolynomial):
            return NotImplemented
        return self.d == other.d and self.terms == other.terms

    def __repr__(self):
        chunks = [f"Lambda^{e2 / 2:g} * {c} * {idx}" for (idx, e2), c in sorted(self.terms.items())]
        return f"HalfGradedPolynomial(d={self.d}, [{'; '.join(chunks)}])"


def scale_symbol(p: GradedSymbol) -> HalfGradedPolynomial:
    """Rescale a graded symbol to the unit model scale.

    Conjugating the hbar = 1/Lambda quantization by the metaplectic
    dilation that maps each variable to Lambda^(-1/2) times itself sends
    a level-j monomial of transverse degree l to the same monomial with
    Lambda-exponent e = m - j - l/2.  Exponents are tracked as doubled
    integers; a non-half-integer m raises GradingError.  Fold the result
    at a numeric Lambda for a plain PolynomialSymbol:
    scale_symbol(p).fold(lam).
    """
    two_m = p.m * 2
    if two_m.denominator != 1:
        raise GradingError(f"order m={p.m} is not a half-integer; exponents 2e leave Z")
    out = HalfGradedPolynomial(p.d)
    if p.levels:
        # (idx, e2) never repeats: for one idx, levels differ in e2
        rows = np.concatenate([q._exps for q in p.levels.values()])
        e2 = np.concatenate([int(two_m) - 2 * j - q._exps.sum(axis=1) for j, q in p.levels.items()])
        order = np.lexsort((_keys(rows), e2))
        coef = np.concatenate([q._coef for q in p.levels.values()])
        # + 0.0 as the validating constructor's 0 + c
        out.levels = _split(p.d, e2[order], rows.take(order, axis=0), coef[order] + 0.0)
    return out
