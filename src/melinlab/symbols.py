"""Polynomial Weyl symbols on a transverse phase space and their algebra.

Symbols are polynomials in the transverse variables (y, eta) of
R^d x R^d; any tangential dependence is frozen at the base point and
never represented.  The monomial structure is exact: a symbol is a
mapping from integer exponent tuples to complex coefficients, and
addition, multiplication, and differentiation never truncate it.
Floating point enters only through the coefficient values.

A multi-index is a tuple of 2d nonnegative integers, the first d
entries for powers of y, the last d for powers of eta.  Public input is
validated: PolynomialSymbol(d, terms), monomial, from_dict and
HalfGradedPolynomial(...) check every multi-index and convert every
coefficient to complex.  Results built from valid symbols (*, +, -,
conjugate, derivative, the star series, fold, taylor_transverse) go
through the trusted PolynomialSymbol._trusted, which only drops zeros.

The module also provides the Moyal star product

    a # b = sum_j (1/j!) (i*hbar/2)^j B^j(a, b)

with B(a, b) = sum_s (dy_s a * deta_s b - deta_s a * dy_s b), the
convention pinned by star(y, eta) - star(eta, y) = i*hbar, and the
graded-symbol machinery: levels q_{m-j} with Lambda-weights
Lambda^(m-j), scaling to the unit model scale, and transverse Taylor
splitting.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, GradingError, VanishingOrderError

__all__ = [
    "MultiIndex",
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


def _check_index(index: Sequence[int], d: int) -> MultiIndex:
    idx = tuple(int(p) for p in index)
    if len(idx) != 2 * d:
        raise DimensionMismatch(
            f"multi-index of length {len(idx)} does not match d={d} (need {2 * d})"
        )
    if any(p < 0 for p in idx):
        raise ValueError(f"negative exponent in multi-index {idx}")
    return idx


class PolynomialSymbol:
    """A complex polynomial in (y_1..y_d, eta_1..eta_d).

    Terms are stored sparsely as {multi-index: coefficient}; zero
    coefficients are dropped so equal polynomials compare equal.
    Instances are treated as immutable after construction.

    Example
    -------
    >>> p = PolynomialSymbol(1, {(2, 0): 1.0, (0, 2): 1.0})   # y^2 + eta^2
    >>> p.degree()
    2
    """

    __slots__ = ("d", "terms")

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
        self._adopt(d, clean)

    def _adopt(self, d: int, terms: Mapping[MultiIndex, complex]) -> "PolynomialSymbol":
        """The trusted end of construction: keys are already tuples of 2d
        nonnegative ints and values Python complex, so only the zeros
        (including any that cancelled while accumulating) are dropped."""
        self.d = d
        self.terms = {k: v for k, v in terms.items() if v != 0}
        return self

    @classmethod
    def _trusted(cls, d: int, terms: Mapping[MultiIndex, complex]) -> "PolynomialSymbol":
        """A symbol from terms the algebra built out of valid symbols."""
        return cls.__new__(cls)._adopt(d, terms)

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
        return not self.terms

    def is_real(self) -> bool:
        """True iff every coefficient has exactly zero imaginary part."""
        return all(c.imag == 0.0 for c in self.terms.values())

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(k) for k in self.terms), default=-1)

    def min_degree(self) -> int:
        """Smallest total degree present; -1 for the zero polynomial."""
        return min((sum(k) for k in self.terms), default=-1)

    def iter_terms(self) -> Iterator[tuple[MultiIndex, complex]]:
        """Terms in the canonical order (by total degree, then index)."""
        return iter(sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0])))

    # -- ring operations ---------------------------------------------

    def _require_same_d(self, other: "PolynomialSymbol") -> None:
        if self.d != other.d:
            raise DimensionMismatch(f"cannot combine symbols with d={self.d} and d={other.d}")

    def __add__(self, other):
        if isinstance(other, PolynomialSymbol):
            self._require_same_d(other)
            out = dict(self.terms)
            for k, v in other.terms.items():
                out[k] = out.get(k, 0.0) + v
            return PolynomialSymbol._trusted(self.d, out)
        if isinstance(other, (int, float, complex)):
            return self + PolynomialSymbol.constant(self.d, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return PolynomialSymbol._trusted(self.d, {k: -v for k, v in self.terms.items()})

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
            out: dict[MultiIndex, complex] = {}
            for ka, va in sorted(self.terms.items()):
                for kb, vb in sorted(other.terms.items()):
                    key = tuple(a + b for a, b in zip(ka, kb))
                    out[key] = out.get(key, 0.0) + va * vb
            return PolynomialSymbol._trusted(self.d, out)
        if isinstance(other, (int, float, complex)):
            c = complex(other)
            return PolynomialSymbol._trusted(self.d, {k: v * c for k, v in self.terms.items()})
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
        out: dict[MultiIndex, complex] = {}
        for k, v in self.terms.items():
            p = k[axis]
            if p == 0:
                continue
            kk = k[:axis] + (p - 1,) + k[axis + 1 :]
            out[kk] = out.get(kk, 0.0) + v * p
        return PolynomialSymbol._trusted(self.d, out)

    def conjugate(self) -> "PolynomialSymbol":
        return PolynomialSymbol._trusted(self.d, {k: v.conjugate() for k, v in self.terms.items()})

    def evaluate(self, yv: np.ndarray, ev: np.ndarray) -> np.ndarray:
        """Evaluate at sample points.

        Parameters
        ----------
        yv, ev : arrays of shape (M, d)
            y and eta coordinates of M sample points.

        Returns
        -------
        complex array of shape (M,).
        """
        yv = np.atleast_2d(np.asarray(yv, dtype=float))
        ev = np.atleast_2d(np.asarray(ev, dtype=float))
        if yv.shape[1] != self.d or ev.shape[1] != self.d:
            raise DimensionMismatch(
                f"sample arrays must have {self.d} columns, got {yv.shape} and {ev.shape}"
            )
        out = np.zeros(yv.shape[0], dtype=complex)
        for k, c in self.iter_terms():
            mono = np.ones(yv.shape[0])
            for s in range(self.d):
                if k[s]:
                    mono = mono * yv[:, s] ** k[s]
                if k[self.d + s]:
                    mono = mono * ev[:, s] ** k[self.d + s]
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
        if not self.terms:
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


def _compositions(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `slots` nonnegative integers summing to `total`."""
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, slots - 1):
            yield (head,) + rest


def _multi_factorial(alpha: Iterable[int]) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def _weighted_sum(d: int, pairs: Iterable[tuple[complex, PolynomialSymbol]]) -> PolynomialSymbol:
    """sum_i w_i p_i, added into one dict in the order given and built once."""
    out: dict[MultiIndex, complex] = {}
    for w, p in pairs:
        for k, v in p.terms.items():
            out[k] = out.get(k, 0.0) + v * w
    return PolynomialSymbol._trusted(d, out)


def _add_partials(table: dict[MultiIndex, PolynomialSymbol], order: int) -> None:
    """Add the nonzero mixed partials of total order `order` to a table
    {gamma: d^gamma p} holding those of order - 1; each is one derivative,
    along its first nonzero axis, of a table entry."""
    for gamma in _compositions(order, len(next(iter(table)))):
        axis = next(i for i, g in enumerate(gamma) if g > 0)
        parent = table.get(gamma[:axis] + (gamma[axis] - 1,) + gamma[axis + 1 :])
        if parent is not None and not (part := parent.derivative(axis)).is_zero():
            table[gamma] = part


def _star_series(a: PolynomialSymbol, b: PolynomialSymbol, hbar: float,
                 first: int = 0) -> Iterator[tuple[int, complex, PolynomialSymbol]]:
    """Yield (r, (i*hbar/2)^r / r!, B^r(a, b)) for r = first .. min(deg a, deg b).

    B^r vanishes beyond the smaller degree, so this is the whole Moyal
    series.  Each mixed partial of a and of b is taken once and shared
    by every order that uses it.
    """
    a._require_same_d(b)
    d = a.d
    partials_a, partials_b = {(0,) * (2 * d): a}, {(0,) * (2 * d): b}
    for r in range(min(a.degree(), b.degree()) + 1):
        if r > 0:
            _add_partials(partials_a, r)
            _add_partials(partials_b, r)
        if r < first:
            continue
        rfact = math.factorial(r)
        pairs = []
        for ra in range(r + 1):
            for alpha in _compositions(ra, d):
                for beta in _compositions(r - ra, d):
                    da = partials_a.get(alpha + beta)
                    db = partials_b.get(beta + alpha)
                    if da is not None and db is not None:
                        weight = rfact // (_multi_factorial(alpha) * _multi_factorial(beta))
                        pairs.append((-weight if (r - ra) % 2 else weight, da * db))
        yield r, (1j * hbar / 2) ** r / rfact, _weighted_sum(d, pairs)


def bidifferential_power(a: PolynomialSymbol, b: PolynomialSymbol, j: int) -> PolynomialSymbol:
    """The j-th power B^j(a, b) of the symplectic bidifferential operator.

    B^j(a, b) = sum_{|alpha|+|beta|=j} j!/(alpha! beta!) (-1)^|beta|
                (dy^alpha deta^beta a) (deta^alpha dy^beta b)

    B^1 is the Poisson bracket {a, b}.
    """
    if j < 0:
        raise ValueError(f"bidifferential order must be >= 0, got {j}")
    for _, _, term in _star_series(a, b, 1.0, first=j):
        return term
    return PolynomialSymbol.zero(a.d)


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
    return _weighted_sum(a.d, ((coeff, term) for _, coeff, term in _star_series(a, b, hbar)))


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
    lead: dict[MultiIndex, complex] = {}
    rest: dict[MultiIndex, complex] = {}
    for k, c in p.terms.items():
        deg = sum(k)
        if deg == order:
            lead[k] = c
        elif deg > order:
            rest[k] = c
        elif strict:
            raise VanishingOrderError(
                f"monomial {k} has degree {deg} < required transverse order {order}"
            )
    return PolynomialSymbol._trusted(p.d, lead), PolynomialSymbol._trusted(p.d, rest)


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

    __slots__ = ("d", "m", "k", "levels")

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

    def __eq__(self, other):
        if not isinstance(other, GradedSymbol):
            return NotImplemented
        return (self.d, self.m, self.k, self.levels) == (other.d, other.m, other.k, other.levels)

    def __repr__(self):
        lv = ", ".join(f"{j}: {q}" for j, q in self.levels.items())
        return f"GradedSymbol(d={self.d}, m={self.m}, k={self.k}, levels={{{lv}}})"

    def fold(self, lam: float) -> PolynomialSymbol:
        """Numeric symbol sum_j Lambda^(m-j) q_j at a concrete Lambda >= 1."""
        if lam < 1:
            raise ValueError(f"Lambda must be >= 1, got {lam}")
        return _weighted_sum(self.d, ((float(lam) ** float(self.m - j), q)
                                      for j, q in self.levels.items()))

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
    moyal_star(p.fold(Lambda), q.fold(Lambda), 1/Lambda).
    """
    if p.d != q.d:
        raise DimensionMismatch(f"cannot compose symbols with d={p.d} and d={q.d}")
    pairs: dict[int, list[tuple[complex, PolynomialSymbol]]] = {}
    for jp, a in p.levels.items():
        for jq, b in q.levels.items():
            for r, coeff, term in _star_series(a, b, 1.0):
                pairs.setdefault(jp + jq + r, []).append((coeff, term))
    levels = {J: _weighted_sum(p.d, terms) for J, terms in pairs.items()}
    return GradedSymbol(p.d, p.k + q.k, levels, m=p.m + q.m)


class HalfGradedPolynomial:
    """A polynomial with half-integer Lambda-exponents on its terms.

    Terms map (multi-index, e2) -> coefficient where e2 = 2e stores the
    exponent e of Lambda^e exactly as an integer.  Produced by
    scale_symbol; folding at a numeric Lambda returns a plain
    PolynomialSymbol.
    """

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: Mapping[tuple[MultiIndex, int], complex] | None = None):
        self.d = int(d)
        clean: dict[tuple[MultiIndex, int], complex] = {}
        if terms:
            for (index, e2), coeff in terms.items():
                if not isinstance(e2, int):
                    raise GradingError(f"exponent 2e={e2!r} is not an integer")
                idx = _check_index(index, self.d)
                c = complex(coeff)
                if c != 0:
                    key = (idx, e2)
                    clean[key] = clean.get(key, 0.0) + c
        self.terms = {k: v for k, v in clean.items() if v != 0}

    def fold(self, lam: float) -> PolynomialSymbol:
        if lam < 1:
            raise ValueError(f"Lambda must be >= 1, got {lam}")
        out: dict[MultiIndex, complex] = {}
        for (idx, e2), c in sorted(self.terms.items()):
            w = c * float(lam) ** (e2 / 2.0)
            out[idx] = out.get(idx, 0.0) + w
        return PolynomialSymbol._trusted(self.d, out)

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
    # (idx, e2) never repeats: for one idx, levels differ in e2
    return HalfGradedPolynomial(p.d, {(idx, int(two_m) - 2 * j - sum(idx)): c
                                      for j, q in p.levels.items()
                                      for idx, c in q.terms.items()})
