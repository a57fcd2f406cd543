"""Weyl quantization of polynomial symbols as finite Fock-basis matrices.

The basis is the tensor Hermite (Fock) basis adapted to hbar: the
ladder operators satisfy [a, a+] = 1 and the coordinate operators are

    yhat   = sqrt(hbar/2) (a + a+)
    etahat = i sqrt(hbar/2) (a+ - a)

so [yhat, etahat] = i*hbar: the Fock basis of the isotropic vacuum.
This module quantizes every symbol as given, in that basis; localize and
lambda_sweep first pull a d = 1 graded symbol back to the frame of its
lead's best Gaussian (see melinlab.localize), a unitarily equivalent
operator whose ladder converges sooner.

Ladder-operator coordinates.  In z = (y + i eta) / sqrt(2 hbar), whose
operator is a, y^a eta^b = (hbar/2)^(W/2) i^b (z + zbar)^a (zbar - z)^b
(W = a + b) is a sum of zbar^m z^(W-m) with integer weights, and the
Weyl operator of zbar^m z^n, the symmetrized product of m a+ and n a, is
sum_j j! C(m, j) C(n, j) 2^-j a+^(m-j) a^(n-j) (Cahill and Glauber,
Phys. Rev. 177, 1857, 1969): one diagonal, n - m, with the entries

    M[i, i + n - m] = sum_j j! C(m, j) C(n, j) 2^-j
                      sqrt(i! / (i-m+j)!) sqrt((i+n-m)! / (i-m+j)!).

So a rung of size N holds the exact entries of the infinite matrix with
no level beyond it, truncation is a compression, and lowest eigenvalues
are nonincreasing in N.  The integer weights of a degree are summed
before (hbar/2)^(W/2) scales them, so terms that cancel do so exactly
(Weyl((y^2 + eta^2)^k) is diagonal, with the bottom k! hbar^k).  Each
degree's diagonals are one hbar-free table (_diagonals); a band row sums
coefficient times diagonal in extended precision and rounds once.  That
precision is np.longdouble's, the 64-bit mantissa of x86-64 Linux, the
only platform on which the tests' 1e-12 closed-form bounds are verified;
where np.longdouble is float64 (Windows, macOS on arm64) every partial sum
rounds, and those bounds are unverified.

A rung holds, per mode-2 z-monomial (one diagonal; at d = 1 the constant
1), the summed mode-1 band, and writes their Kronecker products only when
read or solved.  Rungs are built by weyl_quantize and, for each row's
last rung, by _walk; there is one truncation ladder, _walk (which walks
a batch of rows at once), and one rung solve, _bottoms, which
lowest_eigenvalue and _walk share.

Real arithmetic.  Each term c y^a eta^b enters with the weight c i^|b|
(|b| the total eta-degree); when every weight is real the coefficients,
bands and blocks are float64 and eigvalsh runs the real symmetric solver,
otherwise they are complex.  So real symbols even in eta take the real
path, and so does eta_1 eta_2, whose two imaginary factors multiply to a
real one (conjugation swaps z and zbar: it sends Weyl(p(y, eta)) to
Weyl(p(y, -eta))).

Hermiticity is decided on the symbol, never on a block: Weyl(p)^* =
Weyl(conj p) and quantization is injective (Folland, Harmonic Analysis
in Phase Space, 1989, ch. 2), so Weyl(p) is self-adjoint exactly when
every coefficient of p is real.  _rows applies that rule once per row of
a ladder.  A real symbol's mirrored z-monomial gets the conjugate
coefficient and reads the same diagonal, checked exactly symmetric when
its table is built, so mirrored entries are the same sums of exactly
conjugated terms, if every sum is finite, which the entry bound of
_bands ensures; no block is scanned.

Parity sectors.  The Weyl matrix of y_s^a eta_s^b changes n_s by
amounts of the parity of a + b, so a symbol whose monomials all have
even degree in every mode commutes with each (-1)^{N_s}, and one whose
monomials all have even total degree commutes with (-1)^{N_1 + N_2}.
The ladder reads this from the exponents and marks each rung with its
sector index sets (2^d sectors split by the parity of each n_s, 2 by
that of n_1 + n_2, or, without parity, one: the whole block); entries
between sectors are exactly zero.  Every rung is solved by sector, each
block written straight from the bands (see _block): lowest_eigenvalue
solves one, rho, and certifies that each other sector lies above it.

Disc certificates.  Before another sector is written, _discs reads off
the bands, in O(N^d) work and with no block, each row's diagonal entry
D_i, bit for bit the block's, and a bound R_i of sum_{j != i} |B_ij|:
the sum of |mode-2 diagonal| |mode-1 band| over the products off the
diagonal, each counted on its own, which by the triangle inequality
bounds an entry where several products add up.  Every eigenvalue of the
Hermitian B lies in some disc [D_i - R_i, D_i + R_i] (Gershgorin 1931;
Horn and Johnson, Matrix Analysis, Thm. 6.1.1), so a sector with
min_i (D_i - R_i) > rho + 1e-10 max_i (|D_i| + R_i) lies above rho by
more than the Cholesky certificate's margin eta = 1e-10 max_i sum_j
|B_ij|, which is at most that term, and is never written.  The discs of
the rows of a sector are those of its block, since every entry that
couples a row lies in the row's sector.  Discs that are all points decide
the rung: where R_i = 0 for every i and every row of a batch, each row's
rung is diagonal (a radial symbol a(h_1 + ... + h_d) gives one: the Weyl
operator of zbar^m z^m is diagonal), its bottom is the least D_i, and the
sector that holds it the lowest-numbered one with that value, as the
certificates below select.  No block is written and no eigvalsh,
factorization or iteration runs.  eigvalsh returns those bits for a
diagonal block (LAPACK splits it into 1 x 1 blocks), except where it
rescales a block of norm outside about [1e-146, 7e145] and may move the
last bit; the discs keep the exact entry.

Cholesky certificates.  A sector the discs leave is written once for
all the rows of a batch that need it, and one pass over those rows makes
each decision: a row of the first sector may iterate (below), a row of
any other takes one Cholesky certificate at its own margin, and the
rows left take one stacked eigvalsh.  A sector lists its rows by flat
index n_1 + N n_2, in runs of equal level of its last mode (n_1 at
d = 1, n_2 at d = 2), and two rows couple only when those levels differ
by at most W, that mode's largest diagonal offset.  So the certificate is a
right-looking block Cholesky (Golub and Van Loan, Matrix Computations,
4th ed., 4.3-4.5) over super-blocks of whole runs, of at least
_SUPER_BLOCK = 32 rows.  The window rule: a super-block's
window ends at the last row within W levels of it, since no entry and
no fill-in lies farther out, and one Cholesky factorization of the
window gives its diagonal factor and panel, with no inverse.  Timed on
128- to 1024-row sectors, 32 is within noise of the best of 16 to 128;
16 and 64 lose 30 % on one.

Along a ladder the first sector block need not take eigvalsh: _walk
hands each rung after the first the bottom of the rung before and the
sector that held it, whose bottom on this rung it bounds from above
(compression).  That sector is solved first; where it has more than two
super-blocks (d = 1 from 65 rows, d = 2 from about 100), by inverse
iteration (Parlett, The Symmetric Eigenvalue Problem, ch. 4) on its
factor, the diagonal factors inverted for block substitution.  With one
BLAS thread the iteration took 0.6 ms against 1.6 ms for eigvalsh on a
128-row d = 1 sector, and 40 % of eigvalsh's time on a 256-row d = 2
one; at 64 rows (two super-blocks) both take 0.4 ms.  The Rayleigh
quotient theta counts only if B - (theta - eta) I has a Cholesky factor,
eta the certificate margin of lowest_eigenvalue, which rules out a
ground state the iteration missed; beyond that, theta rests on the
iteration having converged.  A shift that does not factor, a failed
certificate or the iteration cap fall back to eigvalsh.  The accuracy
rule: Cholesky keeps relative accuracy on graded definite blocks
(Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13, 1992), eigvalsh
only eps |B|, and at multiplicity 2k a bottom scales like hbar^k, |B|
like (N hbar)^k: the tests hold iterated bottoms to closed forms, and
to eigvalsh only within its own eps |B|.

Everything here is desk scale: d <= 2 modes and N <= 256 per mode, a
dense block of at most MAX_DENSE_DIM = 4096 rows (d = 2 up to N = 64),
and symbols of total degree at most MAX_DEGREE = 32 (the degree-32
diagonal table builds in milliseconds, and entries stay far below
overflow at N = 256, also in d = 2 products).  A ladder beyond either
limit raises ResourceLimitError before any coefficient is computed or
block allocated, so the default d = 2 ladder (32, 64, 128) is rejected
until a sparse path exists.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    MonotonicityError,
    NonHermitianError,
    ResourceLimitError,
)
from .symbols import GradedSymbol, PolynomialSymbol, _silent, scale_symbol

__all__ = [
    "OperatorMatrix",
    "weyl_quantize",
    "lowest_eigenvalue",
    "TruncationSweep",
    "truncation_sweep",
    "conjugation_residual",
]

MAX_MODES = 2
MAX_TRUNCATION = 256
MAX_DENSE_DIM = 4096
MAX_DEGREE = 32
_SUPER_BLOCK = 32
_INVERSE_ITERATIONS = 8
HERMITICITY_TOL = 1e-12
MONOTONICITY_TOL = 1e-10
CONVERGENCE_REL = 1e-8
CONVERGENCE_ABS = 1e-12


class OperatorMatrix:
    """A quantized symbol on the leading N^d Fock block: the rung that
    weyl_quantize builds, or the top rung of a row of _walk.

    Basis ordering is lexicographic over per-mode levels with mode 1
    fastest: flat index = n_1 + N*n_2 + ...  Entries are exact values of
    the infinite matrix (up to roundoff), closed forms that need no level
    beyond the block, float64 when every weight c i^|b| is real,
    complex128 otherwise; the rung builds them from its bands on first read.
    """

    pad = 0  # no level beyond the block is ever computed; perfbench's tracer reads it

    def __init__(self, d: int, n: int, hbar: float, hermitian: bool, parity: str | None,
                 stack: list[tuple]):
        self.d, self.n, self.hbar = d, n, hbar
        # whether the symbol is real (its blocks Hermitian), the flat indices of the
        # parity sectors (no entry couples two), their kind and the rung's bands,
        # a stack of one (the rung's row of its batch)
        self.hermitian, self._parity, self._stack = hermitian, parity, stack
        self.sectors = _sectors(d, n, parity)
        self._entries = None

    @property
    def dim(self) -> int:
        return self.n ** self.d

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            self._entries = _block(self._stack, self.d, self.n)[0]
        return self._entries


def _expansion(a: int, b: int) -> list[int]:
    """The integer weights K_m, m = 0..a+b, of zbar^m z^(a+b-m) in
    (z + zbar)^a (zbar - z)^b."""
    return [sum(math.comb(a, p) * math.comb(b, m - p) * (-1) ** (b + m + p) for p in range(m + 1))
            for m in range(a + b + 1)]


@functools.lru_cache(maxsize=None)
def _diagonals(width: int) -> np.ndarray:
    """Row m holds the diagonal, of offset width - 2m, of the Weyl operator
    of zbar^m z^(width-m) on the first MAX_TRUNCATION rows: hbar-free,
    read-only, built on first use (2.3 MB for all degrees up to MAX_DEGREE).
    Each row is computed on its own, and that of zbar^n z^m must be exactly
    the transpose of that of zbar^m z^n, else NonHermitianError.  roots[p,
    width + x] is sqrt(x (x-1) ... (x-p+1)) on the levels x in [-width,
    size + width), zero where a^p sends |x> to 0 (and below level 0)."""
    size = MAX_TRUNCATION
    x = np.arange(-width, size + width).astype(np.longdouble)
    roots = np.sqrt(np.cumprod([x >= 0, *np.maximum(x - np.arange(width)[:, None], 0)], axis=0))
    i = np.arange(width, width + size)
    table = np.empty((width + 1, size), dtype=np.longdouble)
    for m in range(width + 1):
        n = width - m
        j = np.arange(min(m, n) + 1)
        weight = [math.factorial(t) * math.comb(m, t) * math.comb(n, t) * 0.5 ** t for t in j]
        table[m] = (np.array(weight, dtype=np.longdouble)[:, None]
                    * (roots[m - j][:, i] * roots[n - j][:, i + n - m])).sum(axis=0)
    for m in range((width + 1) // 2):  # each pair of offsets k = width - 2m > 0 and -k
        k = width - 2 * m
        mirror = table[width - m]
        if not ((mirror[k:] == table[m, :size - k]).all() and not mirror[:k].any()):
            raise NonHermitianError(f"the diagonal of zbar^{width - m} z^{m} is not exactly the "
                                    f"transpose of that of zbar^{m} z^{width - m}")
    table.setflags(write=False)
    return table


class _Plan(NamedTuple):
    """How the terms of a symbol, in iter_terms order, become bands (_plan)."""

    d: int
    terms: np.ndarray    # per (term, z-monomial) pair of a nonzero weight: the term,
    targets: np.ndarray  # the z-monomial,
    weights: np.ndarray  # and the weight i^|b| K, in term order
    halves: np.ndarray   # per z-monomial, half its total degree W
    tables: tuple        # per mode-1 degree W1, rising: (W1, m1 of its z-monomials)
    order: np.ndarray    # the z-monomials of all tables, in band order
    starts: np.ndarray   # the first z-monomial of each band row
    groups: tuple        # per mode-2 factor: (offset, W2, m2, mode-1 offsets, band rows)
    kind: str | None     # the Fock parities the Weyl operator conserves (_sectors)


@functools.lru_cache(maxsize=64)
def _plan(d: int, exponents: tuple[tuple[int, ...], ...]) -> _Plan:
    """The plan of a symbol whose terms have these exponents, in order.

    Each term expands into z-monomials zbar_1^m1 z_1^n1 zbar_2^m2 z_2^n2
    with the product of its modes' integer weights.  They are numbered in
    band order: by mode-2 factor (its degree W2 = m2 + n2, then m2), a
    single diagonal (at d = 1 the constant 1), then by mode-1 offset
    k1 = n1 - m1, one band row each, then by mode-1 degree W1.  So each band
    row is a sum over rising degrees, and the mirrored z-monomial (m and n
    swapped in each mode) adds to the mirrored entry in the same place of
    the same order.  The kind is "mode" if every term has even degree in
    each mode, else "total" if every term has even total degree, else None."""
    found: dict[tuple[int, ...], None] = {}  # (W2, m2, k1, W1, m1) of each z-monomial
    expanded = []
    for t, idx in enumerate(exponents):
        modes = [[(m, idx[s] + idx[d + s], weight)
                  for m, weight in enumerate(_expansion(idx[s], idx[d + s]))] for s in range(d)]
        for (m1, w1, k1), (m2, w2, k2) in itertools.product(modes[0], modes[1] if d == 2
                                                              else [(0, 0, 1)]):
            if k1 * k2:
                key = (w2, m2, w1 - 2 * m1, w1, m1)
                found[key] = None
                expanded.append((t, key, (1, 1j, -1, -1j)[sum(idx[d:]) % 4] * k1 * k2))
    zs = sorted(found)
    index = {key: z for z, key in enumerate(zs)}
    rows = [z for z, key in enumerate(zs) if z == 0 or key[:3] != zs[z - 1][:3]]
    by_degree: dict[int, list[int]] = {}  # W1 -> its z-monomials
    spans: dict[tuple[int, int], list[int]] = {}  # (W2, m2) -> its band rows
    for z, key in enumerate(zs):
        by_degree.setdefault(key[3], []).append(z)
    for r, z in enumerate(rows):
        spans.setdefault(zs[z][:2], []).append(r)
    degrees = sorted(by_degree)
    tables = tuple((w1, np.array([zs[z][4] for z in by_degree[w1]])) for w1 in degrees)
    listed = [z for w1 in degrees for z in by_degree[w1]]
    groups = [(w2 - 2 * m2, w2, m2, tuple(zs[rows[r]][2] for r in span),
               slice(span[0], span[-1] + 1)) for (w2, m2), span in spans.items()]
    odd = [[(idx[s] + idx[d + s]) % 2 for s in range(d)] for idx in exponents]  # per term, mode
    kind = ("mode" if not any(map(any, odd))
            else "total" if not any(sum(row) % 2 for row in odd) else None)
    return _Plan(d, np.array([t for t, _, _ in expanded]),
                 np.array([index[k] for _, k, _ in expanded]),
                 np.array([w for _, _, w in expanded], dtype=complex),
                 np.array([(key[0] + key[3]) / 2 for key in zs]), tables, np.argsort(listed),
                 np.array(rows), tuple(groups), kind)


@functools.lru_cache(maxsize=256)
def _geometry(offsets: tuple[int, ...], size: int, n: int, row_stride: int, col_stride: int,
              stack: int = 1, stride: int = 0, first: int = 0, step: int = 1):
    """(source, place) of the entries of a band of these offsets and row
    length size, an array whose row t holds diagonal offsets[t],
    band[t, i] = M[i, i + offsets[t]], or of each band of a stack, shaped
    (stack, entries), that fall in the n x n matrix of the levels first,
    first + step, ... (all levels, or one parity, whose offsets are even):
    its entry (i, j) is band.flat[source] and sits at s * stride +
    i * row_stride + j * col_stride = place of the dense result."""
    k = np.array(offsets)[:, None]
    i = np.arange(n)[None, :]
    j = i + k // step
    inside = (j >= 0) & (j < n)
    s = np.arange(stack)[:, None]
    source = s * (len(offsets) * size) + (np.arange(len(offsets))[:, None] * size
                                          + first + step * i)[inside]
    place = s * stride + (i * row_stride + j * col_stride)[inside]
    source.setflags(write=False)
    place.setflags(write=False)
    return source, place


@functools.lru_cache(maxsize=64)
def _sectors(d: int, n: int, kind: str | None) -> tuple[np.ndarray, ...]:
    """Flat indices of the parity sectors of the n^d block: 2^d sectors
    labelled by the parity of each n_s ("mode"), 2 by the parity of their
    sum ("total"), or the whole block as one sector (None)."""
    flat = np.arange(n ** d)
    digits = [(flat // n ** s) % n for s in range(d)]  # the level n_s of each flat index
    if kind == "mode":
        label, count = sum((level % 2) << s for s, level in enumerate(digits)), 2 ** d
    elif kind == "total":
        label, count = sum(digits) % 2, 2
    else:
        label, count = np.zeros(n ** d, dtype=int), 1
    sectors = tuple(np.flatnonzero(label == v) for v in range(count))
    for idx in sectors:
        idx.setflags(write=False)
    return sectors


@functools.lru_cache(maxsize=64)
def _super_blocks(d: int, n: int, kind: str | None, v: int, width: int) -> tuple[tuple[int, int, int], ...]:
    """(start, stop, end) row bounds of the super-blocks of parity sector v:
    its runs of equal level of the last mode (n_1 at d = 1, n_2 at d = 2),
    grouped in order into blocks of at least _SUPER_BLOCK rows (the last
    may hold fewer), each with the end of its window, the last row whose
    level is at most that of row stop - 1 plus width, the last mode's band
    half-width."""
    level = _sectors(d, n, kind)[v] // n ** (d - 1)
    plan, start = [], 0
    for stop in [*(np.flatnonzero(np.diff(level)) + 1).tolist(), len(level)]:
        if stop - start >= _SUPER_BLOCK or stop == len(level):
            end = int(np.searchsorted(level, level[stop - 1] + width, side="right"))
            plan.append((start, stop, end))
            start = stop
    return tuple(plan)


def _factors(block: np.ndarray, shift: float,
             plan: tuple[tuple[int, int, int], ...]) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """The Cholesky factor L of block - shift I, or None if it has none, by
    right-looking block Cholesky over the super-blocks of plan, listed as
    (L[start:stop, start:stop], the panel L[stop:end, start:stop]) per
    super-block: the first stop - start columns of the factor of its window,
    rows and columns start:end of the current Schur complement, less the
    Gram matrices of the panels before it.  Each window is a principal
    submatrix of a Schur complement, so all factor exactly when the shifted
    block is positive definite."""
    work = block.copy()
    work.flat[::len(work) + 1] -= shift
    factor = []
    try:
        for start, stop, end in plan:
            window = np.linalg.cholesky(work[start:end, start:end])[:, :stop - start]
            panel = window[stop - start:]
            if end > stop:  # the last super-block, or the only one, updates nothing
                work[stop:end, stop:end] -= panel @ panel.conj().T
            factor.append((window[:stop - start], panel))
    except np.linalg.LinAlgError:
        return None
    return factor


def _solve(factor: list[tuple[np.ndarray, np.ndarray]],
           plan: tuple[tuple[int, int, int], ...], rhs: np.ndarray) -> np.ndarray:
    """(L L^H)^-1 rhs for the factor of _factors over plan with each
    diagonal factor inverted: block forward substitution down the
    super-blocks, then back substitution up them."""
    x = rhs.astype(factor[0][0].dtype)
    for (start, stop, end), (inverse, panel) in zip(plan, factor):
        x[start:stop] = inverse @ x[start:stop]
        x[stop:end] -= panel @ x[start:stop]
    for (start, stop, end), (inverse, panel) in zip(reversed(plan), reversed(factor)):
        x[start:stop] = inverse.conj().T @ (x[start:stop] - panel.conj().T @ x[stop:end])
    return x


def _inverse_iteration(block: np.ndarray, plan: tuple[tuple[int, int, int], ...], hint: float,
                       margin: float, start: np.ndarray) -> float | None:
    """The bottom of block by inverse iteration on its block Cholesky factor
    at the shift hint - margin / 2, from the unit vector start, or None
    where that is not certified.

    Each step solves on the factor and takes the Rayleigh quotient theta of
    the new vector; it stops when theta changes by at most
    16 eps (|theta| + |shift|), and gives None after _INVERSE_ITERATIONS
    steps.  theta is accepted only when block - (theta - margin) I has a
    Cholesky factor, so that no eigenvalue lies below theta - margin; the
    factor at the shift already shows that when theta - margin <= shift.
    None also when the block does not factor at the shift (its bottom lies
    below it)."""
    shift = hint - margin / 2
    factor = _factors(block, shift, plan)
    if factor is None:
        return None
    factor = [(np.linalg.inv(diagonal), panel) for diagonal, panel in factor]
    x, theta = start, math.inf
    for _ in range(_INVERSE_ITERATIONS):
        v = _solve(factor, plan, x)
        norm2 = np.vdot(v, v).real
        last, theta = theta, shift + np.vdot(x, v).real / norm2
        x = v / math.sqrt(norm2)
        if abs(theta - last) <= 16 * np.finfo(float).eps * (abs(theta) + abs(shift)):
            break
    else:
        return None
    if theta - margin <= shift or _factors(block, theta - margin, plan) is not None:
        return float(theta)
    return None


def _terms(p: PolynomialSymbol) -> tuple[tuple, tuple]:
    """(exponents, coefficients) of p's terms in iter_terms order; the zero
    symbol gets one zero term, so that its blocks stack too."""
    return tuple(zip(*p.iter_terms())) or (((0,) * 2 * p.d,), (0j,))


@_silent
def _coefficients(d: int, exponents: tuple, rows: list[tuple],
                  hbars: list[float]) -> tuple[_Plan, np.ndarray]:
    """Coefficient stage of a batch of rows, symbols with these exponents
    (_terms) and each row's coefficients, at their own hbar: the plan and
    the coefficients of its z-monomials by part (the real part, and the
    imaginary part unless every weight c i^|b| is real) and row.  Each
    row sums its terms' weighted integer weights in term order, which gives
    it the bits it gets alone and a real symbol's mirrored z-monomial the
    conjugate coefficient, and only then scales them by (hbar/2)^(W/2)."""
    plan = _plan(d, exponents)
    products = np.array(rows, dtype=complex)[:, plan.terms] * plan.weights
    # bincount adds in the order of its input: each row's products in term order
    summed = np.array([[np.bincount(plan.targets, row, len(plan.halves)) for row in part]
                       for part in [products.real] + [products.imag] * bool(products.imag.any())])
    return plan, summed * (np.array(hbars)[:, None] / 2.0) ** plan.halves


@_silent
def _bands(plan: _Plan, coefficients: np.ndarray, n: int) -> list[tuple]:
    """Band stage of a batch of rows at size n: per mode-2 factor, (its
    offset, its diagonal, None at d = 1, the mode-1 offsets, the summed
    mode-1 bands stacked over the rows).  A band row sums coefficient times
    diagonal over rising degrees in extended precision (np.longdouble) and
    rounds once: the bottoms of graded symbols feel the rounding of each
    entry.  Sums past a double give inf or NaN without a warning, so every
    band stage is held to the entry bound: a row whose sum of max|diagonal|
    max|mode-1 band| over mode-2 factors is not below finfo(float).max / 2
    raises ResourceLimitError."""
    tables = [_diagonals(width)[ms, :n] for width, ms in plan.tables]
    diagonals = tables[0] if len(tables) == 1 else np.concatenate(tables)[plan.order]
    extended = coefficients.astype(np.longdouble)[..., None] * diagonals
    if len(plan.starts) < extended.shape[2]:  # each band row's run, summed in order
        extended = np.add.reduceat(extended, plan.starts, axis=2)
    if len(extended) == 1:
        summed = extended[0].astype(float)
    else:
        summed = np.empty(extended.shape[1:], dtype=complex)
        summed.real, summed.imag = extended
    bands = [(k2, None if plan.d == 1 else _diagonals(w2)[m2, :n].astype(float), ks,
              np.ascontiguousarray(summed[:, span])) for k2, w2, m2, ks, span in plan.groups]
    if plan.d == 1:
        bounds = np.abs(summed).max(axis=(1, 2))
    else:  # the largest entry of each row's bands of each mode-2 factor, times its diagonal's
        tops = np.abs(summed).max(axis=2)
        tops = np.maximum.reduceat(tops, [span.start for *_, span in plan.groups], axis=1)
        bounds = (tops * [f.max() for _, f, _, _ in bands]).sum(axis=1)
    for bound in bounds.tolist():
        if not bound < np.finfo(float).max / 2:
            raise ResourceLimitError(f"matrix entries may overflow: their bound {bound:.3e} is not "
                                     f"below the overflow limit {np.finfo(float).max / 2:.3e}")
    return bands


def _block(bands: list[tuple], d: int, n: int, kind: str | None = None, v: int = 0) -> np.ndarray:
    """Block stage of the ladder: the summed Kronecker products of the
    (mode-2 diagonal, mode-1 band) pairs on the leading n^d block (mode 1
    fastest) or on its parity sector v of the given kind, read-only, of the
    summed bands' dtype, unchecked: _rows decides Hermiticity on the symbol.
    Bands stacked over rows (leading axis) give the stack of their blocks
    in one write.  Sector (p1, p2) = (v & 1, v >> 1) of the per-mode kind
    is the same write from every second level from p_s; a total-parity
    sector keeps the products inside it; at d = 1 there is no mode-2
    factor, so the products are one gather."""
    step, p1, p2 = (2, v & 1, v >> 1) if kind == "mode" else (1, 0, 0)
    n1, n2 = len(range(p1, n, step)), len(range(p2, n ** (d - 1), step))
    dim = size = n1 * n2
    if kind == "total":  # the local index of each flat index in sector v, else -1
        sector = _sectors(d, n, kind)[v]
        size, local = len(sector), np.full(dim, -1)
        local[sector] = np.arange(size)
    stack = len(bands[0][3])
    out = np.zeros((stack, size, size), dtype=bands[0][3].dtype)
    flat = out.reshape(-1)
    for k2, diagonal, ks, band in bands:
        src1, place = _geometry(ks, band.shape[-1], n1, dim, 1, stack,
                                0 if kind == "total" else size * size, p1, step)
        products = band.take(src1)
        if diagonal is not None:  # the outer products of the two factors' entries
            src2, off2 = _geometry((k2,), len(diagonal), n2, n1 * dim, n1, 1, 0, p2, step)
            place = off2[0][:, None] + place[:, None, :]
            products = diagonal.take(src2[0])[:, None] * products[:, None, :]
            if kind == "total":  # the products inside sector v, at their local indices
                row, col = local[place // dim], local[place % dim]
                inside = (row >= 0) & (col >= 0)
                first = np.arange(0, out.size, size * size).reshape(stack, 1, 1)
                place, products = (first + row * size + col)[inside], products[inside]
        flat[place] += products
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=256)
def _disc_masks(offsets: tuple[tuple[int, tuple[int, ...]], ...], n: int):
    """The masks of _discs for bands of these (mode-2 offset, mode-1
    offsets) at size n, built once per pair: per band row, 1 where its entry
    (i, i + k1) lies in the n x n block (n, not the band's length, which may
    be larger) and off the diagonal; the first band row of each mode-2
    factor; per mode-2 factor, 1 where (i, i + k2) lies in the block; and
    the (factor, band row) of each diagonal band, k2 = k1 = 0."""
    i = np.arange(n)
    ks = np.array([k for _, k1 in offsets for k in k1])[:, None]
    off = np.concatenate([np.array(k1) != 0 if k2 == 0 else np.ones(len(k1), dtype=bool)
                          for k2, k1 in offsets])
    mode1 = ((i + ks >= 0) & (i + ks < n) & off[:, None]).astype(float)
    starts = np.cumsum([0] + [len(k1) for _, k1 in offsets[:-1]])
    mode2 = np.array([(i + k2 >= 0) & (i + k2 < n) for k2, _ in offsets], dtype=float)
    centres = tuple((g, k1.index(0)) for g, (k2, k1) in enumerate(offsets) if k2 == 0 and 0 in k1)
    for mask in (mode1, starts, mode2):
        mask.setflags(write=False)
    return mode1, starts, mode2, centres


def _discs(bands: list[tuple], d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gershgorin discs of the rows of the n^d block of each row of a
    batch, from its bands (which may be longer than n), with no block
    written: (D, R), each shaped (rows, n^d) by flat index, D the real part
    of each diagonal entry, bit for bit that of the block, and R at least
    the sum of the absolute values of the other entries of that block row,
    each product |mode-2 diagonal| |mode-1 band| counted on its own
    (triangle inequality).  Every entry that couples a row lies in the
    row's parity sector, so the discs of a sector are its rows' discs."""
    mode1, starts, mode2, centres = _disc_masks(tuple((k2, ks) for k2, _, ks, _ in bands), n)
    stack = len(bands[0][3])
    absolute = np.concatenate([np.abs(band[..., :n]) for *_, band in bands], axis=1)
    sums = np.add.reduceat(absolute * mode1, starts, axis=1)  # (stack, factor, n_1)
    diagonal = np.zeros((stack, n ** (d - 1), n), dtype=bands[0][3].dtype)
    for g, t in centres:  # in band order, the sums that _block writes on the diagonal
        _, f, _, band = bands[g]
        centre = band[:, None, t, :n]
        diagonal += centre if f is None else f[:n, None] * centre
    if d == 1:
        return diagonal.real.reshape(stack, n), sums[:, 0]
    scale = np.abs(np.array([f[:n] for _, f, _, _ in bands])) * mode2
    return diagonal.real.reshape(stack, n * n), (scale.T @ sums).reshape(stack, n * n)


def _pick(bands: list[tuple], rows: list[int]) -> list[tuple]:
    """The bands of some rows of a batch."""
    return [(k2, diagonal, ks, band[rows]) for k2, diagonal, ks, band in bands]


def _check_truncations(ns: list) -> list[int]:
    """The ladder rule, the one place it is stated: at least one truncation,
    each an integer (2.0 is one, 2.5 is not) in [2, MAX_TRUNCATION], strictly
    increasing; returns the ladder as ints, ValueError otherwise."""
    for n in ns:
        if not float(n).is_integer():
            raise ValueError(f"truncations must be integers, got {n}")
    ns = [int(n) for n in ns]
    if not ns or any(not 2 <= n <= MAX_TRUNCATION for n in ns):
        raise ValueError(f"truncations must satisfy 2 <= n <= {MAX_TRUNCATION}, got {ns}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"truncations must be strictly increasing, got {ns}")
    return ns


def _rows(ps: list[PolynomialSymbol], hbars: list[float],
          ns: list[int]) -> tuple[list[PolynomialSymbol], list[bool], list[int]]:
    """Each row's symbol as quantized, whether its rungs are Hermitian and
    its degree (0 for the zero symbol), after the gates, row by row, before
    any coefficient is computed, on the ladder ns that _check_truncations
    returned: a top rung of more than MAX_DENSE_DIM rows, or a symbol of
    degree above MAX_DEGREE, raises ResourceLimitError.  Hermiticity is decided here, on
    the symbol: a non-finite coefficient raises NonHermitianError; a symbol
    with max|Im c| <= HERMITICITY_TOL max|c| is quantized by its real part
    and its rungs are marked hermitian, the rungs of any other are not
    (lowest_eigenvalue and _walk refuse them)."""
    rows, hermitian, degrees = [], [], []
    for p, hbar in zip(ps, hbars):
        if p.d > MAX_MODES:
            raise DimensionMismatch(f"quantization supports d <= {MAX_MODES}, got d={p.d}")
        if not 0 < hbar < math.inf:
            raise ValueError(f"hbar must be positive and finite, got {hbar}")
        dim = ns[-1] ** p.d
        if dim > MAX_DENSE_DIM:
            raise ResourceLimitError(
                f"d={p.d}, N={ns[-1]} needs a dense block of dimension {dim}, above the "
                f"limit {MAX_DENSE_DIM} (d=2 runs up to N=64 until a sparse path exists)"
            )
        degree = max(p.degree(), 0)
        if degree > MAX_DEGREE:
            raise ResourceLimitError(f"symbol degree {degree} is above the limit {MAX_DEGREE}")
        if not p.is_finite():
            raise NonHermitianError(
                "symbol has a non-finite coefficient: its matrix is not Hermitian")
        real = p.is_real()
        if not real and (max(abs(c.imag) for c in p.terms.values())
                         <= HERMITICITY_TOL * p.max_abs()):  # near-real: drop Im c
            p, real = PolynomialSymbol(p.d, {i: c.real for i, c in p.terms.items()}), True
            degree = max(p.degree(), 0)
        rows.append(p)
        hermitian.append(real)
        degrees.append(degree)
    return rows, hermitian, degrees


def weyl_quantize(p: PolynomialSymbol, hbar: float, n: int) -> OperatorMatrix:
    """Weyl quantization of p on the leading N^d Fock block.

    Parameters
    ----------
    p : PolynomialSymbol
        Polynomial symbol in d <= 2 transverse modes.
    hbar : float
        Positive semiclassical parameter.
    n : int
        Per-mode truncation, 2 <= n <= 256.

    Returns
    -------
    OperatorMatrix with exact entries of the infinite matrix on the
    block, built on first read from bands of size n.

    See _rows for the gates and the Hermiticity rule.  The rung is marked
    with the parity sectors the symbol conserves (one, the whole block, if
    none).
    """
    (n,) = _check_truncations([n])
    (p,), (hermitian,), _ = _rows([p], [hbar], [n])
    exponents, coefficients = _terms(p)
    plan, coefficients = _coefficients(p.d, exponents, [coefficients], [hbar])
    return OperatorMatrix(p.d, n, hbar, hermitian, plan.kind, _bands(plan, coefficients, n))


_NOT_HERMITIAN = "the symbol has complex coefficients: its matrix is not Hermitian"


def lowest_eigenvalue(m: OperatorMatrix) -> float:
    """Smallest eigenvalue of a quantized symbol (weyl_quantize, or a
    truncation_sweep's matrix); anything else, a plain array included,
    raises TypeError.

    A rung is Hermitian exactly when its symbol is real, as _rows
    decided: a rung of a complex symbol raises NonHermitianError before
    any block is built, and no block of a real one is scanned.

    Every rung is solved by sector, a symbol without parity being one: the
    first sector block takes eigvalsh, rho.  Each other sector is first
    bounded by its Gershgorin discs, read off the bands (_discs; see the
    module docstring): if every disc lies above rho + 1e-10 max_i (|D_i| +
    R_i), the sector lies above rho + eta and is never written.  Otherwise
    its block B takes one Cholesky factorization of B - (rho + eta) I,
    eta = 1e-10 max_i sum_j |B_ij|, by super-blocks of consecutive levels
    of the last mode (_factors).  The block factorization is backward
    stable like the dense one, with an error of about dim eps |B| (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 10), and
    so is eigvalsh; eta is hundreds of times that, so either certificate
    shows that eigvalsh(B) lies above rho; a failed Cholesky certificate
    sets rho = min(rho, eigvalsh(B)[0]).  The bottom is thus the minimum of
    eigvalsh over the sector blocks, bit for bit: the certificates only
    decide which blocks need no eigvalsh.  A rung whose discs are all
    points (R_i = 0: a diagonal rung, such as a radial symbol's) is read
    off them, its least diagonal entry, with no block written: the same
    bits, except on a block so large or small that eigvalsh rescales it
    (see the module docstring).  The solve is _bottoms on a batch
    of one, whose one pass over each written sector makes these decisions;
    along a ladder (_walk) that pass also takes certified inverse
    iteration (see the module docstring).
    """
    if not isinstance(m, OperatorMatrix):
        raise TypeError(f"lowest_eigenvalue needs an OperatorMatrix from the quantizer, "
                        f"got {type(m).__name__}")
    if not m.hermitian:
        raise NonHermitianError(_NOT_HERMITIAN)
    return _bottoms(m._stack, m.d, m.n, m._parity, [None], 0)[0][0]


def _margin(block: np.ndarray):
    """The certificate margin eta = 1e-10 max_i sum_j |B_ij| of a block, or
    of each block of a stack."""
    return 1e-10 * np.abs(block).sum(axis=-1).max(axis=-1)


def _bottoms(bands: list[tuple], d: int, n: int, kind: str | None,
             hints: list[float | None], first: int) -> list[tuple[float, int]]:
    """(lowest_eigenvalue, the sector that holds it) of each row of a rung
    whose bands are stacked over the rows (axis 0), where every row solves
    the sector `first` first, then the others in order (see
    lowest_eigenvalue); hints[r] is the bottom of row r's rung before, held
    by `first`, or None.

    The discs of a rung of more than one sector are read once.  Where
    every radius of every row is 0 (each rung diagonal), each row's
    (bottom, sector) is the least (min of D_i over sector v, v) over the
    sectors, the bottom a Python float, and nothing is written or solved;
    a batch that mixes diagonal and other rows takes the path below.  A
    sector is written once, stacked over the rows that take it: the first
    for all rows, each other for the rows whose discs do not certify it at
    their bottom so far.  One pass over the written rows settles what it
    can: a row with a hint iterates in the first sector where it has more
    than two super-blocks, and a row of any other takes _factors at its
    bottom so far plus its block's _margin.  The rows left take one
    stacked eigvalsh, which gives each the bits it gets alone."""
    # the largest offset of the last mode's diagonals (mode 1 at d = 1)
    width = max(abs(k) for k2, _, ks, _ in bands for k in (ks if d == 1 else (k2,)))
    best: list = [None] * len(hints)  # each row's (bottom, sector) so far
    sectors = _sectors(d, n, kind)
    discs = _discs(bands, d, n) if len(sectors) > 1 else None
    order = [first] + [v for v in range(len(sectors)) if v != first]
    if discs is not None and not discs[1].any():  # every disc a point: each rung is diagonal
        return [min((float(centre[sectors[v]].min()), v) for v in order) for centre in discs[0]]
    for v in order:
        rows = list(range(len(hints)))  # the rows whose sector v is written
        if v != first:  # certified at each row's bottom so far by the discs, else written
            centre, radius = (part[:, sectors[v]] for part in discs)
            floor = [value for value, _ in best] + 1e-10 * (np.abs(centre) + radius).max(axis=1)
            certified = (centre - radius).min(axis=1) > floor
            rows = [i for i in rows if not certified[i]]
            if not rows:
                continue
        plan = _super_blocks(d, n, kind, v, width)
        block = _block(bands if len(rows) == len(hints) else _pick(bands, rows), d, n, kind, v)
        dense = []  # the rows of block that take eigvalsh
        for j, i in enumerate(rows):
            if v != first:  # certified above the row's bottom so far, or solved
                if _factors(block[j], best[i][0] + _margin(block[j]), plan) is not None:
                    continue
            elif hints[i] is not None and len(plan) > 2:  # below, eigvalsh is as fast
                start = np.full(block.shape[-1], block.shape[-1] ** -0.5)
                value = _inverse_iteration(block[j], plan, hints[i], _margin(block[j]), start)
                if value is not None:
                    best[i] = (value, v)
                    continue
            dense.append(j)
        if dense:
            lowest = np.linalg.eigvalsh(block if len(dense) == len(block) else block[dense])
            for j, value in zip(dense, lowest[:, 0].tolist()):
                i = rows[j]
                best[i] = (value, v) if best[i] is None else min(best[i], (value, v))
    return best


@dataclass
class TruncationSweep:
    """Lowest eigenvalues across nested truncations.

    Compression makes the values nonincreasing in N; an increase beyond
    1e-10 is rejected at construction as an exactness bug.  `matrix` is
    the quantized matrix at the largest N.
    """

    truncations: list[int]
    values: list[float]
    matrix: OperatorMatrix | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.truncations) != len(self.values):
            raise ValueError("truncations and values must have equal length")
        if any(b <= a for a, b in zip(self.truncations, self.truncations[1:])):
            raise ValueError(f"truncations must be strictly increasing, got {self.truncations}")
        for i in range(1, len(self.values)):
            rise = self.values[i] - self.values[i - 1]
            if rise > MONOTONICITY_TOL:
                raise MonotonicityError(
                    f"lowest eigenvalue rose by {rise:.3e} from N={self.truncations[i - 1]} "
                    f"to N={self.truncations[i]}; quantizer exactness is broken"
                )

    @property
    def last_gap(self) -> float:
        if len(self.values) < 2:
            return float("inf")
        return abs(self.values[-1] - self.values[-2])

    @property
    def lambda_min(self) -> float:
        return self.values[-1]


def _walk(ps: list[PolynomialSymbol], hbars: list[float], ns: list[int],
          escalate: bool = False) -> list[tuple[TruncationSweep, bool]]:
    """The one truncation walk: the lowest eigenvalue of quantize(p, hbar)
    for each row (p, hbar) of a batch at the rungs of one ladder, as
    (sweep, converged) per row.  ns is held to the ladder rule by
    _check_truncations, and the walk runs on the ints it returns.

    Without escalate every row solves every rung of ns (converged is
    True).  With escalate, ns is extended by doubling up to MAX_TRUNCATION
    and a row stops at the first rung whose value lies within
    CONVERGENCE_REL |lambda| + CONVERGENCE_ABS of the previous rung's.  A
    gap only counts when the two truncations differ by more than the
    symbol degree: the matrix couples Fock levels at most deg apart, so
    closer pairs can sit on a parity plateau that mimics convergence.
    converged is False when the cap is reached first.

    Rows with the same monomials (the folds of one graded symbol, say) walk
    together: one coefficient stage with per-row weights, then per rung the
    stacked solve of _bottoms for the rows still walking, one call for the
    rows whose last bottoms lie in the same sector (all of them, as a
    rule), the rung solve that lowest_eigenvalue makes on one rung; a row
    drops out where it stops.  The gates read the extended ladder first.
    Bands built at the top of the given ladder serve every rung up to it
    (a rung's entries are the leading block of any larger one), and each
    rung past it builds its own.  Each row's rungs pass the monotonicity
    gate of TruncationSweep, which keeps its last matrix.
    """
    ns = _check_truncations(ns)
    top = ns[-1]
    while escalate and ns[-1] * 2 <= MAX_TRUNCATION:
        ns.append(ns[-1] * 2)
    ps, hermitian, degrees = _rows(ps, hbars, ns)
    terms = [_terms(p) for p in ps]
    batches: dict[tuple, list[int]] = {}
    for r, (exponents, _) in enumerate(terms):
        batches.setdefault(exponents, []).append(r)
    walks: list = [None] * len(ps)
    for exponents, rows in batches.items():
        p, degree = ps[rows[0]], degrees[rows[0]]
        plan, coefficients = _coefficients(p.d, exponents, [terms[r][1] for r in rows],
                                           [hbars[r] for r in rows])
        if not all(hermitian[r] for r in rows):
            raise NonHermitianError(_NOT_HERMITIAN)
        values: dict[int, list[float]] = {r: [] for r in rows}
        held = dict.fromkeys(rows, 0)
        size = 0
        for i, n in enumerate(ns):
            if n > size:  # bands at the given ladder's top serve every rung up to it
                size = max(n, top)
                bands = _bands(plan, coefficients, size)
            solved: list = [None] * len(rows)
            for first in dict.fromkeys(held[r] for r in rows):  # rows whose bottoms share a sector
                group = [j for j, r in enumerate(rows) if held[r] == first]
                stack = bands if len(group) == len(rows) else _pick(bands, group)
                hints = [values[rows[j]][-1] if values[rows[j]] else None for j in group]
                for j, found in zip(group, _bottoms(stack, p.d, n, plan.kind, hints, first)):
                    solved[j] = found
            going = []
            for j, (r, (value, v)) in enumerate(zip(rows, solved)):
                found, held[r] = values[r], v
                found.append(value)
                converged = bool(escalate and i and ns[i] - ns[i - 1] > degree
                                 and abs(value - found[-2])
                                 < CONVERGENCE_REL * abs(value) + CONVERGENCE_ABS)
                if converged or i == len(ns) - 1:
                    rung = OperatorMatrix(p.d, n, hbars[r], hermitian[r], plan.kind,
                                          _pick(bands, [j]))
                    walks[r] = (ns[:i + 1], found, rung, converged or not escalate)
                else:
                    going.append(j)
            if not going:
                break
            if len(going) < len(rows):
                rows = [rows[j] for j in going]
                bands, coefficients = _pick(bands, going), coefficients[:, going]
    return [(TruncationSweep(used, found, matrix=rung), converged)
            for used, found, rung, converged in walks]


def truncation_sweep(p: PolynomialSymbol, hbar: float, ns: list[int]) -> TruncationSweep:
    """Lowest eigenvalue of quantize(p, hbar) at each truncation in ns.

    One ladder, the walk of a batch of one row: bands built once at the
    largest N serve every rung; the result keeps the top rung's matrix,
    whose entries are built on first read.
    """
    return _walk([p], [hbar], ns)[0][0]


def conjugation_residual(p: GradedSymbol, lam: float, n: int) -> float:
    """Relative max-norm residual of the scaling conjugation identity.

    quantize(fold(p, Lambda), hbar=1/Lambda) must equal
    quantize(scale_symbol(p) folded at Lambda, hbar=1) on the exact
    block; the identity is algebraic, so the residual is pure roundoff.
    """
    left = weyl_quantize(p.fold(lam), 1.0 / lam, n).entries
    right = weyl_quantize(scale_symbol(p).fold(lam), 1.0, n).entries
    scale = max(np.abs(left).max(), np.abs(right).max())
    if scale == 0.0:
        return 0.0
    return float(np.abs(left - right).max() / scale)
