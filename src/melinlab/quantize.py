"""Weyl quantization of polynomial symbols as finite Fock-basis matrices.

The basis is the tensor Hermite (Fock) basis adapted to hbar: the
ladder operators satisfy [a, a+] = 1 and the coordinate operators are

    yhat   = sqrt(hbar/2) (a + a+)
    etahat = i sqrt(hbar/2) (a+ - a)

so [yhat, etahat] = i*hbar: the Fock basis of the isotropic vacuum.
This module quantizes every symbol as given, in that basis; localize and
lambda_sweep first pull a d = 1 graded symbol back to the frame of its
lead's best Gaussian (see melinlab.localize), a unitarily equivalent
operator whose ladder converges sooner.  A monomial is quantized by
peeling factors through the exact Jordan recursion

    quantize(y_s * q) = (yhat_s @ Q + Q @ yhat_s) / 2

which reproduces Weyl ordering because y_s # q + q # y_s = 2 y_s q for
linear factors.  Ladder matrices couple adjacent levels only, so
computing at internal size N + deg(p) per mode and keeping the leading
N-block yields the exact entries of the infinite matrix; truncation is
then a compression, and lowest eigenvalues are nonincreasing in N.

The same coupling bound makes the single-mode matrix of y^a eta^b
banded, with 2(a+b) + 1 nonzero diagonals, so the recursion runs on
diagonals: O(size * deg^2) per monomial instead of dense O(size^3)
products.  Every quantized matrix comes from one truncation ladder:
the bands are peeled once at the top rung's internal size, and a rung
writes the Kronecker products of those bands (one per distinct
second-mode factor; a single one for d = 1) only when read or solved.
weyl_quantize is the one-rung ladder, and _walk alone solves rungs.

Real arithmetic.  Each term c y^a eta^b enters the block with the weight
c i^|b| (|b| the total eta-degree) times the real hbar-scaled bands of
its factors: the phase i^b_s of every factor moves into the weight.  When
every weight is real, which the ladder reads once from the exponents,
the bands and the block are float64 and eigvalsh runs the real symmetric
solver; otherwise they are complex.  Real-coefficient symbols even in
eta take the real path, and so does eta_1 eta_2, whose two imaginary
factors multiply to a real one (in the Fock basis complex conjugation
sends Weyl(p(y, eta)) to Weyl(p(y, -eta))).

Hermiticity is decided on the symbol, never on a block: Weyl(p)^* =
Weyl(conj p) and quantization is injective (Folland, Harmonic Analysis
in Phase Space, 1989, ch. 2), so Weyl(p) is self-adjoint exactly when
every coefficient of p is real.  _ladder applies that rule once per
ladder, and no block is scanned.

Band cache.  The Weyl matrix of y^a eta^b is (hbar/2)^((a+b)/2) i^b R
with a real band R that does not depend on hbar, so R is peeled once
per process: _real_band caches it by (a, b, size), read-only, and keeps
the _BAND_CACHE_SIZE = 128 most recently used.  A band holds
(2(a+b) + 1) * size doubles, at most 35.9 KB for degree <= 8 at
N <= 256 (size <= 264), so 4.6 MB for the full cache; in general 128
bands of the largest degree and size peeled.  Each use multiplies R by
the hbar factor, the same final operation as an uncached peel.

Parity sectors.  The Weyl matrix of y_s^a eta_s^b changes n_s by
amounts of the parity of a + b, so a symbol whose monomials all have
even degree in every mode commutes with each (-1)^{N_s}, and one whose
monomials all have even total degree commutes with (-1)^{N_1 + N_2}.
The ladder reads this from the exponents and marks each rung with its
sector index sets (2^d sectors split by the parity of each n_s, 2 by
that of n_1 + n_2, or, without parity, one: the whole block); entries
between sectors are exactly zero.  Every rung is solved by sector, each
block written straight from the bands (see _block): lowest_eigenvalue
solves one and certifies the others by Cholesky.  A sector lists its
rows by flat index n_1 + N n_2, in runs of equal level of its last mode
(n_1 at d = 1, n_2 at d = 2), and two rows couple only when those
levels differ by at most W, that mode's band half-width.  So the
certificate is a right-looking block Cholesky (Golub and Van Loan,
Matrix Computations, 4th ed., 4.3-4.5) over super-blocks of whole runs,
of at least _SUPER_BLOCK = 32 rows.  The window rule: a super-block's
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
and symbols of total degree at most MAX_DEGREE = 32 (a degree-32 band
peels in milliseconds at N = 256 and its entries stay far below
overflow, also in d = 2 products).  A ladder beyond either limit raises
ResourceLimitError before anything is peeled or allocated, so the
default d = 2 ladder (32, 64, 128) is rejected until a sparse path
exists.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterator

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
_BAND_CACHE_SIZE = 128
_SUPER_BLOCK = 32
_INVERSE_ITERATIONS = 8
HERMITICITY_TOL = 1e-12
MONOTONICITY_TOL = 1e-10
CONVERGENCE_REL = 1e-8
CONVERGENCE_ABS = 1e-12


class OperatorMatrix:
    """A quantized symbol on the leading N^d Fock block: a rung of _ladder.

    Basis ordering is lexicographic over per-mode levels with mode 1
    fastest: flat index = n_1 + N*n_2 + ...  Entries are exact values of
    the infinite matrix (up to roundoff) thanks to internal padding,
    float64 when every weight c i^|b| is real, complex128 otherwise; the
    rung builds them from its bands on first read.
    """

    def __init__(self, d: int, n: int, hbar: float, pad: int, hermitian: bool,
                 parity: str | None, bands: list[tuple[np.ndarray, np.ndarray]]):
        self.d, self.n, self.hbar, self.pad = d, n, hbar, pad
        # whether the symbol is real (its blocks Hermitian), the flat indices of the
        # parity sectors (no entry couples two), their kind and the ladder's bands
        self.hermitian, self._parity, self._bands = hermitian, parity, bands
        self.sectors = _sectors(d, n, parity)
        self._entries = None

    @property
    def dim(self) -> int:
        return self.n ** self.d

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            self._entries = _block(self._bands, self.d, self.n)
        return self._entries


# Single-mode factor matrices are held in band storage: row W + k of a
# (2W + 1, size) array holds the k-th diagonal, band[W + k, i] = M[i, i + k],
# zero where i + k falls outside the matrix.  The Weyl matrix of
# y^a eta^b is a polynomial of degree W = a + b in the ladder operators,
# so it couples levels at most W apart and fits this band exactly.
#
# Peeling runs on the real matrix R with M = s^W i^b R, s = sqrt(hbar/2):
# yhat = s S and etahat = i s T with the real tridiagonal
# S[m, m+1] = S[m+1, m] = sqrt(m+1) and T = -T^T, T[m+1, m] = sqrt(m+1).
# With g[m] = sqrt(m) (zero outside 1 <= m < size), a step
# R -> (X @ R + R @ X) / 2 with X in {S, T} reads, entrywise,
#
#   2 R'[i, j] = sigma (g[i+1] R[i+1, j] + g[j] R[i, j-1])
#                     + (g[i] R[i-1, j] + g[j+1] R[i, j+1])
#
# (sigma = +1 for S, -1 for T): each output diagonal k mixes diagonals
# k - 1 and k + 1 with sqrt weights.  A real monomial quantizes to a
# Hermitian M, i.e. R^T = (-1)^b R; each step averages R' with its signed
# transpose, band[W + k, i] <- (band[W + k, i] + tau band[W - k, i + k]) / 2,
# which is the Hermitian average of M in band form and keeps the final
# matrix exactly Hermitian.

_PHASES = (1.0, 1j, -1.0, -1j)


@functools.lru_cache(maxsize=_BAND_CACHE_SIZE)
def _real_band(ypow: int, epow: int, size: int) -> np.ndarray:
    """The real band R of y^ypow eta^epow (W = ypow + epow >= 1); it does
    not depend on hbar, and it is read-only because every caller shares it.
    R must be exactly symmetric for even epow and antisymmetric for odd
    epow on its in-matrix positions, else NonHermitianError (a NaN fails).

    Jordan peeling quantize(x q) = (xhat Q + Q xhat) / 2 on diagonals,
    O(size W) per step, W steps, with the weights lo[i] = g[i],
    up[i] = g[i+1] and col[r, i] = g[i + r - W - 1] for r in 0..2W+2.
    flip holds the flat indices into the zero-padded (2W+3, size+2) work
    array that read the transposed band (out-of-matrix positions read
    the zero corner).
    """
    width = ypow + epow

    def g(m: np.ndarray) -> np.ndarray:
        inside = (m >= 1) & (m < size)
        return np.where(inside, np.sqrt(np.where(inside, m, 0)), 0.0)

    i = np.arange(size)
    lo, up = g(i), g(i + 1)
    col = g(i[None, :] + np.arange(2 * width + 3)[:, None] - width - 1)
    k = np.arange(2 * width + 1)[:, None] - width
    j = i[None, :] + k
    inside = (j >= 0) & (j < size)
    flip = np.where(inside, (width - k + 1) * (size + 2) + j + 1, 0)
    work = np.zeros((2 * width + 3, size + 2))  # band inside a ring of zeros
    band = work[1:-1, 1:-1]
    band[width] = 1.0
    below, above = work[:-2], work[2:]
    for step in range(width):
        sigma = 1.0 if step < ypow else -1.0
        from_below = up * below[:, 2:] + col[1:-1] * below[:, 1:-1]
        from_above = lo * above[:, :-2] + col[2:] * above[:, 1:-1]
        new = 0.5 * (sigma * from_below + from_above)
        band[...] = new
        etas = step + 1 - ypow
        tau = -1.0 if etas > 0 and etas % 2 else 1.0
        band[...] = 0.5 * (new + tau * work.take(flip))
    if not (band[inside] == tau * work.take(flip)[inside]).all():  # tau is (-1)^epow
        raise NonHermitianError(f"the band of y^{ypow} eta^{epow} is not exactly "
                                f"{'anti' if tau < 0 else ''}symmetric")
    band = band.copy()
    band.setflags(write=False)
    return band


def _scaled_band(ypow: int, epow: int, hbar: float, size: int) -> np.ndarray:
    """The real band (hbar/2)^(W/2) R of y^ypow eta^epow (ones for W = 0):
    the single-mode Weyl matrix with its phase i^epow left out."""
    width = ypow + epow
    if width == 0:
        return np.ones((1, size))
    return (hbar / 2.0) ** (width / 2.0) * _real_band(ypow, epow, size)


@functools.lru_cache(maxsize=64)
def _block_geometry(band_shape: tuple[int, int], n: int, row_stride: int, col_stride: int):
    """(source, offsets) of the entries of a band that fall in its leading
    n x n block: the entry (i, j) is band.flat[source] and sits at offset
    i * row_stride + j * col_stride of the dense result."""
    rows, size = band_shape
    r = np.arange(rows)[:, None]
    i = np.arange(n)[None, :]
    j = i + r - rows // 2
    inside = (j >= 0) & (j < n)
    source = (r * size + i)[inside]
    offsets = (i * row_stride + j * col_stride)[inside]
    source.setflags(write=False)
    offsets.setflags(write=False)
    return source, offsets


def _parity_kind(p: PolynomialSymbol) -> str | None:
    """The Fock parities the Weyl operator of p conserves: "mode" if
    every monomial has even degree in each mode, else "total" if every
    monomial has even total degree, else None."""
    degrees = p.mode_degrees()
    if not (degrees % 2).any():
        return "mode"
    if not (degrees.sum(axis=1) % 2).any():
        return "total"
    return None


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


@_silent
def _bands(p: PolynomialSymbol, hbar: float, size: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Band stage of the ladder: per distinct mode-2 factor, its real scaled
    band and the summed mode-1 bands it multiplies, at per-mode internal
    size `size` (each real band peeled once per process).  A term's phases
    i^b1 i^b2 go into its weight c i^|b|, so the summed band is float64
    when every weight is real and complex otherwise.  Sums past a double
    give inf or NaN without a warning; _ladder's entry bound refuses them."""
    factors: dict[tuple[int, int], list[tuple[int, int, complex]]] = {}
    for idx, coeff in p.iter_terms():
        # (mode-1, mode-2) exponents; at d = 1 the mode-2 factor is y^0 eta^0
        ys, es = idx[:p.d] + (0,), idx[p.d:] + (0,)
        weight = coeff * _PHASES[(es[0] + es[1]) % 4]
        factors.setdefault((ys[1], es[1]), []).append((ys[0], es[0], weight))
    real = all(w.imag == 0.0 for terms in factors.values() for _, _, w in terms)
    bands = []
    for (a2, b2), terms in factors.items():
        width = max(a + b for a, b, _ in terms)
        summed = np.zeros((2 * width + 1, size), dtype=float if real else complex)
        for a, b, w in terms:
            summed[width - a - b : width + a + b + 1] += (
                (w.real if real else w) * _scaled_band(a, b, hbar, size))
        bands.append((_scaled_band(a2, b2, hbar, size ** (p.d - 1)), summed))
    return bands


def _block(bands: list[tuple[np.ndarray, np.ndarray]], d: int, n: int, kind: str | None = None,
           v: int = 0) -> np.ndarray:
    """Block stage of the ladder: the summed Kronecker products of the
    (mode-2, mode-1) band pairs on the leading n^d block (mode 1 fastest)
    or on its parity sector v of the given kind, read-only, of the summed
    bands' dtype (float64 for no bands), unchecked: _ladder decides
    Hermiticity on the symbol.  Sector (p1, p2) = (v & 1, v >> 1) of the
    per-mode kind is the same write of every second column from p_s and
    the even band rows (the odd ones are zero); a total-parity sector
    keeps the products inside it; at d = 1 the mode-2 factor is the
    constant (1, 1) band, a scale of one gather."""
    n1, n2 = n, n ** (d - 1)
    if kind == "mode":
        p1, p2 = v & 1, v >> 1
        bands = [(b2[::2, p2::2], b1[::2, p1::2]) for b2, b1 in bands]
        n1, n2 = len(range(p1, n1, 2)), len(range(p2, n2, 2))
    dim = size = n1 * n2
    if kind == "total":  # the local index of each flat index in sector v, else -1
        sector = _sectors(d, n, kind)[v]
        size, local = len(sector), np.full(dim, -1)
        local[sector] = np.arange(size)
    out = np.zeros((size, size), dtype=bands[0][1].dtype if bands else float)
    flat = out.reshape(-1)
    for band2, band1 in bands:
        src1, off1 = _block_geometry(band1.shape, n1, dim, 1)
        if d == 1:  # the mode-2 factor is the constant (1, 1) band
            place, products = off1, band2[0, 0] * band1.take(src1)
        else:
            src2, off2 = _block_geometry(band2.shape, n2, n1 * dim, n1)
            place = np.add.outer(off2, off1)
            products = np.multiply.outer(band2.take(src2), band1.take(src1))
        if kind == "total":
            row, col = local[place // dim], local[place % dim]
            inside = (row >= 0) & (col >= 0)
            place, products = row[inside] * size + col[inside], products[inside]
        flat[place] += products
    out.setflags(write=False)
    return out


def _check_truncations(ns: list[int]) -> None:
    """The ladder rule: at least one truncation, each in [2, MAX_TRUNCATION],
    strictly increasing; ValueError otherwise."""
    if not ns or any(not 2 <= n <= MAX_TRUNCATION for n in ns):
        raise ValueError(f"truncations must satisfy 2 <= n <= {MAX_TRUNCATION}, got {ns}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"truncations must be strictly increasing, got {ns}")


def _ladder(p: PolynomialSymbol, hbar: float, ns: list[int]) -> Iterator[OperatorMatrix]:
    """Quantize p at each truncation of the strictly increasing ns.

    The band stage runs once, at per-mode size ns[-1] + deg(p); a rung
    builds a block only to read or solve it, so stopping early never
    allocates a larger one.  Blocks are float64 when every term's weight
    c i^|b| is real, else complex.  Hermiticity is decided here, on the
    symbol: a non-finite coefficient raises NonHermitianError; a symbol
    with max|Im c| <= HERMITICITY_TOL max|c| is quantized by its real part
    and its rungs are marked hermitian, the rungs of any other are not
    (_bottom refuses them).  A real symbol's weights c i^(b1+b2) match the
    symmetry (-1)^b of its real bands, so mirrored entries are the same
    sums of exactly negated or conjugated terms, if every sum is finite:
    a ladder whose entry bound, the sum of max|band2| max|band1| over band
    pairs, is not below finfo(float).max / 2 raises ResourceLimitError.
    Every rung is marked with the parity sectors the symbol conserves
    (one, the whole block, if none).  A top rung of more than MAX_DENSE_DIM
    rows, or a symbol of degree above MAX_DEGREE, raises ResourceLimitError
    before any band is peeled.
    """
    if p.d > MAX_MODES:
        raise DimensionMismatch(f"quantization supports d <= {MAX_MODES}, got d={p.d}")
    if not 0 < hbar < math.inf:
        raise ValueError(f"hbar must be positive and finite, got {hbar}")
    _check_truncations(ns)
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
        raise NonHermitianError("symbol has a non-finite coefficient: its matrix is not Hermitian")
    hermitian = p.is_real()
    if not hermitian and (max(abs(c.imag) for c in p.terms.values())
                          <= HERMITICITY_TOL * p.max_abs()):  # near-real: drop Im c
        p, hermitian = PolynomialSymbol(p.d, {i: c.real for i, c in p.terms.items()}), True
    size = ns[-1] + max(p.degree(), 0)
    bands = _bands(p, hbar, size)
    bound = sum(float(np.abs(b2).max()) * float(np.abs(b1).max()) for b2, b1 in bands)
    if not bound < np.finfo(float).max / 2:
        raise ResourceLimitError(f"matrix entries may overflow: their bound {bound:.3e} is not "
                                 f"below the overflow limit {np.finfo(float).max / 2:.3e}")
    kind = _parity_kind(p)
    for n in ns:
        yield OperatorMatrix(p.d, n, hbar, size - n, hermitian, kind, bands)


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
    block, built on first read from bands at per-mode size n + deg(p).
    """
    return next(_ladder(p, hbar, [n]))


def lowest_eigenvalue(m: OperatorMatrix) -> float:
    """Smallest eigenvalue of a quantized symbol (weyl_quantize, or a
    truncation_sweep's matrix); anything else, a plain array included,
    raises TypeError.

    A rung is Hermitian exactly when its symbol is real, as _ladder
    decided: a rung of a complex symbol raises NonHermitianError before
    any block is built, and no block of a real one is scanned.

    Every rung is solved by sector, a symbol without parity being one: the
    first sector block takes eigvalsh, rho, and each other block B one
    Cholesky factorization of B - (rho + eta) I, eta = 1e-10 max_i sum_j
    |B_ij|, by super-blocks of consecutive levels of the last mode
    (_factors; see the module docstring).  The block factorization is
    backward stable like the dense one, with an error of about dim eps |B|
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    ch. 10), and so is eigvalsh; eta is hundreds of times that, so success
    shows that eigvalsh(B) lies above rho; failure sets rho = min(rho,
    eigvalsh(B)[0]).  The bottom is thus the minimum of eigvalsh over the
    sector blocks, bit for bit: the certificates only decide which blocks
    need no eigvalsh.  Along a ladder (_walk), the sector that held the
    bottom of the rung before is solved first, and where it has more than
    two super-blocks by certified inverse iteration from that bottom,
    falling back to eigvalsh (see the module docstring for its accuracy).
    """
    if not isinstance(m, OperatorMatrix):
        raise TypeError(f"lowest_eigenvalue needs an OperatorMatrix from the quantizer, "
                        f"got {type(m).__name__}")
    return _bottom(m, None, 0)[0]


def _margin(block: np.ndarray) -> float:
    """The certificate margin eta = 1e-10 max_i sum_j |B_ij| of a block."""
    return 1e-10 * np.abs(block).sum(axis=1).max()


def _bottom(m: OperatorMatrix, hint: float | None, first: int) -> tuple[float, int]:
    """(lowest_eigenvalue of the rung m, the sector that holds it), with hint
    the bottom of the rung before m, held by its sector first, which is
    solved first, or None (see lowest_eigenvalue)."""
    if not m.hermitian:
        raise NonHermitianError("the symbol has complex coefficients: its matrix is not Hermitian")
    # the band half-width of the last mode: mode 1's summed band at d = 1
    width = max(((pair[2 - m.d].shape[0] - 1) // 2 for pair in m._bands), default=0)
    values = []
    for v in [first] + [v for v in range(len(m.sectors)) if v != first]:
        block = _block(m._bands, m.d, m.n, m._parity, v)
        plan = _super_blocks(m.d, m.n, m._parity, v, width)
        if values:
            if _factors(block, min(values)[0] + _margin(block), plan) is not None:
                continue
        elif hint is not None and len(plan) > 2:  # below, eigvalsh is as fast
            start = np.full(len(block), len(block) ** -0.5)
            value = _inverse_iteration(block, plan, hint, _margin(block), start)
            if value is not None:
                values.append((value, v))
                continue
        values.append((float(np.linalg.eigvalsh(block)[0]), v))
    return min(values)


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
                    f"to N={self.truncations[i]}; padding exactness is broken"
                )

    @property
    def last_gap(self) -> float:
        if len(self.values) < 2:
            return float("inf")
        return abs(self.values[-1] - self.values[-2])

    @property
    def lambda_min(self) -> float:
        return self.values[-1]


def _walk(p: PolynomialSymbol, hbar: float, ns: list[int],
          escalate: bool = False) -> tuple[TruncationSweep, bool]:
    """The one truncation walk: the lowest eigenvalue of quantize(p, hbar)
    at the rungs of one ladder, as (sweep, converged).

    Without escalate it solves every rung of ns (converged is True).
    With escalate, ns is extended by doubling up to MAX_TRUNCATION and
    the walk stops at the first rung whose value lies within
    CONVERGENCE_REL |lambda| + CONVERGENCE_ABS of the previous rung's.
    A gap only counts when the two truncations differ by more than the
    symbol degree: the matrix couples Fock levels at most deg apart, so
    closer pairs can sit on a parity plateau that mimics convergence.
    converged is False when the cap is reached first.  The bands are
    peeled once, at the top of the extended ladder, and no rung past the
    stop is built.  The visited rungs pass the monotonicity gate of
    TruncationSweep, which keeps the last one's matrix.
    """
    ns = [int(v) for v in ns]
    while escalate and ns[-1] * 2 <= MAX_TRUNCATION:
        ns.append(ns[-1] * 2)
    span = max(p.degree(), 0) + 1
    values, held, converged = [], 0, not escalate
    for i, rung in enumerate(_ladder(p, hbar, ns)):
        value, held = _bottom(rung, values[-1] if values else None, held)
        values.append(value)
        if (escalate and i and ns[i] - ns[i - 1] >= span
                and abs(values[i] - values[i - 1])
                < CONVERGENCE_REL * abs(values[i]) + CONVERGENCE_ABS):
            converged = True
            break
    return TruncationSweep(ns[:i + 1], values, matrix=rung), converged


def truncation_sweep(p: PolynomialSymbol, hbar: float, ns: list[int]) -> TruncationSweep:
    """Lowest eigenvalue of quantize(p, hbar) at each truncation in ns.

    One ladder: the bands are peeled once at the largest N and every rung
    solves blocks built from them; the result keeps the top rung's
    matrix, whose entries are built on first read.
    """
    return _walk(p, hbar, ns)[0]


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
