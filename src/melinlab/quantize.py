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
the bands are peeled at the internal size of the top rung the caller
gave, and a rung writes the Kronecker products of those bands (one per
distinct second-mode factor; a single one for d = 1) only when read or
solved.  weyl_quantize is the one-rung ladder, and _walk alone solves rungs.
It walks a batch of rows at once, symbols with the same monomials at
their own hbar (the folds of one graded symbol): one band stage with
per-row weights, then per rung one stacked block write and one stacked
eigvalsh or Cholesky certificate per sector for the rows still walking,
each row with the bits it gets alone.  A row that walks past the given
ladder has its bands peeled again at the cap, exact because a band's
leading N-block is the same at every internal size of at least N + deg.
truncation_sweep, weyl_quantize and lowest_eigenvalue are batches of one.

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
every coefficient of p is real.  _rows applies that rule once per row
of a ladder, and no block is scanned.

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
                 parity: str | None, stack: list[tuple[np.ndarray, np.ndarray]]):
        self.d, self.n, self.hbar, self.pad = d, n, hbar, pad
        # whether the symbol is real (its blocks Hermitian), the flat indices of the
        # parity sectors (no entry couples two), their kind and the ladder's bands,
        # a stack of one (the rung's row of its batch)
        self.hermitian, self._parity, self._stack = hermitian, parity, stack
        self.sectors = _sectors(d, n, parity)
        self._entries = None

    @property
    def dim(self) -> int:
        return self.n ** self.d

    @property
    def _bands(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The (mode-2, mode-1) band pairs of this rung."""
        return [(b2[0], b1[0]) for b2, b1 in self._stack]

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            self._entries = _block(self._stack, self.d, self.n)[0]
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
def _block_geometry(band_shape: tuple[int, ...], n: int, row_stride: int, col_stride: int,
                    stride: int):
    """(source, offsets) of the entries of a band, or of each band of a
    stack (leading axes of band_shape), that fall in its leading n x n
    block, shaped (*stack, entries): the entry (i, j) of band s is
    band.flat[source] and sits at offset s * stride + i * row_stride +
    j * col_stride of the dense result."""
    *stack, rows, size = band_shape
    r = np.arange(rows)[:, None]
    i = np.arange(n)[None, :]
    j = i + r - rows // 2
    inside = (j >= 0) & (j < n)
    s = np.arange(math.prod(stack)).reshape(*stack, 1)
    source = s * (rows * size) + (r * size + i)[inside]
    offsets = s * stride + (i * row_stride + j * col_stride)[inside]
    source.setflags(write=False)
    offsets.setflags(write=False)
    return source, offsets


def _parity_kind(p: PolynomialSymbol) -> str | None:
    """The Fock parities the Weyl operator of p conserves: "mode" if
    every monomial has even degree in each mode, else "total" if every
    monomial has even total degree, else None.  Read from lists: on a few
    terms numpy's per-call cost is most of the work."""
    degrees = p.mode_degrees().tolist()
    if not any(degree % 2 for row in degrees for degree in row):
        return "mode"
    if not any(sum(row) % 2 for row in degrees):
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


def _certified(blocks: np.ndarray, shifts: np.ndarray,
               plan: tuple[tuple[int, int, int], ...]) -> list[bool]:
    """Whether each block of a stack, less its shift, has a Cholesky factor.
    A plan of one super-block, the whole block, takes one stacked Cholesky
    factorization, which gives each block its own bits, and _factors per
    block only where the stack fails; a longer plan takes _factors per
    block, since a stacked panel product does not give the bits of one
    product at a time."""
    if len(plan) == 1:
        work = blocks.copy()
        n = work.shape[-1]
        work.reshape(-1, n * n)[:, ::n + 1] -= shifts[:, None]
        try:
            np.linalg.cholesky(work)
            return [True] * len(blocks)
        except np.linalg.LinAlgError:
            if len(blocks) == 1:
                return [False]
    return [_factors(block, shift, plan) is not None for block, shift in zip(blocks, shifts)]


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
def _bands(ps: list[PolynomialSymbol], hbars: list[float],
           size: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Band stage of a batch of rows, symbols with the same monomials at
    their own hbar: per distinct mode-2 factor, its real scaled bands and
    the summed mode-1 bands they multiply, stacked over the rows (axis 0),
    at per-mode internal size `size` (each real band peeled once per
    process).  A term's phases i^b1 i^b2 go into its per-row weight
    c i^|b|, and each row adds its terms in iter_terms order, so a row gets
    the bits it would get alone; the summed bands are float64 when every
    weight is real and complex otherwise.  Sums past a double give inf or
    NaN without a warning, so every band stage is held to the entry bound:
    a row whose sum of max|band2| max|band1| over band pairs is not below
    finfo(float).max / 2 raises ResourceLimitError."""
    p, count = ps[0], len(ps)
    # the rows' terms, the same monomials in iter_terms order; the zero symbol
    # gets one zero term, so that its blocks stack too
    rows = [list(q.iter_terms()) or [((0,) * 2 * q.d, 0j)] for q in ps]
    weights = [[c * _PHASES[sum(idx[p.d:]) % 4] for idx, c in row] for row in rows]
    real = not any(w.imag for row in weights for w in row)
    factors: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for t, (idx, _) in enumerate(rows[0]):
        # (mode-1, mode-2) exponents; at d = 1 the mode-2 factor is y^0 eta^0
        ys, es = idx[:p.d] + (0,), idx[p.d:] + (0,)
        factors.setdefault((ys[1], es[1]), []).append((ys[0], es[0], t))
    bands, bounds = [], [0.0] * count
    for (a2, b2), terms in factors.items():
        width, size2 = max(a + b for a, b, _ in terms), size ** (p.d - 1)
        summed = np.zeros((count, 2 * width + 1, size), dtype=float if real else complex)
        band2 = (np.empty((count, 2 * (a2 + b2) + 1, size2)) if a2 + b2
                 else np.ones((count, 1, size2)))  # the constant band 1, every band2 at d = 1
        for r, (ws, hbar) in enumerate(zip(weights, hbars)):
            row = summed[r]
            for a, b, t in terms:
                row[width - a - b : width + a + b + 1] += (
                    (ws[t].real if real else ws[t]) * _scaled_band(a, b, hbar, size))
            top2 = 1.0
            if a2 + b2:
                band2[r] = _scaled_band(a2, b2, hbar, size2)
                top2 = float(np.abs(band2[r]).max())
            bounds[r] += top2 * float(np.abs(row).max())
        bands.append((band2, summed))
    for bound in bounds:
        if not bound < np.finfo(float).max / 2:
            raise ResourceLimitError(f"matrix entries may overflow: their bound {bound:.3e} is not "
                                     f"below the overflow limit {np.finfo(float).max / 2:.3e}")
    return bands


def _block(bands: list[tuple[np.ndarray, np.ndarray]], d: int, n: int, kind: str | None = None,
           v: int = 0) -> np.ndarray:
    """Block stage of the ladder: the summed Kronecker products of the
    (mode-2, mode-1) band pairs on the leading n^d block (mode 1 fastest)
    or on its parity sector v of the given kind, read-only, of the summed
    bands' dtype, unchecked: _rows decides Hermiticity on the symbol.
    Bands stacked over rows (leading axes) give the stack of their blocks
    in one write.  Sector (p1, p2) = (v & 1, v >> 1) of the per-mode kind
    is the same write of every second column from p_s and the even band
    rows (the odd ones are zero); a total-parity sector keeps the products
    inside it; at d = 1 the mode-2 factor is the constant band 1, so the
    products are one gather."""
    n1, n2 = n, n ** (d - 1)
    if kind == "mode":
        p1, p2 = v & 1, v >> 1
        bands = [(b2[..., ::2, p2::2], b1[..., ::2, p1::2]) for b2, b1 in bands]
        n1, n2 = len(range(p1, n1, 2)), len(range(p2, n2, 2))
    dim = size = n1 * n2
    if kind == "total":  # the local index of each flat index in sector v, else -1
        sector = _sectors(d, n, kind)[v]
        size, local = len(sector), np.full(dim, -1)
        local[sector] = np.arange(size)
    stack = bands[0][1].shape[:-2]
    out = np.zeros(stack + (size, size), dtype=bands[0][1].dtype)
    flat = out.reshape(-1)
    for band2, band1 in bands:
        if d == 1:  # the mode-2 factor is the constant band 1, a product that changes nothing
            src1, place = _block_geometry(band1.shape, n1, dim, 1, size * size)
            products = band1.take(src1)
        else:  # the outer products of the two factors' entries, block by block
            src1, off1 = _block_geometry(band1.shape, n1, dim, 1, 0)
            src2, off2 = _block_geometry(band2.shape, n2, n1 * dim, n1,
                                         0 if kind == "total" else size * size)
            place = off2[..., :, None] + off1[..., None, :]
            products = band2.take(src2)[..., :, None] * band1.take(src1)[..., None, :]
            if kind == "total":  # the products inside sector v, at their local indices
                row, col = local[place // dim], local[place % dim]
                inside = (row >= 0) & (col >= 0)
                first = np.arange(0, out.size, size * size).reshape(stack + (1, 1))
                place, products = (first + row * size + col)[inside], products[inside]
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


def _rows(ps: list[PolynomialSymbol], hbars: list[float],
          ns: list[int]) -> tuple[list[PolynomialSymbol], list[bool], list[int]]:
    """Each row's symbol as quantized, whether its rungs are Hermitian and
    its degree (0 for the zero symbol), after the gates, row by row, before
    any band is peeled: a top rung of more than MAX_DENSE_DIM rows, or a
    symbol of degree above MAX_DEGREE, raises ResourceLimitError.
    Hermiticity is decided here, on the symbol: a non-finite coefficient
    raises NonHermitianError; a symbol with max|Im c| <= HERMITICITY_TOL
    max|c| is quantized by its real part and its rungs are marked
    hermitian, the rungs of any other are not (_bottom and _walk refuse
    them)."""
    rows, hermitian, degrees = [], [], []
    for p, hbar in zip(ps, hbars):
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


def _ladder(p: PolynomialSymbol, hbar: float, ns: list[int]) -> Iterator[OperatorMatrix]:
    """Quantize p at each truncation of the strictly increasing ns, a batch
    of one row (see _rows for the gates and the Hermiticity rule).

    The band stage runs once, at per-mode size ns[-1] + deg(p); a rung
    builds a block only to read or solve it, so stopping early never
    allocates a larger one.  Blocks are float64 when every term's weight
    c i^|b| is real, else complex.  A real symbol's weights c i^(b1+b2)
    match the symmetry (-1)^b of its real bands, so mirrored entries are
    the same sums of exactly negated or conjugated terms, if every sum is
    finite, which _bands' entry bound ensures.  Every rung is marked with
    the parity sectors the symbol conserves (one, the whole block, if none).
    """
    (p,), (hermitian,), (degree,) = _rows([p], [hbar], ns)
    size = ns[-1] + degree
    bands = _bands([p], [hbar], size)
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


def _margin(block: np.ndarray):
    """The certificate margin eta = 1e-10 max_i sum_j |B_ij| of a block, or
    of each block of a stack."""
    return 1e-10 * np.abs(block).sum(axis=-1).max(axis=-1)


_NOT_HERMITIAN = "the symbol has complex coefficients: its matrix is not Hermitian"


def _bottom(m: OperatorMatrix, hint: float | None, first: int) -> tuple[float, int]:
    """(lowest_eigenvalue of the rung m, the sector that holds it), with hint
    the bottom of the rung before m, held by its sector first, which is
    solved first, or None (see lowest_eigenvalue): _bottoms on one row."""
    if not m.hermitian:
        raise NonHermitianError(_NOT_HERMITIAN)
    return _bottoms(m._stack, m.d, m.n, m._parity, [hint], first)[0]


def _bottoms(bands: list[tuple[np.ndarray, np.ndarray]], d: int, n: int, kind: str | None,
             hints: list[float | None], first: int) -> list[tuple[float, int]]:
    """(lowest_eigenvalue, the sector that holds it) of each row of a rung
    whose bands are stacked over the rows (axis 0), where every row solves
    the sector `first` first, then the others in order (see
    lowest_eigenvalue); hints[r] is the bottom of row r's rung before, held
    by `first`, or None.

    Each sector block is written once for all rows, and each step is one
    stacked call over the rows that take it, which gives each row the bits
    it gets alone: eigvalsh on the first sector (but on the rows that
    iterate), and on each other sector one Cholesky certificate at every
    row's bottom so far, then eigvalsh on the rows it fails.  Inverse
    iteration runs per row."""
    # the band half-width of the last mode: mode 1's summed band at d = 1
    width = max(pair[2 - d].shape[-2] for pair in bands) // 2
    best: list = [None] * len(hints)  # each row's (bottom, sector) so far
    for v in [first] + [v for v in range(len(_sectors(d, n, kind))) if v != first]:
        block = _block(bands, d, n, kind, v)
        plan = _super_blocks(d, n, kind, v, width)
        if v != first:  # certified at each row's bottom so far, or solved
            shifts = _margin(block) + [value for value, _ in best]
            dense = [i for i, ok in enumerate(_certified(block, shifts, plan)) if not ok]
        else:
            dense = []
            for i, hint in enumerate(hints):
                if hint is not None and len(plan) > 2:  # below, eigvalsh is as fast
                    start = np.full(block.shape[-1], block.shape[-1] ** -0.5)
                    value = _inverse_iteration(block[i], plan, hint, _margin(block[i]), start)
                    if value is not None:
                        best[i] = (value, v)
                        continue
                dense.append(i)
        if dense:
            lowest = np.linalg.eigvalsh(block if len(dense) == len(hints) else block[dense])
            for i, value in zip(dense, lowest[:, 0].tolist()):
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


def _walk(ps: list[PolynomialSymbol], hbars: list[float], ns: list[int],
          escalate: bool = False) -> list[tuple[TruncationSweep, bool]]:
    """The one truncation walk: the lowest eigenvalue of quantize(p, hbar)
    for each row (p, hbar) of a batch at the rungs of one ladder, as
    (sweep, converged) per row.

    Without escalate every row solves every rung of ns (converged is
    True).  With escalate, ns is extended by doubling up to MAX_TRUNCATION
    and a row stops at the first rung whose value lies within
    CONVERGENCE_REL |lambda| + CONVERGENCE_ABS of the previous rung's.  A
    gap only counts when the two truncations differ by more than the
    symbol degree: the matrix couples Fock levels at most deg apart, so
    closer pairs can sit on a parity plateau that mimics convergence.
    converged is False when the cap is reached first.

    Rows with the same monomials (the folds of one graded symbol, say) walk
    together: one band stage with per-row weights, then per rung the
    stacked solve of _bottoms for the rows still walking, one call for the
    rows whose last bottoms lie in the same sector (all of them, as a
    rule); a row drops out where it stops, and no rung past its stop is
    built for it.  The gates
    read the extended ladder before any band is peeled.  The bands are
    peeled at the top of the given ladder, and again at the cap only for
    the rows still walking past it: the leading blocks are the same bits at
    any internal size of at least N + deg.  Each row's rungs pass the
    monotonicity gate of TruncationSweep, which keeps its last matrix.
    """
    ns = [int(v) for v in ns]
    top = ns[-1]
    while escalate and ns[-1] * 2 <= MAX_TRUNCATION:
        ns.append(ns[-1] * 2)
    ps, hermitian, degrees = _rows(ps, hbars, ns)
    batches: dict[tuple, list[int]] = {}
    for r, p in enumerate(ps):
        batches.setdefault(tuple(idx for idx, _ in p.iter_terms()), []).append(r)
    walks: list = [None] * len(ps)
    for rows in batches.values():
        p, degree = ps[rows[0]], degrees[rows[0]]
        kind, size = _parity_kind(p), top + degree
        bands = _bands([ps[r] for r in rows], [hbars[r] for r in rows], size)
        if not all(hermitian[r] for r in rows):
            raise NonHermitianError(_NOT_HERMITIAN)
        values: dict[int, list[float]] = {r: [] for r in rows}
        held = dict.fromkeys(rows, 0)
        for i, n in enumerate(ns):
            if n + degree > size:  # a row walks past the given ladder: peel at the cap
                size = ns[-1] + degree
                bands = _bands([ps[r] for r in rows], [hbars[r] for r in rows], size)
            solved: list = [None] * len(rows)
            for first in dict.fromkeys(held[r] for r in rows):  # rows whose bottoms share a sector
                group = [j for j, r in enumerate(rows) if held[r] == first]
                stack = bands if len(group) == len(rows) else [(b2[group], b1[group])
                                                               for b2, b1 in bands]
                hints = [values[rows[j]][-1] if values[rows[j]] else None for j in group]
                for j, found in zip(group, _bottoms(stack, p.d, n, kind, hints, first)):
                    solved[j] = found
            going = []
            for j, (r, (value, v)) in enumerate(zip(rows, solved)):
                found, held[r] = values[r], v
                found.append(value)
                converged = bool(escalate and i and ns[i] - ns[i - 1] > degree
                                 and abs(value - found[-2])
                                 < CONVERGENCE_REL * abs(value) + CONVERGENCE_ABS)
                if converged or i == len(ns) - 1:
                    rung = OperatorMatrix(p.d, n, hbars[r], size - n, hermitian[r], kind,
                                          [(b2[j:j + 1], b1[j:j + 1]) for b2, b1 in bands])
                    walks[r] = (ns[:i + 1], found, rung, converged or not escalate)
                else:
                    going.append(j)
            if not going:
                break
            if len(going) < len(rows):
                rows = [rows[j] for j in going]
                bands = [(b2[going], b1[going]) for b2, b1 in bands]
    return [(TruncationSweep(used, found, matrix=rung), converged)
            for used, found, rung, converged in walks]


def truncation_sweep(p: PolynomialSymbol, hbar: float, ns: list[int]) -> TruncationSweep:
    """Lowest eigenvalue of quantize(p, hbar) at each truncation in ns.

    One ladder, the walk of a batch of one row: the bands are peeled once
    at the largest N and every rung solves blocks built from them; the
    result keeps the top rung's matrix, whose entries are built on first
    read.
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
