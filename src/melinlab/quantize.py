"""Weyl quantization of polynomial symbols as finite Fock-basis matrices.

The basis is the tensor Hermite (Fock) basis adapted to hbar: the
ladder operators satisfy [a, a+] = 1 and the coordinate operators are

    yhat   = sqrt(hbar/2) (a + a+)
    etahat = i sqrt(hbar/2) (a+ - a)

so [yhat, etahat] = i*hbar.  A monomial is quantized by peeling factors
through the exact Jordan recursion

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
the bands are peeled once at the top rung's internal size, and each
rung is one dense N^d x N^d write of the Kronecker products of those
bands (one per distinct second-mode factor; a single one for d = 1).
weyl_quantize is the one-rung ladder.

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
sector index sets (2^d sectors split by the parity of each n_s, or 2
split by the parity of n_1 + n_2, or none); entries between sectors
are exactly zero, and lowest_eigenvalue takes the bottom over the
sector blocks.

Everything here is desk scale: d <= 2 modes and N <= 256 per mode, and
a dense block of at most MAX_DENSE_DIM = 4096 rows (d = 2 up to
N = 64).  A ladder whose top rung is larger raises ResourceLimitError
before anything is peeled or allocated, so the default d = 2 ladder
(32, 64, 128) is rejected until a sparse path exists.
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
from .symbols import GradedSymbol, PolynomialSymbol, _compositions, scale_symbol

__all__ = [
    "ladder",
    "mode_operators",
    "OperatorMatrix",
    "weyl_quantize",
    "number_operator",
    "lowest_eigenvalue",
    "TruncationSweep",
    "truncation_sweep",
    "conjugation_residual",
]

MAX_MODES = 2
MAX_TRUNCATION = 256
MAX_DENSE_DIM = 4096
_BAND_CACHE_SIZE = 128
HERMITICITY_TOL = 1e-12
MONOTONICITY_TOL = 1e-10


def ladder(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowering and raising matrices on the first n Fock levels.

    lower[m-1, m] = sqrt(m); raise is the conjugate transpose.
    """
    if n < 2:
        raise ValueError(f"need at least 2 Fock levels, got n={n}")
    lower = np.zeros((n, n), dtype=complex)
    for m in range(1, n):
        lower[m - 1, m] = math.sqrt(m)
    return lower, lower.conj().T


def mode_operators(hbar: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Single-mode coordinate matrices (yhat, etahat) at parameter hbar."""
    if not 0 < hbar < math.inf:
        raise ValueError(f"hbar must be positive and finite, got {hbar}")
    low, high = ladder(n)
    s = math.sqrt(hbar / 2.0)
    return s * (low + high), 1j * s * (high - low)


@dataclass
class OperatorMatrix:
    """A quantized symbol on the leading N^d Fock block.

    Basis ordering is lexicographic over per-mode levels with mode 1
    fastest: flat index = n_1 + N*n_2 + ...  Entries are exact values of
    the infinite matrix (up to roundoff) thanks to internal padding.
    """

    d: int
    n: int
    hbar: float
    pad: int
    entries: np.ndarray = field(repr=False)
    # set by the quantizer once the entries passed its 1e-12 check
    hermitian: bool = field(default=False, init=False, repr=False, compare=False)
    # set by the quantizer: flat indices of the Fock-parity sectors the
    # operator leaves invariant (no entry couples two of them)
    sectors: tuple[np.ndarray, ...] | None = field(default=None, init=False, repr=False,
                                                    compare=False)

    def __post_init__(self):
        self.entries.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.n ** self.d


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
    flip = np.where((j >= 0) & (j < size), (width - k + 1) * (size + 2) + j + 1, 0)
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
    band = band.copy()
    band.setflags(write=False)
    return band


def _mode_band(ypow: int, epow: int, hbar: float, size: int) -> np.ndarray:
    """Exact single-mode Weyl matrix of y^ypow eta^epow, in band storage:
    (hbar/2)^(W/2) i^epow times the cached real band."""
    width = ypow + epow
    if width == 0:
        return np.ones((1, size), dtype=complex)
    scale = (hbar / 2.0) ** (width / 2.0) * _PHASES[epow % 4]
    return scale * _real_band(ypow, epow, size)


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


def _fock_digits(d: int, n: int) -> list[np.ndarray]:
    """Per-mode Fock levels n_s of every flat index of the n^d block."""
    flat = np.arange(n ** d)
    return [(flat // n ** s) % n for s in range(d)]


def _parity_kind(p: PolynomialSymbol) -> str | None:
    """The Fock parities the Weyl operator of p conserves: "mode" if
    every monomial has even degree in each mode, else "total" if every
    monomial has even total degree, else None."""
    degrees = [[idx[s] + idx[p.d + s] for s in range(p.d)] for idx, _ in p.iter_terms()]
    if all(deg % 2 == 0 for mono in degrees for deg in mono):
        return "mode"
    if all(sum(mono) % 2 == 0 for mono in degrees):
        return "total"
    return None


@functools.lru_cache(maxsize=64)
def _sectors(d: int, n: int, kind: str) -> tuple[np.ndarray, ...]:
    """Flat indices of the parity sectors of the n^d block: 2^d sectors
    labelled by the parity of each n_s ("mode"), or 2 by the parity of
    their sum ("total")."""
    digits = _fock_digits(d, n)
    if kind == "mode":
        label, count = sum((level % 2) << s for s, level in enumerate(digits)), 2 ** d
    else:
        label, count = sum(digits) % 2, 2
    sectors = tuple(np.flatnonzero(label == v) for v in range(count))
    for idx in sectors:
        idx.setflags(write=False)
    return sectors


def _check_hermitian(m: np.ndarray, tol: float, what: str) -> None:
    """Raise NonHermitianError if max |m - m^H| exceeds tol or is NaN.  The
    skew is taken in row blocks so that the transposed read stays
    cache-friendly at dimension 10^3 and up."""
    worst = np.max([np.abs(m[i:i + 64] - m[:, i:i + 64].conj().T).max()
                    for i in range(0, m.shape[0], 64)], initial=0.0)
    if not worst <= tol:
        raise NonHermitianError(f"{what} (deviation {worst:.3e})")


def _bands(p: PolynomialSymbol, hbar: float, size: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Band stage of the ladder: the band of every monomial factor at
    per-mode internal size `size` (each peeled once per process), and
    (mode-2 band, summed band of the mode-1 factors it multiplies) per
    distinct mode-2 factor."""
    factors: dict[tuple[int, int], list[tuple[int, int, complex]]] = {}
    for idx, coeff in p.iter_terms():
        # (mode-1, mode-2) exponents; at d = 1 the mode-2 factor is y^0 eta^0
        ys, es = idx[:p.d] + (0,), idx[p.d:] + (0,)
        factors.setdefault((ys[1], es[1]), []).append((ys[0], es[0], coeff))
    bands = []
    for (a2, b2), terms in factors.items():
        width = max(a + b for a, b, _ in terms)
        summed = np.zeros((2 * width + 1, size), dtype=complex)
        for a, b, coeff in terms:
            summed[width - a - b : width + a + b + 1] += coeff * _mode_band(a, b, hbar, size)
        bands.append((_mode_band(a2, b2, hbar, size ** (p.d - 1)), summed))
    return bands


def _block(d: int, bands: list[tuple[np.ndarray, np.ndarray]], n: int) -> np.ndarray:
    """Block stage of the ladder: the dense leading n^d block (mode 1
    fastest).  Each product of a mode-2 and a mode-1 band entry is an
    entry of their Kronecker product and goes straight to its place."""
    dim = n ** d
    out = np.zeros((dim, dim), dtype=complex)
    flat = out.reshape(-1)
    for band2, band1 in bands:
        src2, off2 = _block_geometry(band2.shape, n ** (d - 1), n * dim, n)
        src1, off1 = _block_geometry(band1.shape, n, dim, 1)
        flat[np.add.outer(off2, off1)] += np.multiply.outer(band2.take(src2), band1.take(src1))
    return out


def _ladder(p: PolynomialSymbol, hbar: float, ns: list[int]) -> Iterator[OperatorMatrix]:
    """Quantize p at each truncation of the strictly increasing ns.

    The band stage runs once, at per-mode size ns[-1] + deg(p); a rung's
    block is assembled only when the consumer asks for it, so stopping
    early never allocates a larger dense block.  Blocks of real symbols
    are checked Hermitian to 1e-12 and marked so; every block is marked
    with the parity sectors the symbol conserves.  A top rung of more
    than MAX_DENSE_DIM rows raises ResourceLimitError up front.
    """
    if p.d > MAX_MODES:
        raise DimensionMismatch(f"quantization supports d <= {MAX_MODES}, got d={p.d}")
    if not 0 < hbar < math.inf:
        raise ValueError(f"hbar must be positive and finite, got {hbar}")
    if not ns or ns[0] < 2 or ns[-1] > MAX_TRUNCATION:
        raise ValueError(f"truncations must satisfy 2 <= n <= {MAX_TRUNCATION}, got {ns}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"truncations must be strictly increasing, got {ns}")
    dim = ns[-1] ** p.d
    if dim > MAX_DENSE_DIM:
        raise ResourceLimitError(
            f"d={p.d}, N={ns[-1]} needs a dense block of dimension {dim}, above the "
            f"limit {MAX_DENSE_DIM} (d=2 runs up to N=64 until a sparse path exists)"
        )
    size = ns[-1] + max(p.degree(), 0)
    bands = _bands(p, hbar, size)
    real = p.is_real()
    kind = _parity_kind(p)
    for n in ns:
        entries = _block(p.d, bands, n)
        if real:
            _check_hermitian(entries, HERMITICITY_TOL, "real symbol produced non-Hermitian matrix")
        rung = OperatorMatrix(d=p.d, n=n, hbar=hbar, pad=size - n, entries=entries)
        rung.hermitian = real
        rung.sectors = _sectors(p.d, n, kind) if kind else None
        yield rung


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
    block; built internally at per-mode size n + deg(p).
    """
    return next(_ladder(p, hbar, [n]))


def number_operator(k: int, d: int, n: int) -> OperatorMatrix:
    """The comparison operator N_k = sum_{|alpha| <= k} (L^alpha)+ L^alpha
    at hbar = 1, with L_s = i sqrt(2) a_s+.

    (L^alpha)+ L^alpha = 2^|alpha| a^alpha (a+)^alpha is diagonal in the
    Fock basis with entries 2^|alpha| prod_s (n_s+1)...(n_s+alpha_s);
    the diagonal is assembled from these exact integer products.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if not 1 <= d <= MAX_MODES:
        raise DimensionMismatch(f"need 1 <= d <= {MAX_MODES}, got d={d}")
    if not 2 <= n <= MAX_TRUNCATION:
        raise ValueError(f"truncation must satisfy 2 <= n <= {MAX_TRUNCATION}, got {n}")

    def rising(levels: np.ndarray, a: int) -> np.ndarray:
        out = np.ones_like(levels, dtype=float)
        for t in range(1, a + 1):
            out = out * (levels + t)
        return out

    dim = n ** d
    digits = _fock_digits(d, n)
    diag = np.zeros(dim)
    for total_order in range(k + 1):
        for alpha in _compositions(total_order, d):
            term = np.full(dim, float(2 ** total_order))
            for s, a in enumerate(alpha):
                term = term * rising(digits[s], a)
            diag += term
    return OperatorMatrix(d=d, n=n, hbar=1.0, pad=0,
                          entries=np.diag(diag).astype(complex))


def lowest_eigenvalue(m: OperatorMatrix | np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian operator matrix.

    Raises NonHermitianError if the entries deviate from Hermitian
    symmetry by more than 1e-10; quantized real symbols, already checked
    to 1e-12, are not checked again.  A quantized matrix marked with
    parity sectors is block diagonal in them, and its bottom is the
    minimum of eigvalsh over the sector blocks; any other matrix is
    solved whole.
    """
    entries = m.entries if isinstance(m, OperatorMatrix) else np.asarray(m)
    if not getattr(m, "hermitian", False):
        _check_hermitian(entries, 1e-10, "matrix is not Hermitian")
    sectors = getattr(m, "sectors", None)
    if not sectors:
        return float(np.linalg.eigvalsh(entries)[0])
    return float(min(np.linalg.eigvalsh(entries[np.ix_(idx, idx)])[0] for idx in sectors))


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


def truncation_sweep(p: PolynomialSymbol, hbar: float, ns: list[int]) -> TruncationSweep:
    """Lowest eigenvalue of quantize(p, hbar) at each truncation in ns.

    One ladder: the bands are peeled once at the largest N and every rung
    is a dense block assembled from them; the result keeps the top rung's
    matrix.
    """
    ns = [int(v) for v in ns]
    values = []
    for rung in _ladder(p, hbar, ns):
        values.append(lowest_eigenvalue(rung))
    return TruncationSweep(truncations=ns, values=values, matrix=rung)


def conjugation_residual(p: GradedSymbol, lam: float, n: int) -> float:
    """Relative max-norm residual of the scaling conjugation identity.

    quantize(fold(p, Lambda), hbar=1/Lambda) must equal
    quantize(scale_symbol(p) folded at Lambda, hbar=1) on the exact
    block; the identity is algebraic, so the residual is pure roundoff.
    """
    if lam < 1:
        raise ValueError(f"Lambda must be >= 1, got {lam}")
    left = weyl_quantize(p.fold(lam), 1.0 / lam, n).entries
    right = weyl_quantize(scale_symbol(p).fold(lam), 1.0, n).entries
    scale = max(np.abs(left).max() if left.size else 0.0,
                np.abs(right).max() if right.size else 0.0)
    if scale == 0.0:
        return 0.0
    return float(np.abs(left - right).max() / scale)
