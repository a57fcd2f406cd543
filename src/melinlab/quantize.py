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
products.  The result costs one dense N^d x N^d write: d = 1 sums the
monomial bands first; d = 2 takes one Kronecker product of leading
blocks per distinct second-mode factor.

Everything here is desk scale: d <= 2 modes and N <= 256 per mode.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    MonotonicityError,
    NonHermitianError,
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
    if hbar <= 0:
        raise ValueError(f"hbar must be positive, got {hbar}")
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


@functools.lru_cache(maxsize=32)
def _peel_geometry(width: int, size: int):
    """Weights and transpose gather for peeling on a (2W+1, size) band.

    Returns (lo, up, col, flip): lo[i] = g[i], up[i] = g[i+1],
    col[r, i] = g[i + r - W - 1] for r in 0..2W+2, and flat indices into
    the zero-padded (2W+3, size+2) work array that read the transposed
    band (out-of-matrix positions read the zero corner).
    """
    rows = 2 * width + 1

    def g(m: np.ndarray) -> np.ndarray:
        inside = (m >= 1) & (m < size)
        return np.where(inside, np.sqrt(np.where(inside, m, 0)), 0.0)

    i = np.arange(size)
    lo = g(i)
    up = g(i + 1)
    col = g(i[None, :] + np.arange(rows + 2)[:, None] - width - 1)
    k = np.arange(rows)[:, None] - width
    j = i[None, :] + k
    inside = (j >= 0) & (j < size)
    flip = np.where(inside, (width - k + 1) * (size + 2) + j + 1, 0)
    for shared in (lo, up, col, flip):
        shared.setflags(write=False)
    return lo, up, col, flip


def _mode_band(ypow: int, epow: int, hbar: float, size: int) -> np.ndarray:
    """Exact single-mode Weyl matrix of y^ypow eta^epow, in band storage.

    Jordan peeling quantize(x q) = (xhat Q + Q xhat) / 2 on diagonals:
    O(size W) per step, W = ypow + epow steps.
    """
    width = ypow + epow
    rows = 2 * width + 1
    if width == 0:
        return np.ones((1, size), dtype=complex)
    lo, up, col, flip = _peel_geometry(width, size)
    work = np.zeros((rows + 2, size + 2))  # band inside a ring of zeros
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
    scale = (hbar / 2.0) ** (width / 2.0) * _PHASES[epow % 4]
    return scale * band


@functools.lru_cache(maxsize=32)
def _scatter_geometry(width: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat (band, dense) index pairs of the leading n x n block of a
    width-W band whose columns are cut to n."""
    r = np.arange(2 * width + 1)[:, None]
    i = np.arange(n)[None, :]
    j = i + r - width
    inside = (j >= 0) & (j < n)
    src, dst = (r * n + i)[inside], (i * n + j)[inside]
    src.setflags(write=False)
    dst.setflags(write=False)
    return src, dst


def _leading_block(band: np.ndarray, n: int) -> np.ndarray:
    """Dense leading n x n block of a band-stored matrix."""
    src, dst = _scatter_geometry(band.shape[0] // 2, n)
    out = np.zeros((n, n), dtype=complex)
    out.reshape(-1)[dst] = band[:, :n].reshape(-1)[src]
    return out


def _block_indices(d: int, size: int, n: int) -> np.ndarray:
    """Flat indices of the leading n-block inside a size^d tensor grid."""
    b = np.arange(n ** d)
    out = np.zeros_like(b)
    rem = b
    for s in range(d):
        out = out + (rem % n) * size ** s
        rem = rem // n
    return out


def _hermitian_skew(m: np.ndarray) -> float:
    """max |m - m^H| over entries, taken in row blocks so that the
    transposed read stays cache-friendly at dimension 10^3 and up."""
    worst = 0.0
    for i in range(0, m.shape[0], 64):
        worst = max(worst, float(np.abs(m[i:i + 64] - m[:, i:i + 64].conj().T).max()))
    return worst


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
    if p.d > MAX_MODES:
        raise DimensionMismatch(f"quantization supports d <= {MAX_MODES}, got d={p.d}")
    if hbar <= 0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    if not 2 <= n <= MAX_TRUNCATION:
        raise ValueError(f"truncation must satisfy 2 <= n <= {MAX_TRUNCATION}, got {n}")
    deg = max(p.degree(), 0)
    size = n + deg
    if p.d == 1:
        # one mode: sum the monomial bands, then write the block once
        acc = np.zeros((2 * deg + 1, size), dtype=complex)
        for (a, b), coeff in p.iter_terms():
            acc[deg - a - b : deg + a + b + 1] += coeff * _mode_band(a, b, hbar, size)
        total = _leading_block(acc, n)
    else:
        # two modes: per-mode leading blocks, then one Kronecker product per
        # distinct mode-2 factor, written into the (n2, n1, n2', n1') view
        # of the result (mode 1 fastest)
        blocks: dict[tuple[int, int], np.ndarray] = {}

        def block(key: tuple[int, int]) -> np.ndarray:
            if key not in blocks:
                blocks[key] = _leading_block(_mode_band(*key, hbar, size), n)
            return blocks[key]

        mode1_sums: dict[tuple[int, int], np.ndarray] = {}
        for (a1, a2, b1, b2), coeff in p.iter_terms():
            mode1_sums[(a2, b2)] = mode1_sums.get((a2, b2), 0.0) + coeff * block((a1, b1))
        total = np.zeros((n * n, n * n), dtype=complex)
        grid = total.reshape(n, n, n, n)
        for key, mode1 in mode1_sums.items():
            grid += block(key)[:, None, :, None] * mode1[None, :, None, :]
    if p.is_real():
        skew = _hermitian_skew(total)
        if skew > HERMITICITY_TOL:
            raise NonHermitianError(
                f"real symbol produced non-Hermitian matrix (deviation {skew:.3e})"
            )
    return OperatorMatrix(d=p.d, n=n, hbar=hbar, pad=deg, entries=total)


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
    flat = np.arange(dim)
    digits = [(flat // n ** s) % n for s in range(d)]
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
    symmetry by more than 1e-10.
    """
    entries = m.entries if isinstance(m, OperatorMatrix) else np.asarray(m)
    skew = _hermitian_skew(entries)
    if skew > 1e-10:
        raise NonHermitianError(f"matrix is not Hermitian (deviation {skew:.3e})")
    return float(np.linalg.eigvalsh(entries)[0])


@dataclass
class TruncationSweep:
    """Lowest eigenvalues across nested truncations.

    Compression makes the values nonincreasing in N; an increase beyond
    1e-10 is rejected at construction as an exactness bug.
    """

    truncations: list[int]
    values: list[float]

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


def truncation_sweep(p: PolynomialSymbol, hbar: float, ns: list[int],
                     matrix: OperatorMatrix | None = None) -> TruncationSweep:
    """Lowest eigenvalue of quantize(p, hbar) at each truncation in ns.

    The matrix is built once at the largest N (entries are exact, so
    smaller truncations are its leading blocks).  A caller that already
    holds weyl_quantize(p, hbar, ns[-1]) passes it as `matrix`.
    """
    ns = [int(v) for v in ns]
    if not ns:
        raise ValueError("need at least one truncation")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"truncations must be strictly increasing, got {ns}")
    if matrix is None:
        big = weyl_quantize(p, hbar, ns[-1])
    elif (matrix.d, matrix.n, matrix.hbar) != (p.d, ns[-1], hbar):
        raise ValueError(
            f"matrix is quantized at d={matrix.d}, N={matrix.n}, hbar={matrix.hbar}, "
            f"not at d={p.d}, N={ns[-1]}, hbar={hbar}"
        )
    else:
        big = matrix
    values = []
    for n in ns:
        block = _block_indices(p.d, ns[-1], n)
        values.append(float(np.linalg.eigvalsh(big.entries[np.ix_(block, block)])[0]))
    return TruncationSweep(truncations=ns, values=values)


def conjugation_residual(p: GradedSymbol, lam: float, n: int) -> float:
    """Relative max-norm residual of the scaling conjugation identity.

    quantize(fold(p, Lambda), hbar=1/Lambda) must equal
    quantize(scale_symbol(p) folded at Lambda, hbar=1) on the exact
    block; the identity is algebraic, so the residual is pure roundoff.
    """
    if lam < 1:
        raise ValueError(f"Lambda must be >= 1, got {lam}")
    left = weyl_quantize(p.fold(lam), 1.0 / lam, n).entries
    right = weyl_quantize(scale_symbol(p, fold=True, lam=lam), 1.0, n).entries
    scale = max(np.abs(left).max() if left.size else 0.0,
                np.abs(right).max() if right.size else 0.0)
    if scale == 0.0:
        return 0.0
    return float(np.abs(left - right).max() / scale)
