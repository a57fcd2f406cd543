"""Independent reference computations for the test suite.

Everything here is written from first principles, deliberately avoiding
the code paths under test: quantization by brute-force symmetrized
operator products, or by dense Jordan products instead of the banded
peeling, and the plus-trace through a matrix square root instead of the
fundamental matrix.  Slow is fine; these only pin expected values.
"""

import itertools
import math

import numpy as np
import scipy.linalg

from melinlab.symbols import PolynomialSymbol


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


def embed_mode(op, mode, d, size):
    """Lift a single-mode matrix to the size^d tensor space.

    Mode 0 is the fastest index: flat = n_0 + size*n_1 + ...
    """
    left = np.eye(size ** (d - 1 - mode), dtype=complex)
    right = np.eye(size ** mode, dtype=complex)
    return np.kron(left, np.kron(op, right))


def symmetrized_product(factors):
    """Average of the matrix product over every ordering of factors."""
    if not factors:
        raise ValueError("need at least one factor")
    dim = factors[0].shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    count = 0
    for perm in itertools.permutations(range(len(factors))):
        prod = np.eye(dim, dtype=complex)
        for i in perm:
            prod = prod @ factors[i]
        acc += prod
        count += 1
    return acc / count


def quantize_oracle(p, hbar, n):
    """Weyl quantization by explicit symmetrization, leading n-block.

    Builds at internal size n + deg so the block entries are exact,
    mirroring the contract of the production quantizer but through a
    completely different algorithm.
    """
    d = p.d
    deg = max(p.degree(), 0)
    size = n + deg
    yops = [embed_mode(mode_operators(hbar, size)[0], s, d, size) for s in range(d)]
    eops = [embed_mode(mode_operators(hbar, size)[1], s, d, size) for s in range(d)]
    dim = size ** d
    total = np.zeros((dim, dim), dtype=complex)
    for idx, coeff in p.iter_terms():
        factors = []
        for s in range(d):
            factors.extend([yops[s]] * idx[s])
            factors.extend([eops[s]] * idx[d + s])
        if factors:
            total += coeff * symmetrized_product(factors)
        else:
            total += coeff * np.eye(dim, dtype=complex)
    keep = [i for i in range(dim)
            if all((i // size ** s) % size < n for s in range(d))]
    return total[np.ix_(keep, keep)]


def jordan_mode_oracle(ypow, epow, hbar, size):
    """Dense single-mode Weyl matrix of y^ypow eta^epow on `size` levels.

    Plain Jordan products (xhat M + M xhat) / 2 with full matrix
    multiplication, no symmetrization; entries near the truncation edge
    carry the truncated ladder, exactly as any size-`size` computation.
    """
    yop, eop = mode_operators(hbar, size)
    m = np.eye(size, dtype=complex)
    for op in [yop] * ypow + [eop] * epow:
        m = (op @ m + m @ op) / 2.0
    return m


def kron_quantize_oracle(p, hbar, n):
    """Quantization through dense per-mode Jordan factors: the full
    Kronecker product at per-mode size n + deg, then the leading n-block
    gathered (mode 0 fastest)."""
    d = p.d
    size = n + max(p.degree(), 0)
    total = np.zeros((size ** d, size ** d), dtype=complex)
    for idx, coeff in p.iter_terms():
        full = np.ones((1, 1), dtype=complex)
        for s in range(d):
            full = np.kron(jordan_mode_oracle(idx[s], idx[d + s], hbar, size), full)
        total += coeff * full
    keep = [i for i in range(size ** d)
            if all((i // size ** s) % size < n for s in range(d))]
    return total[np.ix_(keep, keep)]


def radial_spectrum_oracle(a, d, levels):
    """Weyl eigenvalues at hbar = 1 of the radial symbol a(h_1 + ... + h_d),
    h_s = y_s^2 + eta_s^2, on the total Fock levels n = 0..levels-1, for a
    polynomial a given by its coefficients in rising powers.  On total
    level n the operator is (Groenewold, Physica 12, 1946; Folland,
    Harmonic Analysis in Phase Space, 1989, ch. 1)

        (-1)^n / C(n+d-1, d-1) / (d-1)!
            * int_0^inf a(s) s^(d-1) e^-s L_n^(d-1)(2s) ds,

    integrated by Gauss-Laguerre quadrature with just enough nodes to be
    exact on the polynomial integrand; L_n^(d-1) by its three-term
    recurrence.  Independent of the quantizer: no Fock matrix is formed."""
    a = np.polynomial.Polynomial(a)
    alpha = d - 1
    out = []
    for n in range(levels):
        nodes, weights = np.polynomial.laguerre.laggauss((a.degree() + alpha + n) // 2 + 1)
        x, before, laguerre = 2.0 * nodes, np.zeros_like(nodes), np.ones_like(nodes)
        for k in range(n):
            before, laguerre = laguerre, ((2 * k + 1 + alpha - x) * laguerre
                                          - (k + alpha) * before) / (k + 1)
        integral = np.sum(weights * a(nodes) * nodes ** alpha * laguerre)
        out.append((-1) ** n * integral / math.comb(n + alpha, alpha) / math.factorial(alpha))
    return np.array(out)


def number_operator(k, d, n):
    """Diagonal of the comparison operator N_k = sum_{|alpha| <= k}
    (L^alpha)+ L^alpha at hbar = 1, L_s = i sqrt(2) a_s+, on the leading
    n^d Fock block (mode 0 fastest).

    (L^alpha)+ L^alpha = 2^|alpha| a^alpha (a+)^alpha is diagonal with
    entries 2^|alpha| prod_s (n_s+1)...(n_s+alpha_s), exact integer
    products summed over every alpha in {0..k}^d with |alpha| <= k.
    """
    levels = np.array(list(itertools.product(range(n), repeat=d)))[:, ::-1]  # column s: n_s
    diag = np.zeros(n ** d)
    for alpha in itertools.product(range(k + 1), repeat=d):
        if sum(alpha) <= k:
            term = np.full(n ** d, 2.0 ** sum(alpha))
            for s, a in enumerate(alpha):
                for t in range(1, a + 1):
                    term *= levels[:, s] + t
            diag += term
    return diag


def trace_plus_oracle(hessian):
    """Sum of positive imaginary eigenvalue parts of J^{-1} H, computed
    through the antisymmetric pencil sqrt(H) (-J) sqrt(H)."""
    h = np.asarray(hessian, dtype=float)
    two_d = h.shape[0]
    d = two_d // 2
    j = np.zeros((two_d, two_d))
    j[:d, d:] = -np.eye(d)
    j[d:, :d] = np.eye(d)
    root = scipy.linalg.sqrtm(h).real
    pencil = root @ (-j) @ root
    eigs = np.linalg.eigvals(pencil)
    return float(np.sum(eigs.imag[eigs.imag > 1e-12]))


def falling_factorial(n, k):
    """n (n-1) ... (n-k+1); zero when k > n."""
    out = 1
    for i in range(k):
        out *= n - i
    return out


def bidifferential_oracle(a_terms, b_terms, d, j):
    """B^j(a, b) summed monomial pair by monomial pair, as a dict
    {multi-index: coefficient}; a_terms and b_terms are such dicts too.

    For a = y^p eta^q and b = y^s eta^t (multi-indices in N^d),

        B^j(a, b) = sum_{|alpha|+|beta|=j} j!/(alpha! beta!) (-1)^|beta|
                    [p]_alpha [q]_beta [t]_alpha [s]_beta
                    y^(p-alpha+s-beta) eta^(q-beta+t-alpha)

    with [n]_k the falling factorial, taken per mode and multiplied.
    """
    orders = [ab for ab in itertools.product(range(j + 1), repeat=2 * d) if sum(ab) == j]
    out = {}
    for ka, ca in a_terms.items():
        p, q = ka[:d], ka[d:]
        for kb, cb in b_terms.items():
            s, t = kb[:d], kb[d:]
            for ab in orders:
                alpha, beta = ab[:d], ab[d:]
                w = math.factorial(j) * (-1) ** sum(beta)
                for i in range(d):
                    w //= math.factorial(alpha[i]) * math.factorial(beta[i])
                for i in range(d):
                    w *= (falling_factorial(p[i], alpha[i]) * falling_factorial(q[i], beta[i])
                          * falling_factorial(t[i], alpha[i]) * falling_factorial(s[i], beta[i]))
                if w == 0:
                    continue
                key = (tuple(p[i] - alpha[i] + s[i] - beta[i] for i in range(d))
                       + tuple(q[i] - beta[i] + t[i] - alpha[i] for i in range(d)))
                out[key] = out.get(key, 0.0) + w * ca * cb
    return out


def product_oracle(a_terms, b_terms):
    """The product of two term dicts by a plain double loop over both
    operands' keys in sorted order, accumulating into a dict with the
    cancelled zeros dropped at the end."""
    out = {}
    for ka in sorted(a_terms):
        for kb in sorted(b_terms):
            key = tuple(x + z for x, z in zip(ka, kb))
            out[key] = out.get(key, 0.0) + a_terms[ka] * b_terms[kb]
    return {k: v for k, v in out.items() if v != 0}


def pull_back_oracle(p, s):
    """p(S z) for a d = 1 symbol p and a 2x2 matrix S: every monomial
    y^m eta^n becomes the product of m factors s11 y + s12 eta and n factors
    s21 y + s22 eta, multiplied out one at a time by product_oracle."""
    ys = {(1, 0): float(s[0][0]), (0, 1): float(s[0][1])}
    es = {(1, 0): float(s[1][0]), (0, 1): float(s[1][1])}
    out = {}
    for (m, n), c in p.terms.items():
        term = {(0, 0): c}
        for factor in [ys] * m + [es] * n:
            term = product_oracle(term, factor)
        for key, v in term.items():
            out[key] = out.get(key, 0.0) + v
    return PolynomialSymbol(1, out)


def evaluate_oracle(terms, points):
    """A term dict summed at each point (a sequence of 2d Python floats,
    y then eta) one term at a time, with Python floats and ints only.
    Also returns the sum of the absolute terms, the scale of the roundoff."""
    values, scales = [], []
    for x in points:
        parts = [c * math.prod(xi ** ki for xi, ki in zip(x, k)) for k, c in terms.items()]
        values.append(sum(parts))
        scales.append(sum(abs(v) for v in parts))
    return values, scales


def random_polynomial(rng, d, max_degree, n_terms=6, real=True):
    """Random polynomial symbol with small integer-ish coefficients."""
    terms = {}
    for _ in range(n_terms):
        while True:
            idx = tuple(int(v) for v in rng.integers(0, max_degree + 1, size=2 * d))
            if sum(idx) <= max_degree:
                break
        c = float(rng.integers(-4, 5)) or 1.0
        if not real:
            c = c + 1j * float(rng.integers(-4, 5))
        terms[idx] = terms.get(idx, 0.0) + c
    return PolynomialSymbol(d, terms)


def random_psd_hessian(rng, d, definite=True):
    a = rng.normal(size=(2 * d, 2 * d))
    h = a @ a.T
    if definite:
        h = h + 0.5 * np.eye(2 * d)
    return h


def random_symplectic(rng, d, scale=0.3):
    """exp(-J S) with S symmetric lies in the symplectic group."""
    two_d = 2 * d
    j = np.zeros((two_d, two_d))
    j[:d, d:] = -np.eye(d)
    j[d:, :d] = np.eye(d)
    s = rng.normal(size=(two_d, two_d)) * scale
    s = (s + s.T) / 2.0
    return scipy.linalg.expm(-j @ s)
