"""Localization of a graded symbol at its characteristic subspace.

For a graded symbol of codimension order k, the localized operator
collects, from each level j <= k, the homogeneous transverse Taylor
part of degree 2k - 2j (so |alpha| + |beta| + 2j = 2k throughout) and
quantizes the sum at the unit model scale hbar = 1.  Under the scaling
conjugation, the full operator at parameter Lambda is Lambda^-k times
this model operator plus lower-order corrections, which is what the
verifier module measures.

hypothesis_check diagnoses the three standing hypotheses:

  (a) vanishing orders: level j carries no transverse degree below
      2k - 2j,
  (b) transverse ellipticity of the degree-2k part of level 0 on the
      unit sphere,
  (c) positivity of the localized operator's lowest eigenvalue.

The frame.  For d = 1, localize quantizes in the Fock basis of the best
Gaussian of the lead f, the degree-2k part of level 0 (the squeezed wave
packet of Littlejohn, Phys. Rep. 138, 1986).  It pulls the graded symbol
back once (_framed) by the linear symplectic T = [[a, 0], [c, 1/a]] whose
P = T T^T minimises the vacuum energy <0|Weyl(f o T)|0> over det P = 1, a
degree-k polynomial in P with closed-form coefficients, searched by Newton
from P = I.  Weyl(q o T) is unitarily equivalent to Weyl(q) at every hbar
(Folland, Harmonic Analysis in Phase Space, 1989, ch. 4), so the bottom is
the same, but the ladder no longer has to resolve the lead's squeeze: the
squeezed k = 2 scaling models whose rows climbed to N = 128-256, and the
k >= 3 leads whose rungs rose by roundoff, converge at N = 32.  T keeps every
degree, so the localized symbol of the framed levels is the localized symbol
pulled back by T, and T commutes with the Lambda dilation, so lambda_sweep
folds its rows from the framed symbol that localize keeps (`framed`): one
frame and one construction of the reference per sweep, through
hypothesis_check.  An isotropic lead, at whose T = I the energy is
stationary to roundoff, keeps its symbol bit for bit, and d = 2 keeps
T = I.  Checks (a) and (b) read the model as written.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, GradingError, NonHermitianError, VanishingOrderError
from .quantize import (
    OperatorMatrix,
    TruncationSweep,
    truncation_sweep,
    weyl_quantize,
)
from .symbols import (
    GradedSymbol,
    PolynomialSymbol,
    _fold,
    _merge,
    _pull_back,
    _silent,
    graded_star,
    moyal_star,
    taylor_transverse,
)

__all__ = [
    "LocalizedOperator",
    "localized_symbol",
    "localize",
    "HypothesisDiagnosis",
    "hypothesis_check",
    "localization_product_check",
    "unit_sphere_grid",
]

DEFAULT_TRUNCATIONS = (32, 64, 128)
ELLIPTICITY_REL_FLOOR = 1e-9
GRADING_CHECK_REL_TOL = 1e-9


def localized_symbol(p: GradedSymbol, strict: bool = True) -> PolynomialSymbol:
    """Sum over levels j <= k of the degree-(2k-2j) part of level j.

    With strict=True a level carrying transverse degree below its
    required order raises VanishingOrderError; otherwise such terms are
    ignored, which is what the diagnosis path wants.
    """
    leads = []
    for j, q in p.levels.items():
        if j > p.k:
            continue
        order = 2 * p.k - 2 * j
        try:
            leads.append(taylor_transverse(q, order, strict=strict)[0])
        except VanishingOrderError as exc:
            raise VanishingOrderError(f"level {j}: {exc}") from exc
    return _fold(p.d, _merge(p.d, leads), [1.0] * len(leads))


# ---------------------------------------------------------------------------
# The Fock frame of the lead's best Gaussian (d = 1)
# ---------------------------------------------------------------------------

_FRAME_ITERATIONS = 30
_FRAME_TOL = 1e-20  # Newton decrement, relative to the energy


def _energy_terms(lead: PolynomialSymbol, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The vacuum energy E(P) = <0|Weyl(lead o T)|0> at hbar = 1, P = T T^T,
    as sum e p^i q^j r^l over i + j + l = k in (p, q, r) = (P11, P12, P22):
    returns the exponents (i, j, l) as a (3, terms) array and the e.  The
    vacuum's Wigner function is the Gaussian of covariance P/2, so by
    Isserlis' theorem y^(2i+j) eta^(j+2l) has the weight
    2^j (2i+j)! (j+2l)! / (4^k i! j! l!), an exact integer ratio."""
    fact = math.factorial
    exps, e = [], []
    for (ypow, epow), c in lead.iter_terms():
        for j in range(ypow % 2, min(ypow, epow) + 1, 2):
            i, l = (ypow - j) // 2, (epow - j) // 2
            exps.append((i, j, l))
            e.append(2 ** j * fact(ypow) * fact(epow) / (4 ** k * fact(i) * fact(j) * fact(l))
                     * c.real)
    return np.array(exps, dtype=np.int64).reshape(-1, 3).T, np.array(e)


@_silent
def _frame(lead: PolynomialSymbol, k: int) -> tuple[float, float] | None:
    """(a, c) of the symplectic T = [[a, 0], [c, 1/a]] whose P = T T^T
    minimises the vacuum energy of lead o T over det P = 1, so T is the
    lower-triangular factor of P.  Damped Newton in (log a, c) from T = I,
    on E's closed form (_energy_terms) with its exact derivatives, taking
    only steps that lower E.  None stands for T = I: an isotropic lead,
    whose T = I is stationary to roundoff, a lead that is not real or whose
    E(I) is not positive, or a search that does not converge in
    _FRAME_ITERATIONS steps (a lead that is not elliptic has no minimum)."""
    if k < 1 or not lead.is_real():
        return None
    exps, e = _energy_terms(lead, k)
    # the orders in (p, q, r) of E, its gradient and its Hessian; the
    # derivative of order o of v^x is x!/(x-o)! v^(x-o), 0 where x < o
    o = np.array([[0, 1, 0, 0, 2, 0, 0, 1, 1, 0],
                  [0, 0, 1, 0, 0, 2, 0, 1, 0, 1],
                  [0, 0, 0, 1, 0, 0, 2, 0, 1, 1]])[:, :, None]
    x = exps[:, None, :]
    falling = np.where(o == 0, 1, x) * np.where(o == 2, x - 1, 1)
    drop = np.maximum(x - o, 0)

    def derivatives(u: float, c: float):
        """E, its gradient (E_u, E_c) and Hessian (E_uu, E_uc, E_cc) at T(u, c)."""
        a = math.exp(u)
        p, q, r = a * a, a * c, c * c + 1.0 / (a * a)
        z = falling * np.array([p, q, r])[:, None, None] ** drop
        e0, gp, gq, gr, hpp, hqq, hrr, hpq, hpr, hqr = (z.prod(axis=0) @ e).tolist()
        # the chain rule: d(p, q, r)/du = (2p, q, -2/p), d(p, q, r)/dc = (0, a, 2c);
        # the second derivatives uu, uc, cc of (p, q, r) are (4p, q, 4/p), (0, a, 0), (0, 0, 2)
        pu, qu, ru = 2.0 * p, q, -2.0 / p
        rc = 2.0 * c
        hu = (hpp * pu + hpq * qu + hpr * ru, hpq * pu + hqq * qu + hqr * ru,
              hpr * pu + hqr * qu + hrr * ru)
        return (e0, gp * pu + gq * qu + gr * ru, a * gq + rc * gr,
                hu[0] * pu + hu[1] * qu + hu[2] * ru + 4.0 * p * gp + q * gq + 4.0 / p * gr,
                hu[1] * a + hu[2] * rc + a * gq,
                (hqq * a + hqr * rc) * a + (hqr * a + hrr * rc) * rc + 2.0 * gr)

    u = c = 0.0
    energy, gu, gc, huu, huc, hcc = derivatives(u, c)
    if not 0.0 < energy < math.inf:
        return None
    for _ in range(_FRAME_ITERATIONS):
        det = huu * hcc - huc * huc
        if huu > 0.0 and det > 0.0:  # Newton where the Hessian is definite
            du, dc = (huc * gc - hcc * gu) / det, (huc * gu - huu * gc) / det
        else:
            du, dc = -gu, -gc
        decrement = -(gu * du + gc * dc)
        if not math.isfinite(decrement):
            return None
        if decrement <= _FRAME_TOL * energy:
            break
        scale = max(1.0, abs(du), abs(dc))
        du, dc = du / scale, dc / scale
        for t in (0.5 ** s for s in range(31)):  # halve until E drops; NaN never does
            trial = derivatives(u + t * du, c + t * dc)
            if trial[0] < energy:
                break
        else:
            break  # no lower E along the step: converged to roundoff
        u, c = u + t * du, c + t * dc
        energy, gu, gc, huu, huc, hcc = trial
    else:
        return None
    return (math.exp(u), c) if u or c else None


def _lead_frame(p: GradedSymbol) -> tuple[float, float] | None:
    """The frame of the degree-2k part of level 0 for d = 1; None (T = I)
    for d = 2."""
    if p.d != 1:
        return None
    return _frame(taylor_transverse(p.levels.get(0, PolynomialSymbol.zero(1)), 2 * p.k)[0], p.k)


def _framed(p: GradedSymbol) -> GradedSymbol:
    """p with every level pulled back by its lead's frame (p itself when
    T = I).  A linear T keeps every vanishing order and commutes with the
    Lambda dilation, so p's folds and its localized symbol pull back by it
    too, and Weyl(q o T) is unitarily equivalent to Weyl(q) at every hbar
    (Folland, Harmonic Analysis in Phase Space, 1989, ch. 4)."""
    frame = _lead_frame(p)
    if frame is None:
        return p
    return GradedSymbol(p.d, p.k, {j: _pull_back(q, frame) for j, q in p.levels.items()}, m=p.m)


@dataclass
class LocalizedOperator:
    """The localized model operator of a graded symbol at hbar = 1.

    `framed` is the source with every level pulled back to the frame of its
    lead's best Gaussian (_framed; the source itself when T = I), `symbol`
    the localized symbol of `framed`, and `matrix` its quantization at the
    top rung.
    """

    source: GradedSymbol
    k: int
    symbol: PolynomialSymbol
    matrix: OperatorMatrix = field(repr=False)
    lambda_min: float
    sweep: TruncationSweep
    framed: GradedSymbol = field(repr=False, compare=False)


def localize(p: GradedSymbol, ns: tuple[int, ...] = DEFAULT_TRUNCATIONS,
             strict: bool = True) -> LocalizedOperator:
    """Build the localized operator and its lowest eigenvalue.

    p is pulled back once to the frame of its lead's best Gaussian (d = 1;
    see the module docstring), and the localized symbol is taken from the
    framed levels: T keeps every degree, so it is the localized symbol of
    p pulled back by T, and strict=True names the first monomial of p below
    its order, which T maps to itself plus later monomials.  The eigenvalue
    is resolved by a truncation sweep over `ns`; the stored matrix is the
    one at the final truncation, and the framed symbol is kept as `framed`.
    """
    framed = _framed(p)
    sym = localized_symbol(framed, strict=strict)
    sweep = truncation_sweep(sym, 1.0, list(ns))
    return LocalizedOperator(
        source=p,
        k=p.k,
        symbol=sym,
        matrix=sweep.matrix,
        lambda_min=sweep.lambda_min,
        sweep=sweep,
        framed=framed,
    )


# ---------------------------------------------------------------------------
# Hypothesis diagnosis
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def unit_sphere_grid(d: int) -> np.ndarray:
    """Deterministic angular grid on the unit sphere of R^(2d).

    720 points on the circle for d = 1; a 3-angle hyperspherical product
    grid with more than 10^4 points on S^3 for d = 2.  Built once per
    process and shared read-only, as are its column powers (`_grid_power`).
    """
    if d == 1:
        theta = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        grid = np.column_stack([np.cos(theta), np.sin(theta)])
    elif d == 2:
        t1 = np.linspace(0.0, math.pi, 22)
        t2 = np.linspace(0.0, math.pi, 22)
        t3 = np.linspace(0.0, 2.0 * math.pi, 23, endpoint=False)
        a, b, c = np.meshgrid(t1, t2, t3, indexing="ij")
        a, b, c = a.ravel(), b.ravel(), c.ravel()
        grid = np.column_stack([
            np.cos(a),
            np.sin(a) * np.cos(b),
            np.sin(a) * np.sin(b) * np.cos(c),
            np.sin(a) * np.sin(b) * np.sin(c),
        ])
    else:
        raise DimensionMismatch(f"sphere sampling supports 1 <= d <= 2, got d={d}")
    grid.setflags(write=False)
    return grid


@functools.lru_cache(maxsize=128)
def _grid_power(d: int, axis: int, k: int) -> np.ndarray:
    """Read-only `column ** k` of the grid, from the view (address, stride)
    that `evaluate` reads, so bit-identical.  At most 128 arrays of 89 KB
    (11.4 MB): every (axis, k) of a d = 2 lead up to MAX_DEGREE = 32."""
    out = unit_sphere_grid(d)[:, axis] ** k
    out.setflags(write=False)
    return out


@dataclass
class HypothesisDiagnosis:
    """Outcome of the three standing hypotheses for one graded symbol.

    `ok` is the conjunction; a failed hypothesis is reported here, not raised.
    """

    vanishing_ok: bool
    vanishing_violations: dict[int, list[str]]
    ellipticity_ok: bool
    ellipticity_min: float
    ellipticity_floor: float
    positivity_ok: bool
    lambda_min: float
    truncations: list[int]
    sweep_values: list[float]
    # the operator the positivity check built; None when it is not Hermitian
    localized: LocalizedOperator | None = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.vanishing_ok and self.ellipticity_ok and self.positivity_ok

    def summary_lines(self) -> list[str]:
        lines = []
        mark = lambda b: "pass" if b else "FAIL"
        lines.append(f"(a) vanishing orders: {mark(self.vanishing_ok)}")
        for j, monos in sorted(self.vanishing_violations.items()):
            lines.append(f"      level {j} offending monomials: {', '.join(monos)}")
        lines.append(
            f"(b) transverse ellipticity: {mark(self.ellipticity_ok)} "
            f"(min sampled {self.ellipticity_min:.6g}, floor {self.ellipticity_floor:.3g})"
        )
        lines.append(
            f"(c) localized positivity: {mark(self.positivity_ok)} "
            f"(lambda_min {self.lambda_min:.9g} at N={self.truncations[-1]})"
        )
        lines.append(f"verdict: {'pass' if self.ok else 'FAIL'}")
        return lines


def hypothesis_check(p: GradedSymbol,
                     ns: tuple[int, ...] = DEFAULT_TRUNCATIONS) -> HypothesisDiagnosis:
    """Diagnose the vanishing-order, ellipticity, and positivity
    hypotheses for a graded symbol.  A failed hypothesis is reported, not
    raised; a ladder past the quantizer's limits still raises
    ResourceLimitError (a d = 2 model on the default ladder).  Checks (a)
    and (b) read p as written; (c) solves localize(p, ns, strict=False),
    whose operator is kept as `localized` (with the framed p, from which
    lambda_sweep folds its rows, so that a sweep finds the frame once), or
    None when it is not Hermitian."""
    violations: dict[int, list[str]] = {}
    for j, q in p.levels.items():
        if j > p.k:
            continue
        need = 2 * p.k - 2 * j
        bad = [str(PolynomialSymbol.monomial(p.d, idx, c))
               for idx, c in q.iter_terms() if sum(idx) < need]
        if bad:
            violations[j] = bad
    vanishing_ok = not violations

    lead, _ = taylor_transverse(p.levels.get(0, PolynomialSymbol.zero(p.d)), 2 * p.k)
    vals = lead._evaluate(len(unit_sphere_grid(p.d)), functools.partial(_grid_power, p.d))
    real_vals = vals.real
    imag_ok = np.abs(vals.imag).max() <= 1e-12 * max(np.abs(vals).max(), 1e-300)
    floor = ELLIPTICITY_REL_FLOOR * float(np.abs(real_vals).max())
    ell_min = float(real_vals.min())
    ellipticity_ok = bool(imag_ok and floor > 0.0 and ell_min >= floor)

    op = None
    try:
        op = localize(p, ns=ns, strict=False)
        sweep = op.sweep
    except NonHermitianError:
        # a non-Hermitian localized operator has no lowest eigenvalue
        sweep = TruncationSweep(truncations=list(ns), values=[math.nan] * len(ns))
    return HypothesisDiagnosis(
        vanishing_ok=vanishing_ok,
        vanishing_violations=violations,
        ellipticity_ok=ellipticity_ok,
        ellipticity_min=ell_min,
        ellipticity_floor=floor,
        positivity_ok=bool(sweep.lambda_min > 0.0),
        lambda_min=sweep.lambda_min,
        truncations=list(sweep.truncations),
        sweep_values=list(sweep.values),
        localized=op,
    )


# ---------------------------------------------------------------------------
# Functoriality of localization under composition
# ---------------------------------------------------------------------------


def localization_product_check(p: GradedSymbol, q: GradedSymbol,
                               lam: float = 4.0, n: int = 16) -> float:
    """Residual of localize(p # q) against the product of the localized
    matrices, at the model scale hbar = 1.

    The graded composition is first cross-checked at the supplied
    Lambda: folding the symbolic graded star must reproduce the numeric
    star of the folded symbols at hbar = 1/Lambda (GradingError
    otherwise).  The returned residual is the max-norm difference of

        quantize(localized_symbol(p # q), 1, n)

    and the exact n-block of quantize(p_loc) @ quantize(q_loc); the
    identity is exact, so the residual is roundoff.
    """
    g = graded_star(p, q)

    folded = g.fold(lam)
    direct = moyal_star(p.fold(lam), q.fold(lam), 1.0 / lam)
    diff = folded - direct
    if not diff.is_zero():
        scale = folded.max_abs()
        worst = diff.max_abs()
        if worst > GRADING_CHECK_REL_TOL * max(scale, 1e-300):
            raise GradingError(
                f"graded star disagrees with folded star at Lambda={lam} "
                f"(relative deviation {worst / max(scale, 1e-300):.3e})"
            )

    sym_p = localized_symbol(p)
    sym_q = localized_symbol(q)
    sym_g = localized_symbol(g)

    lhs = weyl_quantize(sym_g, 1.0, n).entries
    pad = max(sym_p.degree(), 0) + max(sym_q.degree(), 0)
    grid, block = (n + pad,) * p.d, (slice(n),) * p.d
    # rows of a and columns of b in the leading n-block of each mode
    a = weyl_quantize(sym_p, 1.0, n + pad).entries.reshape(grid + (-1,))[block]
    b = weyl_quantize(sym_q, 1.0, n + pad).entries.reshape((-1,) + grid)[(..., *block)]
    rhs = a.reshape(n ** p.d, -1) @ b.reshape(-1, n ** p.d)
    return float(np.abs(lhs - rhs).max())
