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


@dataclass
class LocalizedOperator:
    """The localized model operator of a graded symbol at hbar = 1."""

    source: GradedSymbol
    k: int
    symbol: PolynomialSymbol
    matrix: OperatorMatrix = field(repr=False)
    lambda_min: float
    sweep: TruncationSweep


def localize(p: GradedSymbol, ns: tuple[int, ...] = DEFAULT_TRUNCATIONS,
             strict: bool = True) -> LocalizedOperator:
    """Build the localized operator and its lowest eigenvalue.

    The eigenvalue is resolved by a truncation sweep over `ns`; the
    stored matrix is the one at the final truncation.
    """
    sym = localized_symbol(p, strict=strict)
    sweep = truncation_sweep(sym, 1.0, list(ns))
    return LocalizedOperator(
        source=p,
        k=p.k,
        symbol=sym,
        matrix=sweep.matrix,
        lambda_min=sweep.lambda_min,
        sweep=sweep,
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
    ResourceLimitError (a d = 2 model on the default ladder).  Keeps the
    localized operator of the positivity check as `localized`."""
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
