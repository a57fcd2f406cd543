"""End-to-end verification of the scaling lower bound.

For a graded model p of codimension order k (order m normalized to 0),
the lowest eigenvalue of the hbar = 1/Lambda quantization of the folded
symbol scales like Lambda^-k times the bottom of the localized model
operator.  lambda_sweep measures this over a Lambda ladder: each row
records the lowest eigenvalue at an auto-escalated truncation, the
rescaled value Lambda^k * lambda_min, and the localized reference; the
verdict combines the hypothesis diagnosis, the limit match at the
largest Lambda, and the fitted log-log slope against -k.

melin_phase_diagram sweeps quadratic models (alpha, beta, gamma, s) and
compares the lowest eigenvalue of the quantized model against the
closed-form s + tr+/2.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .errors import MelinLabError
from .invariants import QuadraticData, melin_quantity
from .localize import hypothesis_check
from .quantize import MAX_TRUNCATION, TruncationSweep, _ladder, lowest_eigenvalue, weyl_quantize
from .symbols import GradedSymbol, PolynomialSymbol

__all__ = [
    "ModelSpec",
    "SweepRow",
    "SweepReport",
    "lambda_sweep",
    "PhasePoint",
    "PhaseReport",
    "melin_phase_diagram",
    "emit_report",
    "quadratic_form_symbol",
]

CONVERGENCE_REL = 1e-8
CONVERGENCE_ABS = 1e-12
PHASE_TRUNCATION = 64


@dataclass
class ModelSpec:
    """A graded model plus the experiment to run on it.

    The symbol's order m is normalized to 0 for experiments: folding
    uses the level weights Lambda^-j only, i.e. any overall Lambda^m is
    divided out before comparison.
    """

    symbol: GradedSymbol
    lambdas: list[float]
    truncations: list[int]
    limit_tol: float = 0.05
    slope_tol: float = 0.05

    def __post_init__(self):
        self.lambdas = [float(v) for v in self.lambdas]
        self.truncations = [int(v) for v in self.truncations]
        if not self.lambdas:
            raise ValueError("need at least one Lambda")
        if not all(v >= 1 for v in self.lambdas):  # NaN fails too
            raise ValueError(f"Lambda values must be numbers >= 1, got {self.lambdas}")
        if any(b <= a for a, b in zip(self.lambdas, self.lambdas[1:])):
            raise ValueError(f"Lambda values must be strictly increasing, got {self.lambdas}")
        if not _power_fits(self.lambdas[-1], self.symbol.k):
            raise ValueError(f"Lambda^k overflows a double at Lambda={self.lambdas[-1]:g}, "
                             f"k={self.symbol.k}")
        if not self.truncations:
            raise ValueError("need at least one truncation")
        if any(not 2 <= v <= MAX_TRUNCATION for v in self.truncations):
            raise ValueError(f"truncations must lie in [2, {MAX_TRUNCATION}], "
                             f"got {self.truncations}")
        if any(b <= a for a, b in zip(self.truncations, self.truncations[1:])):
            raise ValueError(f"truncations must be strictly increasing, got {self.truncations}")
        for name in ("limit_tol", "slope_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")


def _power_fits(base: float, k: int) -> bool:
    try:
        return math.isfinite(base) and math.isfinite(base ** k)
    except OverflowError:
        return False


@dataclass
class SweepRow:
    lam: float
    n_used: int
    lambda_min: float
    scaled: float
    reference: float


@dataclass
class SweepReport:
    """Result of a Lambda sweep; emit_report serializes it."""

    k: int
    rows: list[SweepRow]
    slope: float
    reference: float
    hypothesis_ok: bool
    verdict: str
    reasons: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return _record(self)

    def _csv_rows(self) -> list[list]:
        return _table(SweepRow, self.rows)

    @classmethod
    def from_json_dict(cls, data: dict) -> "SweepReport":
        rows = [_from_record(SweepRow, r) for r in data["rows"]]
        return _from_record(cls, {**data, "rows": rows})


def _converged_lowest(symbol: GradedSymbol, lam: float,
                      ladder: list[int]) -> tuple[float, int, str | None]:
    """Lowest eigenvalue at auto-escalating truncation.

    Walks the given ladder, then keeps doubling (cap 256) until the gap
    between successive truncations drops below 1e-8 |lambda| + 1e-12.
    A gap only counts when the two truncations differ by more than the
    symbol degree: the matrix couples Fock levels at most deg apart, so
    closer pairs can sit on a parity plateau that mimics convergence.
    The symbol is folded with m = 0 and its bands are peeled once, at
    the cap; rungs are assembled from them one at a time, and none past
    the converged one.  Returns (value, n_used, note) with a note when
    the cap is hit first; the visited rungs pass the same monotonicity
    gate as every TruncationSweep (MonotonicityError if a value rose).
    """
    folded = GradedSymbol(symbol.d, symbol.k, symbol.levels, m=0).fold(lam)
    ns = list(ladder)
    while ns[-1] * 2 <= MAX_TRUNCATION:
        ns.append(ns[-1] * 2)
    span = max(folded.degree(), 0) + 1
    visited, values = [], []
    note = f"Lambda={lam:g}: truncation cap {ns[-1]} hit before convergence"
    for rung in _ladder(folded, 1.0 / lam, ns):
        visited.append(rung.n)
        values.append(lowest_eigenvalue(rung))
        if (len(values) > 1 and visited[-1] - visited[-2] >= span
                and abs(values[-1] - values[-2])
                < CONVERGENCE_REL * abs(values[-1]) + CONVERGENCE_ABS):
            note = None
            break
    TruncationSweep(visited, values)
    return values[-1], visited[-1], note


def lambda_sweep(spec: ModelSpec, workers: int = 1) -> SweepReport:
    """Run the scaling sweep for a model.

    Rows are computed per Lambda (optionally in a thread pool; row order
    and values are independent of the worker count).  The verdict is
    "pass" iff the hypothesis diagnosis passes, the rescaled value at
    the largest Lambda matches the localized reference within limit_tol,
    and the fitted slope of log |lambda_min| against log Lambda matches
    -k within slope_tol.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    symbol = spec.symbol
    k = symbol.k
    diagnosis = hypothesis_check(symbol)
    reference, hypothesis_ok = diagnosis.lambda_min, diagnosis.ok
    reasons: list[str] = []
    if not hypothesis_ok:
        parts = []
        if not diagnosis.vanishing_ok:
            parts.append("vanishing orders (i)")
        if not diagnosis.ellipticity_ok:
            parts.append("transverse ellipticity (ii)")
        if not diagnosis.positivity_ok:
            parts.append("localized positivity (iii)")
        reasons.append("hypothesis failure: " + ", ".join(parts))
    del diagnosis  # the rows need neither it nor its localized matrix

    def one(lam: float) -> tuple[SweepRow, str | None]:
        val, n_used, note = _converged_lowest(symbol, lam, spec.truncations)
        return SweepRow(
            lam=lam,
            n_used=n_used,
            lambda_min=val,
            scaled=float(lam) ** k * val,
            reference=reference,
        ), note

    if workers == 1 or len(spec.lambdas) == 1:
        results = [one(lam) for lam in spec.lambdas]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, spec.lambdas))
    rows = [r for r, _ in results]
    notes = [n for _, n in results if n]

    fit = [(math.log(r.lam), math.log(abs(r.lambda_min)))
           for r in rows if r.lambda_min != 0.0 and r.lam > 0]
    if len(fit) >= 2:
        xs, ys = zip(*fit)
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = float("nan")

    last = rows[-1]
    if reference == 0.0:
        reasons.append("localized reference is zero; no limit to compare against")
    elif abs(last.scaled / reference - 1.0) > spec.limit_tol:
        reasons.append(
            f"scaled value {last.scaled:.6g} at Lambda={last.lam:g} misses the localized "
            f"reference {reference:.6g} beyond {spec.limit_tol:g}"
        )
    if not math.isfinite(slope) or abs(slope + k) > spec.slope_tol:
        reasons.append(f"fitted slope {slope:.4f} differs from -k = {-k} beyond {spec.slope_tol:g}")

    return SweepReport(
        k=k,
        rows=rows,
        slope=slope,
        reference=reference,
        hypothesis_ok=hypothesis_ok,
        verdict="pass" if not reasons else "fail",
        reasons=reasons,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Quadratic phase diagram
# ---------------------------------------------------------------------------


def quadratic_form_symbol(alpha: float, beta: float, gamma: float) -> PolynomialSymbol:
    """The d = 1 quadratic form alpha y^2 + 2 beta y eta + gamma eta^2."""
    return PolynomialSymbol(1, {(2, 0): alpha, (1, 1): 2.0 * beta, (0, 2): gamma})


@dataclass
class PhasePoint:
    alpha: float
    beta: float
    gamma: float
    s: float
    melin: float
    lambda_min: float
    error: float


@dataclass
class PhaseReport:
    points: list[PhasePoint]
    skipped: list[str]
    max_error: float

    def to_json_dict(self) -> dict:
        return _record(self)

    def _csv_rows(self) -> list[list]:
        return _table(PhasePoint, self.points)


def melin_phase_diagram(alphas, betas, gammas, svals, truncation: int = PHASE_TRUNCATION,
                        workers: int = 1) -> PhaseReport:
    """Compare lambda_min(quantize(Q0) + s) against s + tr+/2 on a grid.

    Indefinite points (alpha gamma - beta^2 <= 0) are skipped with a
    note.  The eigenvalue is computed once per (alpha, beta, gamma) and
    shifted by s, which is exact for the comparison.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    forms = [(float(a), float(b), float(g)) for a in alphas for b in betas for g in gammas]
    svals = [float(s) for s in svals]

    def one(form: tuple[float, float, float]):
        a, b, g = form
        if a * g - b * b <= 0.0 or a <= 0.0:
            return None, f"skipped indefinite point (alpha={a:g}, beta={b:g}, gamma={g:g})"
        hessian = np.array([[2.0 * a, 2.0 * b], [2.0 * b, 2.0 * g]])
        base = lowest_eigenvalue(weyl_quantize(quadratic_form_symbol(a, b, g), 1.0, truncation))
        tr_half = melin_quantity(QuadraticData(d=1, hessian=hessian))
        pts = []
        for s in svals:
            melin = tr_half + s
            lam_min = base + s
            pts.append(PhasePoint(a, b, g, s, melin, lam_min, abs(lam_min - melin)))
        return pts, None

    if workers == 1 or len(forms) == 1:
        results = [one(f) for f in forms]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, forms))

    points: list[PhasePoint] = []
    skipped: list[str] = []
    for pts, note in results:
        if note:
            skipped.append(note)
        else:
            points.extend(pts)
    max_error = max((p.error for p in points), default=0.0)
    return PhaseReport(points=points, skipped=skipped, max_error=max_error)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


# The one report key that is not its dataclass field's name.
_KEY_NAMES = {"lam": "lambda"}


@functools.cache
def _keys(cls) -> dict[str, str]:
    """{field name: report key} of a report dataclass, in field order."""
    return {f.name: _KEY_NAMES.get(f.name, f.name) for f in fields(cls)}


def _record(obj) -> dict:
    """A report dataclass as {key: value} in field order; lists are copied
    and the rows in them become records too."""
    record = {}
    for name, key in _keys(type(obj)).items():
        value = getattr(obj, name)
        if isinstance(value, list):
            value = [_record(v) if is_dataclass(v) else v for v in value]
        record[key] = value
    return record


def _from_record(cls, data: dict):
    """Inverse of _record for one dataclass level."""
    return cls(**{name: data[key] for name, key in _keys(cls).items()})


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _table(row_cls, rows: list) -> list[list]:
    """CSV rows: the keys of row_cls, then each row at 17 significant digits."""
    return [list(_keys(row_cls).values())] + [[_fmt(v) for v in _record(r).values()] for r in rows]


CSV_HEADER = list(_keys(SweepRow).values())


def render_report(report: SweepReport | PhaseReport, fmt: str) -> bytes:
    """Serialize a sweep or phase report to CSV (fixed columns) or JSON."""
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(report._csv_rows())
        return buf.getvalue().encode()
    if fmt == "json":
        return (json.dumps(report.to_json_dict(), indent=2) + "\n").encode()
    raise MelinLabError(f"unknown report format {fmt!r} (use csv or json)")


def emit_report(report: SweepReport | PhaseReport, fmt: str, path: str) -> None:
    """Write a report to disk; bytes are deterministic (LF endings, 17
    significant digits) so repeated runs are byte-identical."""
    data = render_report(report, fmt)
    with open(path, "wb") as fh:
        fh.write(data)


def parse_report(data: bytes | str) -> SweepReport:
    """Inverse of the JSON emission: parse_report(render_report(r)) == r."""
    if isinstance(data, bytes):
        data = data.decode()
    return SweepReport.from_json_dict(json.loads(data))
