"""End-to-end verification of the scaling lower bound.

For a graded model p of codimension order k (order m normalized to 0),
the lowest eigenvalue of the hbar = 1/Lambda quantization of the folded
symbol scales like Lambda^-k times the bottom of the localized model
operator.  lambda_sweep measures this over a Lambda ladder, with the
symbol quantized, like the localized reference, in the Fock basis of its
lead's best Gaussian (d = 1; see melinlab.localize): each row
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
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .errors import MelinLabError
from .invariants import QuadraticData, melin_quantity
from .localize import DEFAULT_TRUNCATIONS, _diagnose, _framed, _localized, localized_symbol
from .models import quadratic_form_symbol
from .quantize import _check_truncations, _walk, lowest_eigenvalue, weyl_quantize
from .symbols import GradedSymbol

__all__ = [
    "ModelSpec",
    "SweepRow",
    "SweepReport",
    "lambda_sweep",
    "PhasePoint",
    "PhaseReport",
    "melin_phase_diagram",
    "emit_report",
    "render_report",
    "parse_report",
]

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
        _check_truncations(self.truncations)
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


def lambda_sweep(spec: ModelSpec, workers: int = 1) -> SweepReport:
    """Run the scaling sweep for a model.

    The symbol, with m = 0, is pulled back once to the frame of its
    lead's best Gaussian (d = 1; itself when T = I), and the localized
    reference is that framed symbol's, so the frame is computed once.
    Each row folds it at its Lambda, and quantize._walk walks all rows
    with escalation as one batch, each row stopping on its own.  A row
    that reaches the truncation cap unconverged gets a note and a reason:
    its value is only an upper bound of the bottom.  The verdict is "pass"
    iff no reason was found: the hypothesis diagnosis passes, every row
    converged, the rescaled value at the largest Lambda matches the
    localized reference within limit_tol, and the fitted slope of
    log |lambda_min| against log Lambda matches -k within slope_tol.
    workers (>= 1) is validated and kept for compatibility, and no output
    depends on it.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    symbol = spec.symbol
    k = symbol.k
    # an m = 0 symbol with T = I frames itself, so its cached merge serves every later sweep
    base = _framed(symbol if symbol.m == 0 else GradedSymbol(symbol.d, k, symbol.levels, m=0))
    reference_symbol = localized_symbol(base, strict=False)
    diagnosis = _diagnose(symbol, DEFAULT_TRUNCATIONS,
                          lambda: _localized(symbol, reference_symbol, DEFAULT_TRUNCATIONS))
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

    walks = _walk([base.fold(lam) for lam in spec.lambdas], [1.0 / lam for lam in spec.lambdas],
                  spec.truncations, escalate=True)
    rows, notes = [], []
    for lam, (walk, converged) in zip(spec.lambdas, walks):
        val, n_used = walk.lambda_min, walk.truncations[-1]
        rows.append(SweepRow(lam=lam, n_used=n_used, lambda_min=val,
                             scaled=float(lam) ** k * val, reference=reference))
        if not converged:
            notes.append(f"Lambda={lam:g}: truncation cap {n_used} hit before convergence")
            reasons.append(f"Lambda={lam:g}: not converged at the truncation cap {n_used}, "
                           f"so lambda_min is only an upper bound")

    fit = [(math.log(r.lam), math.log(abs(r.lambda_min)))
           for r in rows if r.lambda_min != 0.0]
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
    shifted by s, which is exact for the comparison.  The truncation is
    checked on entry.  Forms run in order; workers (>= 1) is validated
    and kept for compatibility, and no output depends on it.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _check_truncations([truncation])
    forms = [(float(a), float(b), float(g)) for a in alphas for b in betas for g in gammas]
    svals = [float(s) for s in svals]
    points: list[PhasePoint] = []
    skipped: list[str] = []
    for a, b, g in forms:
        if a * g - b * b <= 0.0 or a <= 0.0:
            skipped.append(f"skipped indefinite point (alpha={a:g}, beta={b:g}, gamma={g:g})")
            continue
        hessian = np.array([[2.0 * a, 2.0 * b], [2.0 * b, 2.0 * g]])
        base = lowest_eigenvalue(weyl_quantize(quadratic_form_symbol(a, b, g), 1.0, truncation))
        tr_half = melin_quantity(QuadraticData(d=1, hessian=hessian))
        for s in svals:
            melin = tr_half + s
            lam_min = base + s
            points.append(PhasePoint(a, b, g, s, melin, lam_min, abs(lam_min - melin)))
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
