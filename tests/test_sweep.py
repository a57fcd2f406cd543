import importlib
import json
import math

import numpy as np
import pytest

from melinlab import quantize, symbols
from melinlab.errors import MelinLabError, MonotonicityError
from melinlab.localize import _framed, _lead_frame, localized_symbol
from melinlab.models import harmonic_symbol, quartic_model
from melinlab.sweep import (
    CSV_HEADER,
    ModelSpec,
    SweepReport,
    emit_report,
    lambda_sweep,
    melin_phase_diagram,
    parse_report,
    quadratic_form_symbol,
    render_report,
)
from melinlab.symbols import GradedSymbol, PolynomialSymbol, eta, y
from oracles import pull_back_oracle, random_symplectic

# the function melinlab.localize shadows its module as a package attribute
localize_module = importlib.import_module("melinlab.localize")


def quartic_spec(sub_coeff=1.0, sextic=0.0, lambdas=(16.0, 64.0, 256.0),
                 truncations=(16, 32)):
    return ModelSpec(quartic_model(sub_coeff=sub_coeff, sextic=sextic),
                     lambdas=list(lambdas), truncations=list(truncations))


def test_model_spec_validation():
    g = quartic_model()
    with pytest.raises(ValueError):
        ModelSpec(g, lambdas=[], truncations=[16, 32])
    with pytest.raises(ValueError):
        ModelSpec(g, lambdas=[0.5, 2.0], truncations=[16, 32])
    with pytest.raises(ValueError):
        ModelSpec(g, lambdas=[4.0, 4.0], truncations=[16, 32])
    with pytest.raises(ValueError):
        ModelSpec(g, lambdas=[4.0, 16.0], truncations=[])
    with pytest.raises(ValueError):
        ModelSpec(g, lambdas=[4.0, 16.0], truncations=[1, 2])
    with pytest.raises(ValueError):
        ModelSpec(g, lambdas=[4.0, 16.0], truncations=[16, 16])
    # k = 2: Lambda^k must fit a double, and no rung may pass the cap
    for lambdas in ([16.0, 1e200], [16.0, math.inf]):
        with pytest.raises(ValueError, match="overflows a double"):
            ModelSpec(g, lambdas=lambdas, truncations=[16, 32])
    ModelSpec(g, lambdas=[16.0, 1e150], truncations=[16, 32])
    with pytest.raises(ValueError, match="256"):
        ModelSpec(g, lambdas=[16.0], truncations=[16, 512])
    # NaN compares False with everything, so it must fail each check explicitly
    with pytest.raises(ValueError, match=">= 1"):
        ModelSpec(g, lambdas=[math.nan, 16.0, 64.0], truncations=[16, 32])
    for name in ("limit_tol", "slope_tol"):
        for tol in (math.nan, math.inf, 0.0, -0.1):
            with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
                ModelSpec(g, lambdas=[16.0, 64.0], truncations=[16, 32], **{name: tol})


def test_sweep_rows_pass_the_monotonicity_gate(monkeypatch):
    # a row whose rungs rise is an exactness bug, as in every TruncationSweep
    # (the two rows walk as one batch; the localized reference, a batch of
    # one at hbar = 1, is solved as usual)
    rising, solve = iter(range(100)), quantize._bottoms
    monkeypatch.setattr(quantize, "_bottoms", lambda bands, d, n, kind, hints, first: (
        [(float(next(rising)), first) for _ in hints] if len(hints) > 1
        else solve(bands, d, n, kind, hints, first)))
    with pytest.raises(MonotonicityError, match="padding exactness"):
        lambda_sweep(quartic_spec(lambdas=(16.0, 64.0)))


def test_sweep_exact_quartic_scaling():
    # for the pure quartic model the rescaled eigenvalue is Lambda-free
    rep = lambda_sweep(quartic_spec())
    assert rep.verdict == "pass"
    assert rep.hypothesis_ok
    assert rep.k == 2
    assert rep.reference == pytest.approx(3.0, abs=1e-10)
    for row in rep.rows:
        assert row.scaled == pytest.approx(3.0, rel=1e-9)
        assert row.reference == rep.reference
    assert rep.slope == pytest.approx(-2.0, abs=1e-9)
    assert rep.reasons == []


def test_sweep_perturbed_quartic_converges_to_reference():
    rep = lambda_sweep(quartic_spec(sextic=0.5,
                                    lambdas=(64.0, 256.0, 1024.0, 4096.0)))
    assert rep.verdict == "pass"
    errs = [abs(r.scaled / rep.reference - 1.0) for r in rep.rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-3
    assert rep.slope == pytest.approx(-2.0, abs=0.01)


def test_sweep_k3_sextic_scales_as_lambda_to_the_minus_3():
    # k = 3: level 0 h^3 + y^8 (y^8 is above degree 6 and drops out of the
    # localized symbol), level 1 y^4 + eta^4, level 2 h, h = y^2 + eta^2
    h = harmonic_symbol()
    g = GradedSymbol(1, 3, {0: h ** 3 + y() ** 8, 1: y() ** 4 + eta() ** 4, 2: h})
    rep = lambda_sweep(ModelSpec(g, lambdas=[16.0, 64.0, 256.0, 1024.0, 4096.0],
                                 truncations=[16, 32]))
    assert rep.verdict == "pass" and rep.reasons == []
    assert rep.k == 3
    assert rep.slope == pytest.approx(-3.0, abs=0.05)
    assert rep.reference == pytest.approx(8.49282, abs=1e-5)
    errs = [abs(r.scaled / rep.reference - 1.0) for r in rep.rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_sweep_negative_control_fails_with_reasons():
    rep = lambda_sweep(quartic_spec(sub_coeff=-3.0))
    assert rep.verdict == "fail"
    assert not rep.hypothesis_ok
    assert rep.reference == pytest.approx(-1.0, abs=1e-10)
    assert rep.rows[-1].scaled == pytest.approx(-1.0, rel=1e-9)
    assert any(r.startswith("hypothesis failure") for r in rep.reasons)
    assert any("localized positivity" in r for r in rep.reasons)


SEXTIC = quartic_model(sub_coeff=1.0, sextic=1.0)


@pytest.mark.parametrize("symbol, options, reason", [
    (SEXTIC, {"limit_tol": 1e-9}, "at Lambda=256 misses the localized reference 3 beyond 1e-09"),
    (SEXTIC, {"slope_tol": 1e-9}, "fitted slope -2.0117 differs from -k = -2 beyond 1e-09"),
    (SEXTIC, {"lambdas": [64.0]}, "fitted slope nan differs from -k = -2 beyond 0.05"),
    (GradedSymbol(1, 1, {0: y() ** 4}), {},
     "localized reference is zero; no limit to compare against"),
    (GradedSymbol(1, 2, {0: quartic_model().levels[0], 1: y()}), {},
     "hypothesis failure: vanishing orders (i)"),
    (GradedSymbol(1, 2, {0: y() ** 4}), {}, "hypothesis failure: transverse ellipticity (ii)"),
])
def test_sweep_verdict_names_each_failure(symbol, options, reason):
    spec = ModelSpec(symbol, **{"lambdas": [16.0, 64.0, 256.0], "truncations": [16, 32],
                                **options})
    rep = lambda_sweep(spec)
    assert rep.verdict == "fail"
    assert any(reason in r for r in rep.reasons), rep.reasons
    assert rep.hypothesis_ok == (symbol is SEXTIC)


def test_sweep_normalizes_overall_order():
    plain = lambda_sweep(quartic_spec())
    shifted = ModelSpec(
        GradedSymbol(1, 2, dict(quartic_model().levels), m=2),
        lambdas=[16.0, 64.0, 256.0], truncations=[16, 32],
    )
    rep = lambda_sweep(shifted)
    for a, b in zip(plain.rows, rep.rows):
        assert a.lambda_min == b.lambda_min
        assert a.scaled == b.scaled


def test_sweeps_of_one_m0_symbol_merge_its_levels_once(monkeypatch):
    # an m = 0 symbol is folded itself, so the merge it caches serves every sweep
    merges, merge = [], symbols._merge
    monkeypatch.setattr(symbols, "_merge", lambda *args: merges.append(1) or merge(*args))
    spec = quartic_spec()
    first = lambda_sweep(spec)
    assert lambda_sweep(spec).rows == first.rows
    assert len(merges) == 1


def test_sweep_escalates_past_parity_plateau():
    # y^4 + eta^4 couples Fock levels four apart, so a (2, 3) ladder
    # plateaus; escalation must push through it
    g = GradedSymbol(1, 2, {0: y() ** 4 + eta() ** 4})
    rep = lambda_sweep(ModelSpec(g, lambdas=[16.0, 64.0], truncations=[2, 3]))
    assert rep.verdict == "pass"
    for row in rep.rows:
        assert row.n_used > 3
        assert row.scaled == pytest.approx(rep.reference, rel=1e-9)


def squeezed_spec() -> ModelSpec:
    # level 0 is (r y^2 + eta^2 / r)(y^2 / r + r eta^2) + y^6 / 2 with r^2 = 300:
    # its ground state is squeezed along both axes at once, so no ladder up to
    # the cap converges.  Its lead is symmetric under y <-> eta, so the frame
    # of its best Gaussian is T = I and cannot unsqueeze it
    r = math.sqrt(300.0)
    level0 = ((r * y() ** 2 + (1.0 / r) * eta() ** 2) * ((1.0 / r) * y() ** 2 + r * eta() ** 2)
              + 0.5 * y() ** 6)
    g = GradedSymbol(1, 2, {0: level0, 1: 20.0 * (y() ** 2 + eta() ** 2)})
    return ModelSpec(g, lambdas=[16.0, 64.0], truncations=[16, 32])


def test_sweep_notes_the_truncation_cap():
    # an unconverged row's value is only an upper bound, so it fails the verdict
    rep = lambda_sweep(squeezed_spec())
    assert [row.n_used for row in rep.rows] == [256, 256]
    assert rep.verdict == "fail"
    assert rep.notes == ["Lambda=16: truncation cap 256 hit before convergence",
                         "Lambda=64: truncation cap 256 hit before convergence"]
    assert rep.reasons == [
        f"Lambda={lam}: not converged at the truncation cap 256, so lambda_min is only an "
        f"upper bound" for lam in (16, 64)]


def test_isotropic_leads_keep_the_plain_frame():
    # T = I exactly, so the rows fold the model as written, bit for bit
    h = y() ** 2 + eta() ** 2
    for g in [GradedSymbol(1, k, {0: h ** k}) for k in range(1, 5)] + [squeezed_spec().symbol]:
        assert _lead_frame(g) is None
        assert _framed(g) is g


def test_sweep_is_covariant_under_a_symplectic_change_of_variables():
    # in the frame of its best Gaussian a model and its pull-back by S differ
    # by a rotation, which is diagonal in the Fock basis; in the plain frame the
    # model's rows stopped at N = 64-128 and the pull-back's at N = 128-256
    quad = 5.0 * y() ** 2 + 0.8 * (y() * eta()) + 0.25 * eta() ** 2
    g = GradedSymbol(1, 2, {0: quad ** 2 + 0.5 * y() ** 6, 1: 0.8 * (y() ** 2 + eta() ** 2)})
    s = random_symplectic(np.random.default_rng(1), 1, 0.3)
    moved = GradedSymbol(1, 2, {j: pull_back_oracle(q, s) for j, q in g.levels.items()})
    lambdas = [16.0, 64.0, 256.0, 1024.0, 4096.0]
    a, b = (lambda_sweep(ModelSpec(p, lambdas, [16, 32])) for p in (g, moved))
    assert a.verdict == b.verdict == "pass"
    assert a.notes == b.notes == []
    assert [r.n_used for r in a.rows] == [r.n_used for r in b.rows] == [32] * 5
    assert b.reference == pytest.approx(a.reference, rel=1e-10)


@pytest.mark.parametrize("lead, k", [((y() ** 2 + 16.0 * eta() ** 2) ** 3, 3),
                                     ((y() ** 2 + 4.0 * eta() ** 2) ** 5, 5)])
def test_sweep_of_anisotropic_leads_at_k_above_2(lead, k):
    # in the plain frame the reference's N = 128 rung rose by roundoff and raised
    # MonotonicityError; the reference values are pinned in test_localize.py
    g = GradedSymbol(1, k, {0: lead, k - 1: y() ** 2 + eta() ** 2})
    rep = lambda_sweep(ModelSpec(g, lambdas=[16.0, 64.0, 256.0], truncations=[16, 32]))
    assert rep.verdict == "pass" and rep.notes == []
    assert [row.n_used for row in rep.rows] == [32, 32, 32]


def test_sweep_workers_do_not_change_results():
    spec = quartic_spec(sextic=0.25)
    a = lambda_sweep(spec, workers=1)
    b = lambda_sweep(spec, workers=3)
    assert a.to_json_dict() == b.to_json_dict()


def test_csv_rendering_is_fixed_format():
    rep = lambda_sweep(quartic_spec())
    data = render_report(rep, "csv")
    lines = data.split(b"\n")
    assert lines[0] == b"lambda,n_used,lambda_min,scaled,reference"
    assert lines[0].decode().split(",") == CSV_HEADER
    assert len(lines) == len(rep.rows) + 2 and lines[-1] == b""
    assert b"\r" not in data
    first = lines[1].decode().split(",")
    assert float(first[0]) == rep.rows[0].lam
    assert int(first[1]) == rep.rows[0].n_used
    assert float(first[2]) == rep.rows[0].lambda_min
    assert float(first[3]) == rep.rows[0].scaled
    assert float(first[4]) == rep.rows[0].reference


def test_render_rejects_unknown_format():
    rep = lambda_sweep(quartic_spec(lambdas=(4.0, 16.0)))
    with pytest.raises(MelinLabError):
        render_report(rep, "xml")


def test_json_report_round_trip():
    rep = lambda_sweep(quartic_spec(sub_coeff=-3.0))
    data = render_report(rep, "json")
    back = parse_report(data)
    assert back == rep
    parsed = json.loads(data)
    assert set(parsed["rows"][0]) == {"lambda", "n_used", "lambda_min",
                                      "scaled", "reference"}


def test_emit_report_is_byte_deterministic(tmp_path):
    spec = quartic_spec()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(lambda_sweep(spec), "csv", str(p1))
    emit_report(lambda_sweep(spec, workers=2), "csv", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_quadratic_form_symbol():
    sym = quadratic_form_symbol(1.5, 0.25, 0.75)
    assert sym == (1.5 * y() ** 2 + 0.5 * (y() * eta()) + 0.75 * eta() ** 2)


def test_phase_diagram_small_grid():
    rep = melin_phase_diagram([1.0, 2.0], [0.0], [1.0], [-1.0, 0.0],
                              truncation=32)
    assert len(rep.points) == 4
    assert rep.skipped == []
    assert rep.max_error < 1e-9
    marginal = [p for p in rep.points if p.alpha == 1.0 and p.s == -1.0]
    assert len(marginal) == 1
    assert marginal[0].melin == pytest.approx(0.0, abs=1e-12)
    assert marginal[0].lambda_min == pytest.approx(0.0, abs=1e-10)


def test_phase_diagram_skips_indefinite_points():
    rep = melin_phase_diagram([1.0], [1.1], [1.0], [0.0], truncation=16)
    assert rep.points == []
    assert len(rep.skipped) == 1
    assert "indefinite" in rep.skipped[0]
    assert rep.max_error == 0.0


def test_phase_diagram_checks_the_truncation_on_entry():
    # every point of this grid is indefinite, so no form is ever quantized
    for truncation in (1, 1000):
        with pytest.raises(ValueError, match="256"):
            melin_phase_diagram([1.0], [2.0], [1.0], [0.0], truncation=truncation)


def test_phase_diagram_workers_and_json():
    a = melin_phase_diagram([1.0, 1.5], [0.0, 0.25], [1.0], [0.0],
                            truncation=24, workers=1)
    b = melin_phase_diagram([1.0, 1.5], [0.0, 0.25], [1.0], [0.0],
                            truncation=24, workers=3)
    assert a.to_json_dict() == b.to_json_dict()
    assert {"points", "skipped", "max_error"} == set(a.to_json_dict())


def _anisotropic_spec() -> ModelSpec:
    # a squeezed, tilted lead, so the frame of its best Gaussian is not T = I
    quad = 5.0 * y() ** 2 + 0.8 * (y() * eta()) + 0.25 * eta() ** 2
    g = GradedSymbol(1, 2, {0: quad ** 2 + 0.5 * y() ** 6, 1: 0.8 * (y() ** 2 + eta() ** 2)})
    return ModelSpec(g, [16.0, 64.0, 256.0, 1024.0, 4096.0], [16, 32])


def test_a_sweep_finds_the_frame_once_and_keeps_its_reference_bits(monkeypatch):
    # the reference is the localized symbol of the framed model, which is the
    # localized symbol pulled back by the frame, bit for bit
    spec = _anisotropic_spec()
    frame = _lead_frame(spec.symbol)
    assert frame is not None
    loc = localize_module._pull_back(localized_symbol(spec.symbol, strict=False), frame)
    want = quantize.truncation_sweep(loc, 1.0, [32, 64, 128]).lambda_min
    calls, find = [], localize_module._frame
    monkeypatch.setattr(localize_module, "_frame", lambda *a: (calls.append(a), find(*a))[1])
    rep = lambda_sweep(spec)
    assert len(calls) == 1
    assert rep.reference == want
    assert rep.verdict == "pass"


def test_a_sweep_solves_its_rows_with_one_eigvalsh_per_rung(monkeypatch):
    # five rows that converge at N = 32: each rung's first sector is one
    # stacked eigvalsh over the rows, and every other sector certified
    shapes, solve = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: (shapes.append(a.shape), solve(a))[1])
    rep = lambda_sweep(quartic_spec(sextic=1.0, lambdas=(16.0, 64.0, 256.0, 1024.0, 4096.0)))
    assert [row.n_used for row in rep.rows] == [32] * 5
    # the localized reference is a batch of one
    assert [s for s in shapes if s[0] != 1] == [(5, 8, 8), (5, 16, 16)]
