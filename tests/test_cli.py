import importlib
import json
import math
import resource
import subprocess
import sys

import numpy as np
import pytest

from melinlab.cli import main
from melinlab.quantize import MAX_DEGREE, MAX_TRUNCATION
from melinlab.symbols import PolynomialSymbol


def quartic_model_dict(sub_coeff=1.0, **extra):
    model = {
        "d": 1,
        "m": 0,
        "k": 2,
        "levels": [
            {"j": 0, "terms": [
                {"c": [1, 0], "y": [4], "eta": [0]},
                {"c": [2, 0], "y": [2], "eta": [2]},
                {"c": [1, 0], "y": [0], "eta": [4]},
            ]},
            {"j": 1, "terms": [
                {"c": [sub_coeff, 0], "y": [2], "eta": [0]},
                {"c": [sub_coeff, 0], "y": [0], "eta": [2]},
            ]},
        ],
    }
    model.update(extra)
    return model


SWEEP_SECTION = {"lambdas": [16, 64, 256], "truncations": [16, 32]}
PHASE_SECTION = {"alpha": [1, 2, 2], "beta": [0, 0, 1], "gamma": [1, 1, 1],
                 "s": [-1, 0, 2], "truncation": 24}


def write_model(tmp_path, name="model.json", **kwargs):
    path = tmp_path / name
    path.write_text(json.dumps(quartic_model_dict(**kwargs)))
    return str(path)


def yeta_literal():
    a = json.dumps({"d": 1, "terms": [{"c": [1, 0], "y": [1], "eta": [0]}]})
    b = json.dumps({"d": 1, "terms": [{"c": [1, 0], "y": [0], "eta": [1]}]})
    return a, b


# ---------------------------------------------------------------------------
# traceplus
# ---------------------------------------------------------------------------


def test_traceplus_text(capsys):
    assert main(["traceplus", "--h", "2 0; 0 2", "--s", "-2"]) == 0
    out = capsys.readouterr().out
    assert "trace_plus = 2" in out
    assert "melin = -1" in out


def test_traceplus_json(capsys):
    assert main(["traceplus", "--h", "2 0; 0 2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["d"] == 1
    assert data["F"] == [[0.0, 2.0], [-2.0, 0.0]]
    assert data["trace_plus"] == pytest.approx(2.0, abs=1e-12)
    assert data["melin"] == pytest.approx(1.0, abs=1e-12)


def test_traceplus_h_file_rows_and_json_array(tmp_path, capsys):
    rows = tmp_path / "h.txt"
    rows.write_text("2 0\n0 2\n")
    assert main(["traceplus", "--h-file", str(rows), "--json"]) == 0
    a = json.loads(capsys.readouterr().out)
    arr = tmp_path / "h.json"
    arr.write_text("[[2, 0], [0, 2]]")
    assert main(["traceplus", "--h-file", str(arr), "--json"]) == 0
    b = json.loads(capsys.readouterr().out)
    assert a == b


def test_traceplus_indefinite_is_invalid_input(capsys):
    assert main(["traceplus", "--h", "1 0; 0 -1"]) == 2
    assert "hypothesis violated" in capsys.readouterr().err


def test_traceplus_malformed_matrix(tmp_path, capsys):
    assert main(["traceplus", "--h", "1 2; 3"]) == 2
    assert "error:" in capsys.readouterr().err
    # malformed JSON, a ragged array, non-numeric entries
    for i, text in enumerate(['[1, 2', '[[1,2],[3]]', '[["a","b"],["c","d"]]']):
        path = tmp_path / f"h{i}.json"
        path.write_text(text)
        assert main(["traceplus", "--h-file", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


def test_traceplus_non_finite_hessian_is_invalid_input(capsys):
    for text in ("nan 0; 0 1", "1 0; 0 inf"):
        assert main(["traceplus", "--h", text]) == 2
        assert "must be finite" in capsys.readouterr().err


def test_traceplus_odd_size_matrix(capsys):
    assert main(["traceplus", "--h", "1 0 0; 0 1 0; 0 0 1"]) == 2
    assert "even" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# localize
# ---------------------------------------------------------------------------


def test_localize_pass(tmp_path, capsys):
    model = write_model(tmp_path)
    assert main(["localize", model]) == 0
    out = capsys.readouterr().out
    assert "lambda_min = 3" in out
    assert "verdict: pass" in out


def test_localize_hypothesis_failure_exit_code(tmp_path, capsys):
    model = write_model(tmp_path, sub_coeff=-3.0)
    assert main(["localize", model]) == 3
    out = capsys.readouterr().out
    assert "lambda_min = -1" in out
    assert "FAIL" in out


def test_localize_json_and_dump_matrix(tmp_path, capsys):
    model = write_model(tmp_path)
    dump = tmp_path / "matrix.json"
    assert main(["localize", model, "--json", "--dump-matrix", str(dump)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["k"] == 2
    assert data["lambda_min"] == pytest.approx(3.0, abs=1e-10)
    assert data["diagnosis"]["ok"] is True
    sym = PolynomialSymbol.from_dict(data["symbol"])
    assert sym.degree() == 4
    blob = json.loads(dump.read_text())
    assert blob["d"] == 1 and blob["hbar"] == 1.0
    m = np.array(blob["re"]) + 1j * np.array(blob["im"])
    assert m.shape == (blob["n"], blob["n"])
    assert np.abs(m - m.conj().T).max() == 0.0


def test_localize_non_hermitian_model_is_invalid_input(tmp_path, capsys):
    model = quartic_model_dict()
    model["levels"][1]["terms"].append({"c": [0, 0.3], "y": [1], "eta": [1]})
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(model))
    assert main(["localize", str(path)]) == 2
    captured = capsys.readouterr()
    assert "not Hermitian" in captured.err
    assert "verdict: pass" not in captured.out


def test_localize_refuses_entries_past_the_overflow_limit(tmp_path, capsys):
    # schema-valid, but 1e307 y^4 overflows a double in the quantized matrix
    model = quartic_model_dict()
    model["levels"][0]["terms"] = [{"c": [1e307, 0], "y": [4], "eta": [0]},
                                   {"c": [1, 0], "y": [0], "eta": [4]}]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(model))
    assert main(["localize", str(path)]) == 2
    out, err = capsys.readouterr()
    assert "overflow limit" in err and "deviation" not in err
    assert "verdict" not in out


def test_localize_walks_the_ladder_once(tmp_path, monkeypatch, capsys):
    # the package's `localize` attribute is the function, not the module
    module = importlib.import_module("melinlab.localize")
    calls = []
    original = module.truncation_sweep

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "truncation_sweep", counting)
    assert main(["localize", write_model(tmp_path)]) == 0
    assert "lambda_min = 3" in capsys.readouterr().out
    assert len(calls) == 1


def test_localize_d2_default_ladder_is_rejected_before_allocating(tmp_path, capsys):
    # the default ladder (32, 64, 128) tops out at a 16384-row dense block
    quartic = [{"c": [1, 0], "y": ys, "eta": es} for ys, es in
               (([4, 0], [0, 0]), ([0, 0], [4, 0]), ([0, 4], [0, 0]), ([0, 0], [0, 4]))]
    quadratic = [{"c": [1, 0], "y": ys, "eta": es} for ys, es in
                 (([2, 0], [0, 0]), ([0, 0], [2, 0]), ([0, 2], [0, 0]), ([0, 0], [0, 2]))]
    path = tmp_path / "mode2.json"
    path.write_text(json.dumps({"d": 2, "m": 0, "k": 2, "levels": [
        {"j": 0, "terms": quartic}, {"j": 1, "terms": quadratic}]}))
    assert main(["localize", str(path)]) == 2
    err = capsys.readouterr().err
    assert "d=2, N=128" in err and "dimension 16384" in err and "limit 4096" in err


def test_exponents_above_the_degree_limit_are_rejected(tmp_path, capsys):
    # the schema caps each exponent; the quantizer caps the total degree
    huge = quartic_model_dict()
    huge["levels"][0]["terms"].append({"c": [1, 0], "y": [20000], "eta": [0]})
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(huge))
    assert main(["localize", str(path)]) == 2
    err = capsys.readouterr().err
    assert "levels/0/terms/3/y/0" in err and f"maximum of {MAX_DEGREE}" in err
    deep = quartic_model_dict(sweep=SWEEP_SECTION)
    deep["levels"][0]["terms"].append({"c": [1, 0], "y": [20], "eta": [20]})
    path.write_text(json.dumps(deep))
    assert main(["sweep", str(path), "--out", str(tmp_path / "r.csv")]) == 2
    assert f"symbol degree 40 is above the limit {MAX_DEGREE}" in capsys.readouterr().err


def test_localize_missing_file(capsys):
    assert main(["localize", "/nonexistent/model.json"]) == 2
    assert "cannot read model file" in capsys.readouterr().err


def test_localize_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["localize", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_localize_schema_violation(tmp_path, capsys):
    data = quartic_model_dict()
    data["levels"][0]["terms"][0]["zeta"] = [1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["localize", str(bad)]) == 2
    assert "model file invalid" in capsys.readouterr().err


def test_localize_rejects_non_half_integer_order(tmp_path, capsys):
    model = write_model(tmp_path, m=0.3)
    assert main(["localize", model]) == 2
    assert "half-integer" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_pass_writes_csv(tmp_path, capsys):
    model = write_model(tmp_path, sweep=SWEEP_SECTION)
    out = tmp_path / "report.csv"
    assert main(["sweep", model, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "verdict: pass" in stdout
    data = out.read_bytes()
    assert data.startswith(b"lambda,n_used,lambda_min,scaled,reference\n")
    assert b"\r" not in data


def test_sweep_negative_control_exit_code(tmp_path, capsys):
    model = write_model(tmp_path, sub_coeff=-3.0, sweep=SWEEP_SECTION)
    out = tmp_path / "report.csv"
    assert main(["sweep", model, "--out", str(out)]) == 4
    stdout = capsys.readouterr().out
    assert "verdict: fail" in stdout
    assert "hypothesis failure" in stdout
    assert out.exists()


def test_sweep_slope_failure_exit_code(tmp_path, capsys):
    # one Lambda leaves no slope to fit
    model = write_model(tmp_path, sweep={"lambdas": [64], "truncations": [16, 32]})
    assert main(["sweep", model, "--out", str(tmp_path / "report.csv")]) == 4
    stdout = capsys.readouterr().out
    assert "verdict: fail" in stdout
    assert "fitted slope nan differs from -k = -2" in stdout


def test_sweep_requires_section(tmp_path, capsys):
    model = write_model(tmp_path)
    assert main(["sweep", model, "--out", str(tmp_path / "r.csv")]) == 2
    assert 'no "sweep" section' in capsys.readouterr().err


def test_sweep_json_format(tmp_path, capsys):
    model = write_model(tmp_path, sweep=SWEEP_SECTION)
    out = tmp_path / "report.json"
    assert main(["sweep", model, "--out", str(out), "--format", "json",
                 "--json"]) == 0
    stdout = json.loads(capsys.readouterr().out)
    filed = json.loads(out.read_text())
    assert stdout == filed
    assert filed["verdict"] == "pass"
    assert [r["lambda"] for r in filed["rows"]] == [16.0, 64.0, 256.0]


def test_sweep_workers_flag(tmp_path, capsys):
    model = write_model(tmp_path, sweep=SWEEP_SECTION)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", model, "--out", str(out1), "--workers", "3"]) == 0
    assert main(["sweep", model, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_rejects_workers_below_one(tmp_path, capsys):
    model = write_model(tmp_path, sweep=SWEEP_SECTION)
    assert main(["sweep", model, "--out", str(tmp_path / "r.csv"), "--workers", "0"]) == 2
    assert "--workers must be >= 1, got 0" in capsys.readouterr().err


def test_sweep_prints_a_note_per_row_that_hits_the_cap(tmp_path, capsys):
    # level 0 is (r y^2 + eta^2 / r)(y^2 / r + r eta^2) + y^6 / 2 with r^2 = 300,
    # expanded, and 20 (y^2 + eta^2) level 1: the lead's frame is T = I
    model = quartic_model_dict(sub_coeff=20.0, sweep={"lambdas": [16, 64], "truncations": [16, 32]})
    model["levels"][0]["terms"] = [
        {"c": [c, 0], "y": [ypow], "eta": [epow]}
        for c, ypow, epow in ((1.0, 4, 0), (300.0 + 1.0 / 300.0, 2, 2), (1.0, 0, 4), (0.5, 6, 0))]
    path = tmp_path / "squeezed.json"
    path.write_text(json.dumps(model))
    assert main(["sweep", str(path), "--out", str(tmp_path / "r.csv")]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if ln.startswith("note:")] == [
        "note: Lambda=16: truncation cap 256 hit before convergence",
        "note: Lambda=64: truncation cap 256 hit before convergence"]
    assert "verdict: fail" in lines


@pytest.mark.parametrize("base, k, printed", [(16.0, 3, "386.124237764"), (4.0, 5, "3841.24999512")])
def test_anisotropic_leads_at_k_above_2_localize_and_sweep(tmp_path, capsys, base, k, printed):
    # (y^2 + base eta^2)^k expanded at level 0, y^2 + eta^2 at level k - 1: both
    # commands exited 2 with a false "padding exactness is broken"
    lead = [{"c": [math.comb(k, i) * base ** (k - i), 0], "y": [2 * i], "eta": [2 * (k - i)]}
            for i in range(k + 1)]
    model = quartic_model_dict(k=k, sweep={"lambdas": [16, 64, 256], "truncations": [16, 32]})
    model["levels"] = [{"j": 0, "terms": lead}, {**model["levels"][1], "j": k - 1}]
    path = tmp_path / "anisotropic.json"
    path.write_text(json.dumps(model))
    assert main(["localize", str(path)]) == 0
    assert f"lambda_min = {printed}" in capsys.readouterr().out.splitlines()
    assert main(["sweep", str(path), "--out", str(tmp_path / "r.csv")]) == 0
    assert "verdict: pass" in capsys.readouterr().out.splitlines()


def test_sweep_ignores_workers_env(tmp_path, capsys, monkeypatch):
    # no module reads the environment; the former MELIN_LAB_WORKERS is inert
    model = write_model(tmp_path, sweep=SWEEP_SECTION)
    plain, env = tmp_path / "plain.csv", tmp_path / "env.csv"
    assert main(["sweep", model, "--out", str(plain)]) == 0
    monkeypatch.setenv("MELIN_LAB_WORKERS", "zero")
    assert main(["sweep", model, "--out", str(env)]) == 0
    capsys.readouterr()
    assert env.read_bytes() == plain.read_bytes()


def test_sweep_invalid_section_content(tmp_path, capsys):
    model = write_model(tmp_path,
                        sweep={"lambdas": [64, 16], "truncations": [16, 32]})
    assert main(["sweep", model, "--out", str(tmp_path / "r.csv")]) == 2
    assert "sweep section invalid" in capsys.readouterr().err


def test_truncations_above_the_cap_are_rejected_by_the_schema(tmp_path, capsys):
    # both truncation bounds of the schema are quantize.MAX_TRUNCATION
    cases = [("sweep", {"sweep": {**SWEEP_SECTION, "truncations": t}})
             for t in ([16, 512], [300])]
    cases.append(("phase", {"phase": {**PHASE_SECTION, "truncation": 300}}))
    for command, section in cases:
        model = write_model(tmp_path, **section)
        assert main([command, model, "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert "model file invalid at" in err
        assert f"is greater than the maximum of {MAX_TRUNCATION}" in err


def test_sweep_rejects_lambda_power_overflow_before_any_row(tmp_path, capsys, monkeypatch):
    def no_rows(*args):
        raise AssertionError("a sweep row ran")

    monkeypatch.setattr("melinlab.sweep._walk", no_rows)
    model = write_model(tmp_path, sweep={"lambdas": [16, 1e200], "truncations": [16, 32]})
    assert main(["sweep", model, "--out", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert "sweep section invalid" in err and "overflows a double" in err


# ---------------------------------------------------------------------------
# phase
# ---------------------------------------------------------------------------


def test_phase_text_and_csv(tmp_path, capsys):
    model = write_model(tmp_path, phase=PHASE_SECTION)
    out = tmp_path / "phase.csv"
    assert main(["phase", model, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "phase diagram: 4 points, 0 skipped" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,beta,gamma,s,melin,lambda_min,error"
    assert len(lines) == 5


def test_phase_requires_section(tmp_path, capsys):
    model = write_model(tmp_path)
    assert main(["phase", model]) == 2
    assert 'no "phase" section' in capsys.readouterr().err


def test_phase_json_summary(tmp_path, capsys):
    model = write_model(tmp_path, phase=PHASE_SECTION)
    assert main(["phase", model, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["points"] == 4
    assert data["skipped"] == 0
    assert data["max_error"] < 1e-9


def test_phase_rejects_bad_counts(tmp_path, capsys):
    # a fractional count, and a grid far past the point limit
    for key, rng in (("alpha", [1, 2, 2.5]), ("s", [0, 0, 1e12])):
        model = write_model(tmp_path, phase={**PHASE_SECTION, key: rng})
        assert main(["phase", model]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# star
# ---------------------------------------------------------------------------


def test_star_text(capsys):
    a, b = yeta_literal()
    assert main(["star", "--a", a, "--b", b, "--hbar", "1"]) == 0
    assert "0.5i + y*eta" in capsys.readouterr().out


def test_star_json(capsys):
    a, b = yeta_literal()
    assert main(["star", "--a", a, "--b", b, "--hbar", "0.5", "--json"]) == 0
    result = PolynomialSymbol.from_dict(json.loads(capsys.readouterr().out))
    assert result.terms[(1, 1)] == 1.0
    assert result.terms[(0, 0)] == 0.25j


def test_star_rejects_negative_hbar(capsys):
    a, b = yeta_literal()
    for hbar in ("-1", "nan", "inf"):
        assert main(["star", "--a", a, "--b", b, "--hbar", hbar]) == 2
        assert "hbar" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400"])
def test_non_finite_numbers_are_rejected_at_parse_time(tmp_path, capsys, literal):
    # Python's json reads all three as floats that are not finite
    model = json.dumps(quartic_model_dict(phase={**PHASE_SECTION, "alpha": ["@", 1, 2]}))
    path = tmp_path / "model.json"
    path.write_text(model.replace('"@"', literal))
    assert main(["phase", str(path)]) == 2
    err = capsys.readouterr().err
    assert "numbers must be finite" in err and literal in err
    a, b = yeta_literal()
    bad = a.replace("[1, 0]", f"[{literal}, 0]")
    assert main(["star", "--a", bad, "--b", b, "--hbar", "1"]) == 2
    err = capsys.readouterr().err
    assert "numbers must be finite" in err and literal in err


@pytest.mark.parametrize("coeff, hbar, reason", [
    (1, "1e200", "series weight overflows"),  # (i hbar/2)^2 is past a double
    (1e300, "0.5", "not finite"),             # 1e300 * 1e300 overflows, inf * 0 is NaN
])
def test_star_refuses_a_result_past_a_double(capsys, coeff, hbar, reason):
    a, b = (json.dumps({"d": 1, "terms": [{"c": [coeff, 0], "y": [ey], "eta": [ee]}]})
            for ey, ee in ((2, 0), (0, 2)))  # coeff y^2, coeff eta^2
    for mode in ([], ["--json"]):
        assert main(["star", "--a", a, "--b", b, "--hbar", hbar, *mode]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert reason in err and "Traceback" not in err


def test_star_refuses_a_series_past_its_byte_budget():
    # y1^32 y2^32 eta1^32 eta2^32 with itself, every exponent at the literal
    # limit: 1,185,921 series terms to order 128.  The child has 2.5 GB of
    # address space, where building that plan dies with a traceback.
    lit = json.dumps({"d": 2, "terms": [{"c": [1, 0], "y": [32, 32], "eta": [32, 32]}]})
    limit = 2_500_000 * 1024
    proc = subprocess.run(
        [sys.executable, "-m", "melinlab", "star", "--json", "--hbar", "0.5", "--a", lit, "--b", lit],
        capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "above the limit 1 GiB" in proc.stderr and "Traceback" not in proc.stderr


def test_star_rejects_bad_literal(capsys):
    _, b = yeta_literal()
    for bad in (
        {"d": 1, "terms": [{"c": [1, 0], "y": [1]}]},
        {"d": 1, "terms": 5},
        {"d": 1, "terms": [{"c": [1, 0], "y": 3, "eta": [0]}]},
    ):
        bad = json.dumps(bad)
        for pair in (["--a", bad, "--b", b], ["--a", b, "--b", bad]):
            assert main(["star", *pair, "--hbar", "1"]) == 2
            assert "term" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# parser-level behavior
# ---------------------------------------------------------------------------


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["traceplus", "--h", "2 0; 0 2", "--frobnicate"])
    assert exc.value.code == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "melinlab", "traceplus", "--h", "2 0; 0 2",
         "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["trace_plus"] == pytest.approx(2.0, abs=1e-12)
