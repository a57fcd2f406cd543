"""End-to-end acceptance gate.

Each test checks one headline guarantee of the package at its stated
tolerance and prints a single verdict line; run with -rP (the default
addopts) to see all verdicts.  References are produced by independent
oracles (closed-form spectra, symmetrized-product quantization, the
square-root pencil for the plus-trace), never by the code under test.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from melinlab.invariants import QuadraticData, trace_plus
from melinlab.localize import localize
from melinlab.models import harmonic_symbol, quadratic_model, quartic_model
from melinlab.quantize import (
    conjugation_residual,
    lowest_eigenvalue,
    truncation_sweep,
    weyl_quantize,
)
from melinlab.sweep import ModelSpec, lambda_sweep, melin_phase_diagram
from melinlab.symbols import (
    GradedSymbol,
    PolynomialSymbol,
    eta,
    graded_star,
    moyal_star,
    y,
)

from oracles import (
    number_operator,
    random_polynomial,
    random_psd_hessian,
    random_symplectic,
    trace_plus_oracle,
)


def _report(num, label, ok):
    print(f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({label}) failed"


def graded_registry():
    return {
        "harmonic-k1": quadratic_model(1.0, 0.0, 1.0),
        "tilted-k1": quadratic_model(2.0, 0.25, 1.0, s=-1.0),
        "quartic": quartic_model(1.0),
        "quartic-negative": quartic_model(-3.0),
        "quartic-sextic": quartic_model(1.0, sextic=1.0),
        "anisotropic-k2": GradedSymbol(
            1, 2, {0: y() ** 4 + eta() ** 4, 1: harmonic_symbol()}
        ),
        "d2-harmonic-k1": GradedSymbol(
            2,
            1,
            {
                0: harmonic_symbol(2),
                1: PolynomialSymbol.constant(2, -1.0),
            },
        ),
    }


def quartic_reference(c):
    """min over n of (2n+1)^2 + 1 + c (2n+1), by direct enumeration."""
    levels = 2.0 * np.arange(200) + 1.0
    return float((levels ** 2 + 1.0 + c * levels).min())


def test_criterion_01_star_matrix_consistency():
    # quantize(a # b) must equal quantize(a) @ quantize(b) on the leading
    # block, across 200 random degree <= 4 pairs and three hbar scales
    rng = np.random.default_rng(20260816)
    n, big = 32, 40
    start = time.time()
    worst = 0.0
    for trial in range(200):
        hbar = (1.0, 0.25, 1.0 / 64.0)[trial % 3]
        a = random_polynomial(rng, 1, 4, n_terms=5)
        b = random_polynomial(rng, 1, 4, n_terms=5)
        prod = (weyl_quantize(a, hbar, big).entries
                @ weyl_quantize(b, hbar, big).entries)[:n, :n]
        direct = weyl_quantize(moyal_star(a, b, hbar), hbar, n).entries
        err = np.abs(prod - direct).max() / max(1.0, np.abs(prod).max())
        worst = max(worst, err)
    elapsed = time.time() - start
    _report(1, f"star/matrix consistency (worst rel err {worst:.2e}, {elapsed:.1f}s)",
            worst < 1e-8 and elapsed < 30.0)


def test_criterion_02_harmonic_spectrum_exact():
    ok = True
    for hbar in (1.0, 0.25):
        spec = np.linalg.eigvalsh(weyl_quantize(harmonic_symbol(), hbar, 32).entries)
        want = hbar * (2.0 * np.arange(32) + 1.0)
        ok = ok and np.abs(np.sort(spec) - want).max() < 1e-12
    marginal = harmonic_symbol() - PolynomialSymbol.constant(1, 1.0)
    lam0 = lowest_eigenvalue(weyl_quantize(marginal, 1.0, 32))
    ok = ok and abs(lam0) < 1e-12
    _report(2, "harmonic oscillator spectrum exact (marginal form included)", ok)


def test_criterion_03_ground_state_equals_half_trace_plus():
    # lambda_min(quantize(Q0) + s) vs s + tr+/2 on a 10 x 10 x 10 x 5 grid
    start = time.time()
    rep = melin_phase_diagram(
        np.linspace(0.7, 2.5, 10),
        np.linspace(-0.5, 0.5, 10),
        np.linspace(0.7, 2.5, 10),
        np.linspace(-2.0, 2.0, 5),
        truncation=64,
    )
    elapsed = time.time() - start
    ok = (len(rep.points) == 5000 and rep.skipped == []
          and rep.max_error < 1e-6 and elapsed < 120.0)
    _report(3, f"ground state = tr+/2 on {len(rep.points)} grid points "
               f"(max err {rep.max_error:.2e}, {elapsed:.1f}s)", ok)


def test_criterion_04_trace_plus_invariance():
    rng = np.random.default_rng(20260817)
    worst_hom, worst_symp = 0.0, 0.0
    for trial in range(100):
        d = 1 + trial % 2
        h = random_psd_hessian(rng, d)
        base = trace_plus(h)
        for t in (0.5, 3.0):
            worst_hom = max(worst_hom, abs(trace_plus(t * h) / (t * base) - 1.0))
        for _ in range(20):
            s = random_symplectic(rng, d)
            moved = s.T @ h @ s
            moved = (moved + moved.T) / 2.0
            worst_symp = max(worst_symp, abs(trace_plus(moved) / base - 1.0))
    ok = worst_hom < 1e-12 and worst_symp < 1e-8
    _report(4, f"plus-trace homogeneity {worst_hom:.2e} / symplectic invariance "
               f"{worst_symp:.2e}", ok)


def test_criterion_05_scaling_law_sweep():
    start = time.time()
    lambdas = [16.0, 64.0, 256.0, 1024.0, 4096.0]
    spec = ModelSpec(quartic_model(1.0, sextic=1.0), lambdas=lambdas,
                     truncations=[16, 32])
    rep = lambda_sweep(spec)
    oracle = quartic_reference(1.0)
    ok = (rep.verdict == "pass"
          and abs(rep.rows[-1].scaled / oracle - 1.0) < 0.05
          and abs(rep.slope + 2.0) < 0.05
          and max(r.n_used for r in rep.rows) <= 128)

    neg = lambda_sweep(ModelSpec(quartic_model(-3.0), lambdas=lambdas,
                                 truncations=[16, 32]))
    neg_oracle = quartic_reference(-3.0)
    ok = (ok and neg.verdict == "fail"
          and not neg.hypothesis_ok
          and abs(neg.reference / neg_oracle - 1.0) < 1e-9
          and abs(neg.rows[-1].scaled / neg_oracle - 1.0) < 0.05)
    elapsed = time.time() - start
    ok = ok and elapsed < 300.0
    _report(5, f"Lambda^-k scaling law verified, negative control rejected "
               f"(slope {rep.slope:.4f}, {elapsed:.1f}s)", ok)


def test_criterion_06_graded_composition_consistency():
    rng = np.random.default_rng(20260818)
    lam = 4.0
    worst = 0.0
    for _ in range(50):
        p = GradedSymbol(1, 1, {0: random_polynomial(rng, 1, 2, n_terms=4),
                                1: random_polynomial(rng, 1, 2, n_terms=3)})
        q = GradedSymbol(1, 1, {0: random_polynomial(rng, 1, 2, n_terms=4),
                                1: random_polynomial(rng, 1, 1, n_terms=2)})
        left = graded_star(p, q).fold(lam)
        right = moyal_star(p.fold(lam), q.fold(lam), 1.0 / lam)
        diff = left - right
        err = max((abs(c) for c in diff.terms.values()), default=0.0)
        scale = max((abs(c) for c in left.terms.values()), default=1.0)
        worst = max(worst, err / max(scale, 1.0))
    _report(6, f"graded composition folds to the numeric star (worst {worst:.2e})",
            worst < 1e-8)


def test_criterion_07_comparison_operator():
    diag = number_operator(1, 1, 64)
    exact = np.array_equal(diag, 2.0 * np.arange(64) + 3.0)
    q = localize(quartic_model(1.0), ns=(32, 64)).matrix.entries
    n2 = number_operator(2, 1, 64)
    sandwich = q / np.sqrt(np.outer(n2, n2))
    lam0 = float(np.linalg.eigvalsh(sandwich)[0])
    ok = exact and lam0 > 0.0
    _report(7, f"comparison operator exact (N_1 = 2n+3) and dominates the "
               f"localized model (lambda_min {lam0:.3e})", ok)


def test_criterion_08_truncation_monotonicity():
    ok = True
    details = []
    for name, g in graded_registry().items():
        sym = g.fold(1.0)
        if sym.d == 2:
            ns = [4, 8, 16]
        elif sym.degree() >= 6:
            ns = [8, 16, 32]
        else:
            ns = [8, 16, 32, 64]
        sweep = truncation_sweep(sym, 1.0, ns)  # raises on any rise > 1e-10
        rises = [b - a for a, b in zip(sweep.values, sweep.values[1:])]
        details.append(f"{name} max rise {max(rises):.1e}")
        ok = ok and max(rises) <= 1e-10
    _report(8, "lowest eigenvalue nonincreasing under truncation growth "
               f"({'; '.join(details)})", ok)


def test_criterion_09_conjugation_covariance():
    worst = 0.0
    for name, g in graded_registry().items():
        n = 8 if g.d == 2 else 12
        for lam in (4.0, 64.0, 1024.0):
            worst = max(worst, conjugation_residual(g, lam, n))
    _report(9, f"metaplectic rescaling identity exact (worst residual {worst:.2e})",
            worst < 1e-10)


def test_criterion_10_cli_determinism(tmp_path):
    model = {
        "d": 1, "m": 0, "k": 2,
        "levels": [
            {"j": 0, "terms": [
                {"c": [1, 0], "y": [4], "eta": [0]},
                {"c": [2, 0], "y": [2], "eta": [2]},
                {"c": [1, 0], "y": [0], "eta": [4]},
            ]},
            {"j": 1, "terms": [
                {"c": [1, 0], "y": [2], "eta": [0]},
                {"c": [1, 0], "y": [0], "eta": [2]},
            ]},
        ],
        "sweep": {"lambdas": [16, 64, 256], "truncations": [16, 32]},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    outs = []
    for i, workers in ((0, "1"), (1, "3")):
        out = tmp_path / f"report{i}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "melinlab", "sweep", str(path),
             "--out", str(out), "--workers", workers],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    header_ok = outs[0].startswith(b"lambda,n_used,lambda_min,scaled,reference\n")
    ok = outs[0] == outs[1] and header_ok and b"\r" not in outs[0]
    _report(10, "CLI sweep output byte-deterministic with fixed CSV header", ok)
