"""Seeded workloads for the melinlab benchmark.

Every input is written as a model-file dict and passed through
``melinlab.modelfile.load_model_dict`` during set-up, so schema
validation is part of set-up time.  Inputs come in blocks: each block
draws one input from every stratum of the workload, so a run that
completes whole blocks sees the same mix of easy and hard inputs
whatever the seed.  The pool of blocks is fixed per workload; a run
that outlasts it starts over at the first block.

Correctness checks are independent of ``melinlab.invariants``: they
compare against closed forms computed here, or, for the scaling sweep,
against the verdict and notes of the program's own report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import melinlab
import melinlab.modelfile

SCALING_LAMBDAS = [16, 64, 256, 1024, 4096]
SCALING_TRUNCATIONS = [16, 32]
# (low, high) of the squeeze ratio alpha/gamma for each stratum of a block:
# isotropic ones stop at N=32-64; squeezed ones climb to N=128; the last
# climbs to N=256 at four of the five Lambdas.  Ratios of about 128 and
# above hit the N=256 cap, and gamma > alpha with the y^6 term fails the
# limit check, so both are left out.
SCALING_STRATA = [(0.5, 2.5), (20.0, 40.0), (20.0, 40.0), (20.0, 40.0), (72.0, 84.0)]
SCALING_BLOCKS = 6

PHASE_TRUNCATION = 64
PHASE_GRID = 8          # alpha, beta and gamma points per grid
PHASE_S_COUNT = 5
PHASE_BLOCKS = 10
PHASE_TOL = 1e-6

# Explicit d=2 ladder: dim <= 1024.  The library default (32, 64, 128)
# needs several GB at d=2 and is left out until dimension budgets exist.
MODE2_LADDER = (16, 32)
MODE2_RANDOM_PER_BLOCK = 3
MODE2_BLOCKS = 4
MODE2_TOL = 1e-9
MONOTONE_TOL = 1e-10

# (d, level-0 degree of p, level-0 degree of q) for each pair in a block.
STAR_STRATA = [(1, 4, 4), (1, 6, 6), (1, 8, 6), (1, 8, 8), (2, 4, 4), (2, 6, 4)]
STAR_BLOCKS = 4
STAR_LAMBDA = 4.0
# Truncation per d for localization_product_check and conjugation_residual.
# Kept small so that symbol algebra, not quantization, leads; the product
# check's residual is absolute and reaches 2e-8 at n=32 on d=1 pairs.
STAR_N = {1: 16, 2: 4}
STAR_TOL = 1e-8


class CheckFailed(Exception):
    """A task's output did not pass its correctness check."""


@dataclass
class Task:
    """One timed unit of work; ``run`` raises CheckFailed on a wrong result
    and returns the number of sweep rows with n_used >= 128 (or 0)."""

    label: str
    run: Callable[[], int]
    rows: int = 0


@dataclass
class Workload:
    """The input pool.  A traced run takes its per-layer figures over the
    first ``trace_blocks`` blocks, a fixed amount of work per seed."""

    blocks: list[list[Task]]
    trace_blocks: int
    properties: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Model-file dicts built from plain {exponent tuple: coefficient} polynomials
# ---------------------------------------------------------------------------


def _pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0.0) + ca * cb
    return out


def _padd(a: dict, b: dict, scale: float = 1.0) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0.0) + scale * c
    return out


def _ppow(a: dict, n: int) -> dict:
    out = a
    for _ in range(n - 1):
        out = _pmul(out, a)
    return out


def _terms(poly: dict, d: int) -> list[dict]:
    return [{"c": [float(c), 0.0], "y": list(k[:d]), "eta": list(k[d:])}
            for k, c in sorted(poly.items()) if c != 0.0]


def model_dict(d: int, k: int, levels: dict[int, dict], **sections) -> dict:
    out = {"d": d, "m": 0, "k": k,
           "levels": [{"j": j, "terms": _terms(p, d)} for j, p in sorted(levels.items())]}
    out.update(sections)
    return out


def _harmonic(d: int, scale: float = 1.0) -> dict:
    poly = {}
    for s in range(d):
        for half in (s, d + s):
            idx = [0] * (2 * d)
            idx[half] = 2
            poly[tuple(idx)] = scale
    return poly


def _load(data: dict):
    return melinlab.modelfile.load_model_dict(data)


# ---------------------------------------------------------------------------
# scaling_sweep: lambda_sweep over seeded d=1, k=2 models
# ---------------------------------------------------------------------------


def scaling_model(rng: np.random.Generator, lo: float, hi: float) -> dict:
    """(a y^2 + 2b y eta + g eta^2)^2 + c y^6 at level 0, sigma h at level 1,
    with squeeze ratio a/g drawn log-uniformly from [lo, hi]."""
    ratio = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    size = rng.uniform(0.8, 1.25)
    a, g = size * math.sqrt(ratio), size / math.sqrt(ratio)
    b = rng.uniform(-0.3, 0.3) * math.sqrt(a * g)
    quad = {(2, 0): a, (1, 1): 2.0 * b, (0, 2): g}
    level0 = _padd(_pmul(quad, quad), {(6, 0): rng.uniform(0.2, 1.0)})
    level1 = _harmonic(1, rng.uniform(0.5, 1.5))
    return model_dict(1, 2, {0: level0, 1: level1},
                      sweep={"lambdas": SCALING_LAMBDAS, "truncations": SCALING_TRUNCATIONS})


def _scaling_task(data: dict) -> Task:
    symbol, section, _ = _load(data)
    spec = melinlab.modelfile.sweep_spec_from_model(symbol, section)

    def run() -> int:
        report = melinlab.lambda_sweep(spec, workers=1)
        if report.verdict != "pass":
            raise CheckFailed(f"verdict {report.verdict}: {report.reasons}")
        if report.notes:
            raise CheckFailed(f"truncation cap notes: {report.notes}")
        return sum(r.n_used >= 128 for r in report.rows)

    return Task("scaling", run, rows=len(spec.lambdas))


def scaling_workload(rng: np.random.Generator) -> Workload:
    blocks = [[_scaling_task(scaling_model(rng, lo, hi)) for lo, hi in SCALING_STRATA]
              for _ in range(SCALING_BLOCKS)]
    return Workload(blocks, 2, {
        "models": SCALING_BLOCKS * len(SCALING_STRATA),
        "squeeze_strata": SCALING_STRATA,
        "lambdas": SCALING_LAMBDAS,
        "truncations": SCALING_TRUNCATIONS,
    })


# ---------------------------------------------------------------------------
# phase_grid: one melin_phase_diagram call per definite quadratic form
# ---------------------------------------------------------------------------


def phase_grid_dict(rng: np.random.Generator) -> dict:
    """A seeded grid of forms with alpha, gamma >= 0.5 and |beta| <= 0.45,
    so every point is definite (alpha gamma - beta^2 >= 0.0475)."""
    a0, g0 = rng.uniform(0.5, 2.0, 2)
    b0 = rng.uniform(-0.45, 0.15)
    s0 = rng.uniform(-2.0, 0.0)
    return model_dict(
        1, 1, {0: {(2, 0): a0, (1, 1): 2.0 * b0, (0, 2): g0}, 1: {(0, 0): s0}},
        phase={
            "alpha": [a0, a0 + rng.uniform(0.5, 2.0), PHASE_GRID],
            "beta": [b0, b0 + 0.3, PHASE_GRID],
            "gamma": [g0, g0 + rng.uniform(0.5, 2.0), PHASE_GRID],
            "s": [s0, s0 + 2.0, PHASE_S_COUNT],
            "truncation": PHASE_TRUNCATION,
        })


def _phase_tasks(data: dict) -> list[Task]:
    _, _, phase = _load(data)
    axes = {key: np.linspace(*phase[key][:2], int(phase[key][2]))
            for key in ("alpha", "beta", "gamma", "s")}
    svals = [float(s) for s in axes["s"]]
    truncation = phase["truncation"]

    def task(a: float, b: float, g: float) -> Task:
        def run() -> int:
            report = melinlab.melin_phase_diagram([a], [b], [g], svals,
                                                  truncation=truncation, workers=1)
            if report.skipped or len(report.points) != len(svals):
                raise CheckFailed(f"form ({a}, {b}, {g}) skipped: {report.skipped}")
            bottom = math.sqrt(a * g - b * b)
            for p in report.points:
                if abs(p.lambda_min - (p.s + bottom)) > PHASE_TOL:
                    raise CheckFailed(
                        f"form ({a}, {b}, {g}), s={p.s}: lambda_min {p.lambda_min} "
                        f"!= s + sqrt(ag - b^2) = {p.s + bottom}")
            return 0

        return Task("phase", run)

    return [task(float(a), float(b), float(g))
            for a in axes["alpha"] for b in axes["beta"] for g in axes["gamma"]]


def phase_workload(rng: np.random.Generator) -> Workload:
    blocks = [_phase_tasks(phase_grid_dict(rng)) for _ in range(PHASE_BLOCKS)]
    return Workload(blocks, 4, {
        "grids": PHASE_BLOCKS,
        "forms": sum(len(b) for b in blocks),
        "s_values_per_form": PHASE_S_COUNT,
        "truncation": PHASE_TRUNCATION,
    })


# ---------------------------------------------------------------------------
# mode2_localize: hypothesis_check on d=2, k=2 models
# ---------------------------------------------------------------------------


def mode2_dict(a1: float, g1: float, a2: float, g2: float, cross: float,
               sigma: float) -> dict:
    """(a1 y1^2 + g1 eta1^2 + a2 y2^2 + g2 eta2^2)^2 + cross y1^2 y2^2 at
    level 0 and sigma h_2 at level 1."""
    quad = {(2, 0, 0, 0): a1, (0, 0, 2, 0): g1, (0, 2, 0, 0): a2, (0, 0, 0, 2): g2}
    level0 = _padd(_pmul(quad, quad), {(2, 2, 0, 0): cross})
    return model_dict(2, 2, {0: level0, 1: _harmonic(2, sigma)})


def _mode2_task(data: dict, expected: float | None) -> Task:
    symbol, _, _ = _load(data)

    def run() -> int:
        diag = melinlab.hypothesis_check(symbol, ns=MODE2_LADDER)
        if not diag.ok:
            raise CheckFailed("hypothesis diagnosis failed: " + "; ".join(diag.summary_lines()))
        vals = diag.sweep_values
        if any(b > a + MONOTONE_TOL for a, b in zip(vals, vals[1:])):
            raise CheckFailed(f"ladder values increase: {vals}")
        if expected is not None and abs(diag.lambda_min - expected) > MODE2_TOL * expected:
            raise CheckFailed(f"isotropic lambda_min {diag.lambda_min} != {expected}")
        return 0

    return Task("mode2", run)


def mode2_workload(rng: np.random.Generator) -> Workload:
    d = 2
    blocks = []
    for _ in range(MODE2_BLOCKS):
        # Isotropic member h^2 + c h: Weyl(h^2) = H^2 + d hbar^2, so its
        # bottom at hbar = 1 is d^2 + d + c d.
        c = rng.uniform(0.3, 1.5)
        block = [_mode2_task(mode2_dict(1.0, 1.0, 1.0, 1.0, 0.0, c), d * d + d + c * d)]
        for _ in range(MODE2_RANDOM_PER_BLOCK):
            a1, g1, a2, g2 = rng.uniform(0.7, 1.4, 4)
            block.append(_mode2_task(
                mode2_dict(a1, g1, a2, g2, rng.uniform(0.0, 1.0), rng.uniform(0.5, 1.5)), None))
        blocks.append(block)
    return Workload(blocks, 2, {
        "models": MODE2_BLOCKS * (1 + MODE2_RANDOM_PER_BLOCK),
        "ladder": list(MODE2_LADDER),
        "dim_max": MODE2_LADDER[-1] ** d,
        "level0_terms": 10,
    })


# ---------------------------------------------------------------------------
# star_compose: graded_star, localization_product_check, conjugation_residual
# ---------------------------------------------------------------------------


def _star_quad(rng: np.random.Generator, d: int, coupled: bool) -> dict:
    """A positive quadratic form acting on each mode separately."""
    poly = {}
    for s in range(d):
        a, g = rng.uniform(0.5, 1.0, 2)
        b = rng.uniform(-0.2, 0.2) if coupled else 0.0
        for (i, j), c in (((s, s), a), ((s, d + s), 2.0 * b), ((d + s, d + s), g)):
            idx = [0] * (2 * d)
            idx[i] += 1
            idx[j] += 1
            if c:
                poly[tuple(idx)] = c
    return poly


def star_dict(rng: np.random.Generator, d: int, degree: int) -> dict:
    """k=2 graded symbol: level 0 = Q1^2 + 0.1 Q2^(degree/2) (degrees 4..degree),
    level 1 a quadratic form, level 2 a constant."""
    q1 = _star_quad(rng, d, True)
    level0 = _pmul(q1, q1)
    if degree > 4:
        level0 = _padd(level0, _ppow(_star_quad(rng, d, False), degree // 2), 0.1)
    level2 = {(0,) * (2 * d): rng.uniform(0.2, 1.0)}
    return model_dict(d, 2, {0: level0, 1: _star_quad(rng, d, True), 2: level2})


def _star_task(dp: dict, dq: dict) -> Task:
    p, _, _ = _load(dp)
    q, _, _ = _load(dq)
    n = STAR_N[p.d]

    def run() -> int:
        try:
            g = melinlab.graded_star(p, q)
            residual = melinlab.localization_product_check(p, q, lam=STAR_LAMBDA, n=n)
        except melinlab.GradingError as exc:
            raise CheckFailed(f"grading error: {exc}") from exc
        if g.k != p.k + q.k or g.max_degree() != p.max_degree() + q.max_degree():
            raise CheckFailed(f"graded_star: k={g.k}, degree {g.max_degree()}")
        conj = max(melinlab.conjugation_residual(s, STAR_LAMBDA, n) for s in (p, q))
        if not (residual <= STAR_TOL and conj <= STAR_TOL):
            raise CheckFailed(f"residuals {residual:.3e}, {conj:.3e} exceed {STAR_TOL}")
        return 0

    return Task("star", run)


def star_workload(rng: np.random.Generator) -> Workload:
    blocks = [[_star_task(star_dict(rng, d, dp), star_dict(rng, d, dq))
               for d, dp, dq in STAR_STRATA] for _ in range(STAR_BLOCKS)]
    return Workload(blocks, STAR_BLOCKS, {
        "pairs": STAR_BLOCKS * len(STAR_STRATA),
        "strata_d_degp_degq": STAR_STRATA,
        "truncation": STAR_N,
    })


WORKLOADS = {
    "scaling_sweep": scaling_workload,
    "phase_grid": phase_workload,
    "mode2_localize": mode2_workload,
    "star_compose": star_workload,
}


def build(name: str, seed: int) -> Workload:
    """Generate, validate and wrap the workload's input pool."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return WORKLOADS[name](rng)


def cli_model(seed: int) -> dict:
    """The model file given to the CLI sweep subprocess: an isotropic
    scaling_sweep model drawn from the seed."""
    return scaling_model(np.random.default_rng([seed, 99]), *SCALING_STRATA[0])


# ---------------------------------------------------------------------------
# Warm-up and canary
# ---------------------------------------------------------------------------

CANARY_MODEL = model_dict(
    1, 2, {0: _pmul(_harmonic(1), _harmonic(1)), 1: _harmonic(1)},
    sweep={"lambdas": [16, 64, 256], "truncations": [16, 32]})


def warm_up() -> None:
    """The first BLAS call and eigensolve, at dim 256; part of set-up."""
    melinlab.lowest_eigenvalue(melinlab.weyl_quantize(melinlab.harmonic_symbol(1), 1.0, 256))


def canary() -> None:
    """One small call into every layer, checked against closed forms.  It
    runs after set-up and before the timed tasks."""
    h = melinlab.harmonic_symbol(1)
    bottom = melinlab.lowest_eigenvalue(melinlab.weyl_quantize(h, 1.0, 64))
    if abs(bottom - 1.0) > 1e-9:
        raise CheckFailed(f"canary: harmonic ground state {bottom} != 1")
    symbol, section, _ = _load(CANARY_MODEL)
    report = melinlab.lambda_sweep(melinlab.modelfile.sweep_spec_from_model(symbol, section))
    # Localized symbol h^2 + h: bottom d^2 + d + c d = 3 at d = c = 1.
    if not report.hypothesis_ok or abs(report.reference - 3.0) > 1e-9:
        raise CheckFailed(f"canary: localized bottom {report.reference} != 3")
    phase = melinlab.melin_phase_diagram([2.0], [0.5], [1.0], [0.0, 1.0], truncation=32)
    for p in phase.points:
        if abs(p.lambda_min - (p.s + math.sqrt(1.75))) > PHASE_TOL:
            raise CheckFailed(f"canary: phase point {p}")
    residual = melinlab.localization_product_check(symbol, symbol, lam=STAR_LAMBDA, n=8)
    conj = melinlab.conjugation_residual(symbol, STAR_LAMBDA, 8)
    if not (residual <= STAR_TOL and conj <= STAR_TOL):
        raise CheckFailed(f"canary: residuals {residual:.3e}, {conj:.3e}")
