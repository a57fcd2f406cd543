import functools
import importlib
import math

import numpy as np
import pytest

from melinlab.errors import DimensionMismatch, GradingError, NonHermitianError, VanishingOrderError
from melinlab.invariants import QuadraticData, melin_quantity
from melinlab.localize import (
    _lead_frame,
    hypothesis_check,
    localization_product_check,
    localize,
    localized_symbol,
    unit_sphere_grid,
)
from melinlab.models import harmonic_symbol, quadratic_model, quartic_model
from melinlab.quantize import weyl_quantize
from melinlab.symbols import GradedSymbol, PolynomialSymbol, eta, taylor_transverse, y
from oracles import pull_back_oracle, random_symplectic


def test_localized_symbol_quadratic_model():
    g = quadratic_model(1.5, 0.25, 0.75, s=-1.0)
    sym = localized_symbol(g)
    expect = (1.5 * y() ** 2 + 0.5 * (y() * eta()) + 0.75 * eta() ** 2
              + PolynomialSymbol.constant(1, -1.0))
    assert sym == expect


def test_localized_symbol_discards_higher_order_tail():
    g = quartic_model(sub_coeff=1.0, sextic=2.0)
    sym = localized_symbol(g)
    assert (4, 0) in sym.terms
    assert (6, 0) not in sym.terms
    assert sym == harmonic_symbol() ** 2 + harmonic_symbol()


def test_localized_symbol_ignores_levels_beyond_k():
    g = GradedSymbol(1, 1, {0: harmonic_symbol(),
                            2: 100.0 * y() ** 8,
                            3: PolynomialSymbol.constant(1, 99.0)})
    assert localized_symbol(g) == harmonic_symbol()
    # the vanishing-order check skips them too, even one of degree 1
    diag = hypothesis_check(GradedSymbol(1, 1, {0: harmonic_symbol(), 2: y()}), ns=(8, 16))
    assert diag.vanishing_ok and diag.vanishing_violations == {}
    assert diag.localized.symbol == harmonic_symbol()
    assert diag.lambda_min == pytest.approx(1.0, abs=1e-12)


def test_localized_symbol_strict_vanishing_error_names_level():
    g = GradedSymbol(1, 2, {0: harmonic_symbol() ** 2 + y() ** 2})
    with pytest.raises(VanishingOrderError, match="level 0"):
        localized_symbol(g)
    assert localized_symbol(g, strict=False) == harmonic_symbol() ** 2


def test_localized_symbol_additive_in_levels():
    a = GradedSymbol(1, 2, {0: harmonic_symbol() ** 2})
    b = GradedSymbol(1, 2, {1: 2.0 * harmonic_symbol()})
    merged = GradedSymbol(1, 2, {0: a.levels[0], 1: b.levels[1]})
    assert localized_symbol(merged) == localized_symbol(a) + localized_symbol(b)


def test_localized_symbol_idempotent_on_localized_models():
    g = quartic_model(sub_coeff=-1.0, constant=2.0)
    sym = localized_symbol(g)
    again = GradedSymbol(1, 2, {0: g.levels[0], 1: g.levels[1], 2: g.levels[2]})
    assert localized_symbol(again) == sym == g.fold(1.0)


def test_localize_quartic_spectrum():
    # quantize((y^2+eta^2)^2 + c (y^2+eta^2)) has eigenvalues
    # (2n+1)^2 + 1 + c (2n+1)
    for c, want in ((1.0, 3.0), (-1.0, 1.0), (-3.0, -1.0)):
        got = localize(quartic_model(sub_coeff=c), ns=(16, 32)).lambda_min
        levels = 2.0 * np.arange(40) + 1.0
        oracle = float((levels ** 2 + 1.0 + c * levels).min())
        assert oracle == want
        assert got == pytest.approx(want, abs=1e-10)


def test_localize_k1_reproduces_melin_quantity():
    alpha, beta, gamma, s = 1.5, 0.25, 0.75, -1.2
    g = quadratic_model(alpha, beta, gamma, s=s)
    loc = localize(g, ns=(32, 64))
    h = np.array([[2 * alpha, 2 * beta], [2 * beta, 2 * gamma]])
    want = melin_quantity(QuadraticData(1, h, subprincipal=s))
    assert loc.lambda_min == pytest.approx(want, abs=1e-8)


def test_localize_keeps_top_rung_matrix():
    squeezed = GradedSymbol(1, 2, {0: (5.0 * y() ** 2 + 0.8 * (y() * eta()) + 0.25 * eta() ** 2) ** 2,
                                   1: harmonic_symbol()})
    for g, ns in ((quartic_model(sub_coeff=1.0), (16, 32)),
                  (GradedSymbol(2, 1, {0: harmonic_symbol(2) + 0.5 * (y(2, 0) * eta(2, 1))}),
                   (4, 8)),
                  (squeezed, (16, 32))):
        loc = localize(g, ns=ns)
        np.testing.assert_array_equal(loc.matrix.entries,
                                      weyl_quantize(loc.symbol, 1.0, ns[-1]).entries)
        assert loc.matrix.n == ns[-1]
    # the squeezed symbol is the localized one pulled back by its lead's frame T,
    # and a power of a quadratic form pulls back to the power of its Williamson
    # normal form: here 1.09 (y^2 + eta^2)^2, 1.09 = 5 * 0.25 - 0.4^2
    a, c = _lead_frame(squeezed)
    framed = pull_back_oracle(localized_symbol(squeezed), [[a, 0.0], [c, 1.0 / a]])
    assert (loc.symbol - framed).max_abs() <= 1e-12 * framed.max_abs()
    lead = taylor_transverse(loc.symbol, 4)[0]
    assert (lead - 1.09 * harmonic_symbol() ** 2).max_abs() <= 1e-12


def test_squeezed_oscillator_powers_localize_to_k_factorial():
    # Weyl((h o S)^k) at hbar = 1 has the bottom k! for h = y^2 + eta^2 and any
    # symplectic S; in the plain frame k = 6 already raised MonotonicityError
    hs = pull_back_oracle(y() ** 2 + eta() ** 2, random_symplectic(np.random.default_rng(0), 1, 0.3))
    for k in (3, 4, 6, 8, 10, 12):
        loc = localize(GradedSymbol(1, k, {0: hs ** k}))
        assert loc.lambda_min == pytest.approx(math.factorial(k), rel=1e-12), k


@pytest.mark.parametrize("lead, k, reference", [
    ((y() ** 2 + 16.0 * eta() ** 2) ** 3, 3, 386.1242377636),
    ((y() ** 2 + 4.0 * eta() ** 2) ** 5, 5, 3841.2499951173),
])
def test_anisotropic_leads_localize_in_the_frame_of_their_best_gaussian(lead, k, reference):
    # the frame T = diag(2, 1/2) (diag(2^(1/2), 2^(-1/2))) turns the lead into
    # 64 h^3 (32 h^5), and every rung of the ladder gives one value; in the
    # plain frame the N = 128 rung rose by roundoff and raised MonotonicityError
    loc = localize(GradedSymbol(1, k, {0: lead, k - 1: y() ** 2 + eta() ** 2}))
    assert loc.lambda_min == pytest.approx(reference, rel=1e-10)
    assert loc.sweep.values == pytest.approx([loc.lambda_min] * 3, rel=1e-12)


def test_unit_sphere_grid_shapes_and_norms():
    g1 = unit_sphere_grid(1)
    assert g1.shape == (720, 2)
    np.testing.assert_allclose((g1 ** 2).sum(axis=1), 1.0, atol=1e-12)
    g2 = unit_sphere_grid(2)
    # the 22 x 22 x 23 angle grid less its 967 exact repeats, at t1 = 0 or t2 = 0
    assert g2.shape == (22 * 22 * 23 - 967, 4)
    assert len(np.unique(g2, axis=0)) == len(g2)
    np.testing.assert_allclose((g2 ** 2).sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        unit_sphere_grid(3)


def test_unit_sphere_grid_is_built_once_and_read_only():
    for d in (1, 2):
        grid = unit_sphere_grid(d)
        assert unit_sphere_grid(d) is grid
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 0] = 2.0


def test_unit_sphere_grid_rejects_d_below_one():
    for d in (0, -1):
        with pytest.raises(DimensionMismatch, match="1 <= d <= 2"):
            unit_sphere_grid(d)


def test_cached_grid_powers_match_evaluate_bit_for_bit():
    loc = importlib.import_module("melinlab.localize")
    rng = np.random.default_rng(14)
    for d in (1, 2):
        grid = unit_sphere_grid(d)
        for degree in range(2, 9):
            terms = {}
            for _ in range(6):
                idx = [0] * (2 * d)
                for axis in rng.integers(0, 2 * d, size=degree):
                    idx[axis] += 1
                terms[tuple(idx)] = float(rng.integers(-4, 5)) or 1.0
            terms[tuple(idx)] = 0.5 - 1.5j
            lead = PolynomialSymbol(d, terms)
            cached = lead._evaluate(len(grid), functools.partial(loc._grid_power, d))
            direct = lead.evaluate(grid[:, :d], grid[:, d:])
            assert cached.tobytes() == direct.tobytes(), (d, degree)
    power = loc._grid_power(2, 3, 5)
    assert not power.flags.writeable
    with pytest.raises(ValueError):
        power[0] = 2.0


def test_hypothesis_check_reuses_cached_grid_powers():
    loc = importlib.import_module("melinlab.localize")
    h = harmonic_symbol(2)
    hypothesis_check(GradedSymbol(2, 2, {0: h ** 2, 1: h}), ns=(4, 8))
    misses = loc._grid_power.cache_info().misses
    anisotropic = (1.2 * y(2, 0) ** 2 + 0.8 * eta(2, 0) ** 2 + y(2, 1) ** 2 + eta(2, 1) ** 2) ** 2
    other = GradedSymbol(2, 2, {0: anisotropic + 0.5 * (y(2, 0) ** 2 * y(2, 1) ** 2), 1: 0.7 * h})
    assert hypothesis_check(other, ns=(4, 8)).ellipticity_ok
    assert loc._grid_power.cache_info().misses == misses


def test_hypothesis_check_passes_quartic():
    diag = hypothesis_check(quartic_model(sub_coeff=1.0), ns=(16, 32))
    assert diag.vanishing_ok and diag.ellipticity_ok and diag.positivity_ok
    assert diag.ok
    assert diag.ellipticity_min == pytest.approx(1.0, rel=1e-12)
    assert diag.lambda_min == pytest.approx(3.0, abs=1e-10)
    assert any("verdict: pass" in ln for ln in diag.summary_lines())


def test_hypothesis_check_flags_negative_spectrum():
    diag = hypothesis_check(quartic_model(sub_coeff=-3.0), ns=(16, 32))
    assert diag.vanishing_ok and diag.ellipticity_ok
    assert not diag.positivity_ok
    assert not diag.ok
    assert diag.lambda_min == pytest.approx(-1.0, abs=1e-10)


# k = 3, multiplicity 2k = 6: level 0 is h^3 and level 2 is c h, h = y^2 + eta^2.
# Weyl(h) = H = hbar (2N + 1).  The Moyal product h # q = hq + (i hbar / 2) {h, q}
# - (hbar^2 / 8) P^2(h, q) + ..., P^2(h, q) = h_yy q_etaeta - 2 h_yeta q_yeta + h_etaeta q_yy,
# ends at second order since h is quadratic, and {h, q} = 0 for q a function of h.
# With h_yy = h_etaeta = 2 and h_yeta = 0: P^2(h, h) = 8, so Weyl(h^2) = H^2 + hbar^2;
# (h^2)_yy + (h^2)_etaeta = 16 h, so P^2(h, h^2) = 32 h and h # h^2 = h^3 - 4 hbar^2 h,
# i.e. H (H^2 + hbar^2) = Weyl(h^3) - 4 hbar^2 H, and Weyl(h^3) = H^3 + 5 hbar^2 H.
# At hbar = 1 the localized operator h^3 + c h is diagonal with entries
# f(n) = (2n + 1)^3 + (5 + c)(2n + 1): f(0) = 6 + c, and f(1) - f(0) = 36 + 2c, so the
# bottom is 6 + c exactly when c >= -18 (then f(n) - f(0) >= (2n + 1)^3 - 1 - 26n >= 0).
@pytest.mark.parametrize("c, bottom, ok", [(0.5, 6.5, True), (-7.0, -1.0, False)])
def test_hypothesis_check_k3_sextic_bottom_is_six_plus_c(c, bottom, ok):
    h = harmonic_symbol()
    diag = hypothesis_check(GradedSymbol(1, 3, {0: h ** 3, 2: c * h}), ns=(16, 32))
    assert diag.vanishing_ok and diag.ellipticity_ok
    assert diag.lambda_min == pytest.approx(bottom, abs=1e-12)
    assert diag.positivity_ok is ok and diag.ok is ok


def test_hypothesis_check_flags_degenerate_ellipticity():
    g = GradedSymbol(1, 2, {0: y() ** 4, 1: harmonic_symbol()})
    diag = hypothesis_check(g, ns=(8, 16))
    assert diag.vanishing_ok
    assert not diag.ellipticity_ok
    assert diag.ellipticity_min == pytest.approx(0.0, abs=1e-12)


def test_hypothesis_check_reports_vanishing_violations():
    g = GradedSymbol(1, 2, {0: harmonic_symbol() ** 2 + 0.5 * y() ** 2})
    diag = hypothesis_check(g, ns=(8, 16))
    assert not diag.vanishing_ok
    assert 0 in diag.vanishing_violations
    assert any("y^2" in s for s in diag.vanishing_violations[0])
    assert not diag.ok
    # a level-1 term of degree 1 < 2k - 2 is named in the summary
    g = GradedSymbol(1, 2, {0: harmonic_symbol() ** 2, 1: y()})
    diag = hypothesis_check(g, ns=(8, 16))
    assert diag.vanishing_violations == {1: ["y"]}
    assert "      level 1 offending monomials: y" in diag.summary_lines()


def test_hypothesis_check_reports_non_hermitian_localized_operator():
    # 0.3i y eta at level 1 enters the localized symbol; its matrix is not
    # Hermitian, so there is no lowest eigenvalue to report
    g = quartic_model(sub_coeff=1.0)
    g = GradedSymbol(1, 2, {**g.levels, 1: g.levels[1] + 0.3j * (y() * eta())})
    diag = hypothesis_check(g, ns=(8, 16))
    assert diag.vanishing_ok and diag.ellipticity_ok
    assert not diag.positivity_ok
    assert not diag.ok
    assert math.isnan(diag.lambda_min)
    assert diag.truncations == [8, 16]
    assert "verdict: FAIL" in diag.summary_lines()[-1]
    with pytest.raises(NonHermitianError):
        localize(g, ns=(8, 16))


def test_localization_product_check_is_roundoff():
    p = quadratic_model(1.0, 0.0, 1.0)
    q = quadratic_model(2.0, 0.25, 1.0, s=1.0)
    assert localization_product_check(p, q) < 1e-10
    assert localization_product_check(quartic_model(), p, n=12) < 1e-9


def test_localization_product_check_scalar_factor():
    p = quadratic_model(1.0, 0.0, 1.0, s=-1.0)
    scalar = GradedSymbol(1, 0, {0: PolynomialSymbol.constant(1, 2.0)})
    assert localization_product_check(p, scalar) < 1e-12
    assert localization_product_check(scalar, p) < 1e-12


def test_localization_product_check_transverse_pair():
    # y^2 # eta^2 picks up both a Poisson level and a constant level
    p = GradedSymbol(1, 1, {0: y() ** 2})
    q = GradedSymbol(1, 1, {0: eta() ** 2})
    assert localization_product_check(p, q, lam=8.0) < 1e-12


def test_localization_product_check_rejects_a_wrong_graded_star(monkeypatch):
    # `melinlab.localize` the attribute is the function, so patch the module
    module = importlib.import_module("melinlab.localize")
    true_star = module.graded_star

    def skewed(p, q):
        g = true_star(p, q)
        terms = dict(g.levels[0].terms)
        largest = max(terms, key=lambda idx: abs(terms[idx]))
        terms[largest] *= 1.0 + 1e-6
        return GradedSymbol(g.d, g.k, {**g.levels, 0: PolynomialSymbol(g.d, terms)}, m=g.m)

    monkeypatch.setattr(module, "graded_star", skewed)
    p = quadratic_model(1.0, 0.0, 1.0)
    q = quadratic_model(2.0, 0.25, 1.0, s=1.0)
    with pytest.raises(GradingError, match=r"at Lambda=4\.0 \(relative deviation 1\.000e-06\)"):
        localization_product_check(p, q)
