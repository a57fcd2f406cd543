import math
from fractions import Fraction

import numpy as np
import pytest

from melinlab.errors import DimensionMismatch, GradingError, VanishingOrderError
from melinlab.models import quartic_model
from melinlab.symbols import (
    GradedSymbol,
    HalfGradedPolynomial,
    PolynomialSymbol,
    bidifferential_power,
    eta,
    graded_star,
    moyal_star,
    poisson_bracket,
    scale_symbol,
    taylor_transverse,
    y,
)

from oracles import bidifferential_oracle, random_polynomial


def coeff_distance(a, b):
    diff = a - b
    return max((abs(c) for c in diff.terms.values()), default=0.0)


def harmonic():
    return y() ** 2 + eta() ** 2


def test_construction_drops_zero_terms():
    p = PolynomialSymbol(1, {(2, 0): 1.0, (0, 1): 0.0})
    assert p.terms == {(2, 0): 1.0}
    assert p.degree() == 2
    assert p.min_degree() == 2
    assert not p.is_zero()
    assert PolynomialSymbol.zero(2).is_zero()
    assert PolynomialSymbol.zero(2).degree() == -1


def test_is_real_detects_imaginary_coefficients():
    assert (y() + eta()).is_real()
    assert not (1j * y()).is_real()


def test_arithmetic_and_power():
    p = (y() + eta()) ** 2
    assert p == y() ** 2 + 2.0 * (y() * eta()) + eta() ** 2
    assert (p - p).is_zero()
    assert 2 * y() == y() + y()


def test_mixed_dimension_rejected():
    with pytest.raises(DimensionMismatch):
        y(1) + y(2)
    with pytest.raises(DimensionMismatch):
        moyal_star(y(1), eta(2), 1.0)
    # a JSON term whose exponent lists split 2d entries unevenly
    with pytest.raises(DimensionMismatch):
        PolynomialSymbol.from_dict({"d": 1, "terms": [{"c": [1, 0], "y": [1, 0], "eta": []}]})


def test_derivative_axis_convention():
    p = y() ** 2 * eta()
    assert p.derivative(0) == 2.0 * (y() * eta())
    assert p.derivative(1) == y() ** 2
    p2 = y(2, 1) * eta(2, 0)
    assert p2.derivative(1) == eta(2, 0)
    assert p2.derivative(2) == y(2, 1)


def test_evaluate_vectorized():
    p = y() ** 2 + 3.0 * eta() - 1.0
    yv = np.array([[0.0], [1.0], [2.0]])
    ev = np.array([[0.0], [1.0], [-1.0]])
    np.testing.assert_allclose(p.evaluate(yv, ev).real, [-1.0, 3.0, 0.0], atol=1e-15)


def test_json_round_trip_with_complex_coefficients():
    p = PolynomialSymbol(2, {(1, 0, 2, 0): 1.5 - 2.0j, (0, 0, 0, 1): 3.0})
    assert PolynomialSymbol.from_dict(p.to_dict()) == p


# ---------------------------------------------------------------------------
# Star product
# ---------------------------------------------------------------------------


def test_coordinate_star_fixes_convention():
    # y # eta = y eta + i hbar / 2, and the commutator is i hbar
    for hbar in (1.0, 0.25):
        s = moyal_star(y(), eta(), hbar)
        assert s == y() * eta() + PolynomialSymbol.constant(1, 0.5j * hbar)
        comm = s - moyal_star(eta(), y(), hbar)
        assert comm == PolynomialSymbol.constant(1, 1j * hbar)


def test_harmonic_square_picks_up_negative_hbar_squared():
    h = harmonic()
    for hbar in (1.0, 0.5):
        assert moyal_star(h, h, hbar) == h * h - PolynomialSymbol.constant(1, hbar ** 2)
    assert bidifferential_power(h, h, 2) == PolynomialSymbol.constant(1, 8.0)


def test_poisson_bracket_examples():
    assert poisson_bracket(y(), eta()) == PolynomialSymbol.constant(1, 1.0)
    got = poisson_bracket(harmonic(), y() * eta())
    assert got == 2.0 * y() ** 2 - 2.0 * eta() ** 2


def test_star_with_constant_is_plain_product():
    one = PolynomialSymbol.constant(1, 1.0)
    p = y() ** 3 + 2.0 * eta()
    assert moyal_star(p, one, 1.0) == p
    assert moyal_star(one, p, 1.0) == p
    assert moyal_star(p, PolynomialSymbol.zero(1), 1.0).is_zero()


def test_star_hbar_zero_is_commutative_product():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = random_polynomial(rng, 1, 3)
        b = random_polynomial(rng, 1, 3)
        assert moyal_star(a, b, 0.0) == a * b


def test_star_associativity():
    rng = np.random.default_rng(23)
    for d in (1, 2):
        for _ in range(8):
            a = random_polynomial(rng, d, 3, n_terms=4)
            b = random_polynomial(rng, d, 3, n_terms=4)
            c = random_polynomial(rng, d, 2, n_terms=3)
            left = moyal_star(moyal_star(a, b, 0.7), c, 0.7)
            right = moyal_star(a, moyal_star(b, c, 0.7), 0.7)
            scale = max(abs(v) for v in (left + right).terms.values())
            assert coeff_distance(left, right) <= 1e-10 * max(scale, 1.0)


def test_star_conjugation_antihomomorphism():
    rng = np.random.default_rng(31)
    for _ in range(6):
        a = random_polynomial(rng, 1, 3, real=False)
        b = random_polynomial(rng, 1, 3, real=False)
        left = moyal_star(a, b, 0.5).conjugate()
        right = moyal_star(b.conjugate(), a.conjugate(), 0.5)
        assert coeff_distance(left, right) <= 1e-12 * max(
            1.0, max(abs(v) for v in left.terms.values())
        )


def test_real_symbols_reversal_is_conjugation():
    rng = np.random.default_rng(37)
    for _ in range(6):
        a = random_polynomial(rng, 1, 4)
        b = random_polynomial(rng, 1, 4)
        assert coeff_distance(moyal_star(b, a, 1.0), moyal_star(a, b, 1.0).conjugate()) == 0.0


def test_degree_two_commutator_is_poisson_bracket():
    # B^j vanishes for j > 2 and B^2 is symmetric, so the commutator of
    # quadratics is exactly i hbar {a, b}
    rng = np.random.default_rng(41)
    for _ in range(6):
        a = random_polynomial(rng, 1, 2, n_terms=4)
        b = random_polynomial(rng, 1, 2, n_terms=4)
        comm = moyal_star(a, b, 0.5) - moyal_star(b, a, 0.5)
        assert coeff_distance(comm, 0.5j * poisson_bracket(a, b)) <= 1e-13


def test_star_rejects_negative_hbar():
    with pytest.raises(ValueError):
        moyal_star(y(), eta(), -1.0)
    for hbar in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            moyal_star(y(), eta(), hbar)


# ---------------------------------------------------------------------------
# Transverse Taylor splitting
# ---------------------------------------------------------------------------


def test_taylor_transverse_split():
    p = y() ** 4 + 2.0 * (y() ** 2 * eta() ** 2) + y() ** 6
    lead, rest = taylor_transverse(p, 4)
    assert lead == y() ** 4 + 2.0 * (y() ** 2 * eta() ** 2)
    assert rest == y() ** 6
    assert lead + rest == p


def test_taylor_transverse_strict_rejects_low_terms():
    p = y() ** 4 + y() ** 2
    lead, rest = taylor_transverse(p, 4, strict=False)
    assert lead == y() ** 4 and rest.is_zero()
    with pytest.raises(VanishingOrderError):
        taylor_transverse(p, 4, strict=True)


# ---------------------------------------------------------------------------
# Graded symbols
# ---------------------------------------------------------------------------


def test_graded_symbol_drops_zero_levels_and_sorts():
    g = GradedSymbol(1, 1, {2: PolynomialSymbol.zero(1), 0: harmonic()})
    assert list(g.levels) == [0]
    assert g.m == Fraction(0)


def test_graded_fold_weights():
    g = quartic_model(sub_coeff=3.0, constant=5.0)
    folded = g.fold(4.0)
    assert folded.terms[(4, 0)] == 1.0
    assert folded.terms[(2, 0)] == pytest.approx(3.0 / 4.0, rel=1e-15)
    assert folded.terms[(0, 0)] == pytest.approx(5.0 / 16.0, rel=1e-15)
    with pytest.raises(ValueError):
        g.fold(0.5)


def test_graded_fold_honors_fractional_order():
    g = GradedSymbol(1, 0, {0: y()}, m=Fraction(1, 2))
    assert g.fold(16.0).terms[(1, 0)] == pytest.approx(4.0, rel=1e-15)


def test_graded_json_round_trip():
    g = quartic_model(sub_coeff=-3.0, sextic=1.0)
    assert GradedSymbol.from_dict(g.to_dict()) == g
    bad = g.to_dict()
    bad["levels"].append({"j": 0, "terms": []})
    with pytest.raises(ValueError):
        GradedSymbol.from_dict(bad)


def test_graded_star_orders_add():
    p = quartic_model()
    q = quartic_model()
    g = graded_star(p, q)
    assert g.k == 4 and g.m == 0
    assert min(g.levels) == 0
    assert g.levels[0] == p.levels[0] * q.levels[0]


def test_graded_star_fold_consistency():
    # folding the graded composition at Lambda must agree with the
    # numeric star of the folded symbols at hbar = 1/Lambda
    rng = np.random.default_rng(47)
    lam = 4.0
    for _ in range(5):
        p = GradedSymbol(1, 1, {0: random_polynomial(rng, 1, 3),
                                1: random_polynomial(rng, 1, 2)})
        q = GradedSymbol(1, 1, {0: random_polynomial(rng, 1, 2),
                                1: random_polynomial(rng, 1, 1)})
        left = graded_star(p, q).fold(lam)
        right = moyal_star(p.fold(lam), q.fold(lam), 1.0 / lam)
        scale = max((abs(v) for v in left.terms.values()), default=1.0)
        assert coeff_distance(left, right) <= 1e-12 * max(scale, 1.0)


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------


def test_scale_symbol_exponents():
    g = quartic_model(sub_coeff=1.0, sextic=1.0)
    half = scale_symbol(g)
    exps = {e2 for (_, e2) in half.terms}
    # quartic and subprincipal terms sit at e = -2; the sextic tail at e = -3
    assert exps == {-4, -6}


def test_scale_symbol_fold_matches_manual_weights():
    g = quartic_model(sub_coeff=2.0)
    lam = 9.0
    folded = scale_symbol(g).fold(lam)
    expect = lam ** -2.0 * (harmonic() ** 2 + 2.0 * harmonic())
    assert coeff_distance(folded, expect) <= 1e-15


def test_scale_symbol_rejects_non_half_integer_order():
    g = GradedSymbol(1, 1, {0: harmonic()}, m=Fraction(1, 3))
    with pytest.raises(GradingError):
        scale_symbol(g)


def test_half_graded_rejects_non_integer_doubled_exponent():
    with pytest.raises(GradingError):
        HalfGradedPolynomial(1, {((1, 0), 1.5): 1.0})


def test_half_graded_fold_halves_exponent():
    h = HalfGradedPolynomial(1, {((1, 0), -1): 2.0})
    assert h.fold(4.0).terms[(1, 0)] == pytest.approx(1.0, rel=1e-15)


# ---------------------------------------------------------------------------
# The star series against a monomial-pair oracle
# ---------------------------------------------------------------------------


def seeded_symbol(rng, d, degree):
    """A random complex symbol of total degree <= degree with non-integer
    coefficients, so roundoff in the algebra is actually exercised."""
    p = random_polynomial(rng, d, degree, n_terms=8, real=False)
    return PolynomialSymbol(d, {k: c * rng.uniform(0.5, 1.5) for k, c in p.terms.items()})


def oracle_distance(p, expect):
    """Largest coefficient deviation relative to the largest expected one."""
    keys = set(p.terms) | set(expect)
    worst = max((abs(p.terms.get(k, 0.0) - expect.get(k, 0.0)) for k in keys), default=0.0)
    scale = max((abs(v) for v in expect.values()), default=0.0)
    return worst / (scale or 1.0)


def oracle_sum(weighted):
    out = {}
    for w, terms in weighted:
        for k, v in terms.items():
            out[k] = out.get(k, 0.0) + w * v
    return out


def star_oracle_pairs(seed):
    rng = np.random.default_rng(seed)
    for d in (1, 2):
        for deg_a, deg_b in ((2, 3), (4, 4), (6, 5), (6, 6)):
            yield seeded_symbol(rng, d, deg_a), seeded_symbol(rng, d, deg_b)


def test_bidifferential_power_matches_monomial_oracle():
    for a, b in star_oracle_pairs(11):
        for j in range(min(a.degree(), b.degree()) + 1):
            expect = bidifferential_oracle(a.terms, b.terms, a.d, j)
            assert oracle_distance(bidifferential_power(a, b, j), expect) <= 1e-13, (a.d, j)


def test_moyal_star_matches_monomial_oracle():
    for a, b in star_oracle_pairs(12):
        rmax = min(a.degree(), b.degree())
        for hbar in (0.3, 1.0):
            expect = oracle_sum(
                ((1j * hbar / 2) ** r / math.factorial(r),
                 bidifferential_oracle(a.terms, b.terms, a.d, r))
                for r in range(rmax + 1))
            assert oracle_distance(moyal_star(a, b, hbar), expect) <= 1e-13, (a.d, hbar)


def test_graded_star_levels_match_monomial_oracle():
    rng = np.random.default_rng(13)
    for d in (1, 2):
        p = GradedSymbol(d, 2, {0: seeded_symbol(rng, d, 6), 1: seeded_symbol(rng, d, 4)})
        q = GradedSymbol(d, 1, {0: seeded_symbol(rng, d, 5), 2: seeded_symbol(rng, d, 3)})
        expect = {}
        for jp, a in p.levels.items():
            for jq, b in q.levels.items():
                for r in range(min(a.degree(), b.degree()) + 1):
                    expect.setdefault(jp + jq + r, []).append(
                        ((0.5j) ** r / math.factorial(r),
                         bidifferential_oracle(a.terms, b.terms, d, r)))
        g = graded_star(p, q)
        assert set(g.levels) <= set(expect)
        for level, weighted in expect.items():
            got = g.levels.get(level, PolynomialSymbol.zero(d))
            assert oracle_distance(got, oracle_sum(weighted)) <= 1e-13, (d, level)


# ---------------------------------------------------------------------------
# Trusted construction of internal results
# ---------------------------------------------------------------------------


def assert_canonical(p):
    """p is what the validating constructor makes of its own terms: keys
    are tuples of 2d ints, coefficients nonzero Python complex."""
    assert p == PolynomialSymbol(p.d, p.terms)
    for k, c in p.terms.items():
        assert type(k) is tuple and len(k) == 2 * p.d and all(type(e) is int for e in k)
        assert type(c) is complex and c != 0


def test_internal_results_are_canonical():
    rng = np.random.default_rng(14)
    for a, b in star_oracle_pairs(15):
        results = [a * b, a + b, -a, a - b, 2.5 * a, a.conjugate(), moyal_star(a, b, 0.3),
                   *taylor_transverse(a, 3)]
        results += [a.derivative(axis) for axis in range(2 * a.d)]
        for r in results:
            assert_canonical(r)
        assert a - a == PolynomialSymbol.zero(a.d)
    for d in (1, 2):
        p = GradedSymbol(d, 2, {0: seeded_symbol(rng, d, 6), 1: seeded_symbol(rng, d, 4)})
        q = GradedSymbol(d, 1, {0: seeded_symbol(rng, d, 5), 2: seeded_symbol(rng, d, 3)})
        g = graded_star(p, q)
        for level in g.levels.values():
            assert_canonical(level)
        assert_canonical(g.fold(4.0))
        assert_canonical(scale_symbol(g).fold(4.0))


def test_public_constructors_validate_keys():
    with pytest.raises(DimensionMismatch):
        PolynomialSymbol(1, {(1, 0, 0): 1.0})
    with pytest.raises(ValueError, match="negative"):
        PolynomialSymbol(1, {(1, -1): 1.0})
    with pytest.raises(DimensionMismatch):
        PolynomialSymbol.monomial(2, (1, 0))
    with pytest.raises(ValueError, match="negative"):
        PolynomialSymbol.from_dict({"d": 1, "terms": [{"c": [1, 0], "y": [-2], "eta": [0]}]})
    with pytest.raises(DimensionMismatch):
        HalfGradedPolynomial(1, {((1, 0, 0), 2): 1.0})
    with pytest.raises(GradingError):
        HalfGradedPolynomial(1, {((1, 0), 0.5): 1.0})
    # the validating constructor still converts keys and coefficients
    assert_canonical(PolynomialSymbol(1, {(np.int64(2), 0): np.float64(1.5), (0, 1): 0}))
