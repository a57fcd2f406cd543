import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from melinlab.errors import DimensionMismatch, GradingError, VanishingOrderError
from melinlab import symbols
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

from oracles import bidifferential_oracle, evaluate_oracle, product_oracle, random_polynomial


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


def test_evaluate_matches_scalar_oracle():
    rng = np.random.default_rng(14)
    for d in (1, 2):
        for real in (True, False):
            for _ in range(20):
                p = random_polynomial(rng, d, 8, n_terms=int(rng.integers(1, 9)), real=real)
                pts = rng.uniform(-2.0, 2.0, size=(9, 2 * d))
                pts[0] = -np.abs(pts[0])
                got = p.evaluate(pts[:, :d], pts[:, d:])
                want, scale = evaluate_oracle(p.terms, pts.tolist())
                for g, w, sc in zip(got, want, scale):
                    assert abs(g - w) <= 1e-14 * sc, (p, g, w)


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


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_graded_fold_rejects_non_finite_lambda(lam):
    with pytest.raises(ValueError, match=">= 1"):
        quartic_model(1.0).fold(lam)


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


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_half_graded_fold_rejects_non_finite_lambda(lam):
    h = HalfGradedPolynomial(1, {((1, 0), -1): 2.0})
    with pytest.raises(ValueError, match=">= 1"):
        h.fold(lam)


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


def nonzero_partials(a, order, caps):
    """The multi-indices gamma <= caps, 1 <= |gamma| <= min(order, deg a),
    of the nonzero mixed partials d^gamma a: those below some exponent of a."""
    top = min(order, a.degree())
    return {gamma for gamma in itertools.product(range(top + 1), repeat=2 * a.d)
            if 1 <= sum(gamma) <= top and all(g <= c for g, c in zip(gamma, caps))
            and any(all(e >= g for e, g in zip(k, gamma)) for k in a.terms)}


def largest_exponents(p):
    """Per axis, the largest exponent over every level of a graded symbol."""
    return [max(k[s] for q in p.levels.values() for k in q.terms) for s in range(2 * p.d)]


def test_graded_star_takes_each_level_partials_once(monkeypatch):
    """One batched table per operand and call holds every nonzero partial
    of every level once, up to the other symbol's top degree and within the
    caps both operands set: a's partial (alpha, beta) is at most a's largest
    exponents and b's largest of (beta, alpha), and b's the same half-swapped.
    No derivative is taken one symbol at a time."""
    tables, calls = [], []
    partial_table, derivative = symbols._partial_table, PolynomialSymbol.derivative

    def recorded(levels, table, chain):
        tables.append((levels, table, partial_table(levels, table, chain)))
        return tables[-1][2]

    def counted(self, axis):
        calls.append(axis)
        return derivative(self, axis)

    monkeypatch.setattr(symbols, "_partial_table", recorded)
    monkeypatch.setattr(PolynomialSymbol, "derivative", counted)
    rng = np.random.default_rng(13)
    for d, expect in ((1, 47), (2, 112)):
        p = GradedSymbol(d, 2, {0: seeded_symbol(rng, d, 6), 1: seeded_symbol(rng, d, 4)})
        q = GradedSymbol(d, 1, {0: seeded_symbol(rng, d, 5), 2: seeded_symbol(rng, d, 3)})
        tables.clear()
        graded_star(p, q)
        assert [levels for levels, _, _ in tables] == [list(p.levels.values()),
                                                       list(q.levels.values())]
        assert not calls
        high_p, high_q = largest_exponents(p), largest_exponents(q)
        caps_p = [min(e, f) for e, f in zip(high_p, high_q[d:] + high_q[:d])]
        found = 0
        for (levels, table, (_, _, _, counts)), other, caps in zip(
                tables, (q, p), (caps_p, caps_p[d:] + caps_p[:d])):
            gammas = [tuple(g) for g in table.tolist()]
            for l, a in enumerate(levels):
                held = {gammas[g] for g in np.flatnonzero(counts[:, l]) if sum(gammas[g])}
                assert held == nonzero_partials(a, other.max_degree(), caps), (d, l)
                found += len(held)
        assert found == expect, d


# ---------------------------------------------------------------------------
# The commutative product's accumulation order
# ---------------------------------------------------------------------------


def hex_terms(terms):
    """Keys in dict order with each coefficient as float hex."""
    return [(k, c.real.hex(), c.imag.hex()) for k, c in terms.items()]


def test_product_matches_sorted_double_loop_bit_for_bit():
    for a, b in star_oracle_pairs(16):
        for left, right in ((a, b), (b, a), (a, a)):
            expect = product_oracle(left.terms, right.terms)
            assert hex_terms((left * right).terms) == hex_terms(expect), a.d
    # the y*eta terms cancel exactly and are dropped
    plus, minus = y() + 0.3 * eta(), y() - 0.3 * eta()
    assert hex_terms((plus * minus).terms) == hex_terms(product_oracle(plus.terms, minus.terms))
    assert (1, 1) not in (plus * minus).terms


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


# ---------------------------------------------------------------------------
# Keys that do not pack into int64
# ---------------------------------------------------------------------------


def wide_symbol(rng, n_terms=6):
    """d = 4 with exponents from 1000 to 4000: base (max + 1)^8 is far
    above 2^62, so keys are ranks of the distinct rows."""
    terms = {tuple(int(e) for e in rng.integers(1000, 4001, size=8)):
             complex(rng.normal(), rng.normal()) for _ in range(n_terms)}
    return PolynomialSymbol(4, terms)


def test_unpackable_exponents_sum_like_the_dict_loop():
    rng = np.random.default_rng(17)
    a, b = wide_symbol(rng), wide_symbol(rng)
    assert (2 * 4000 + 1) ** 8 > 2 ** 62
    for left, right in ((a, b), (b, a), (a, a)):
        expect = product_oracle(left.terms, right.terms)
        assert hex_terms((left * right).terms) == hex_terms(expect)
    total = dict(a.terms)
    for k, v in b.terms.items():
        total[k] = total.get(k, 0.0) + v
    assert hex_map(a + b) == hex_map_of(total)
    for axis in range(8):
        expect = {k[:axis] + (k[axis] - 1,) + k[axis + 1:]: 0.0 + v * k[axis]
                  for k, v in a.terms.items()}
        assert hex_map(a.derivative(axis)) == hex_map_of(expect)
    g = GradedSymbol(4, 0, {0: a, 1: b, 3: a * b})
    folded = {}
    for j, q in g.levels.items():
        for k, v in q.terms.items():
            folded[k] = folded.get(k, 0.0) + v * 4.0 ** -j
    assert hex_map(g.fold(4.0)) == hex_map_of(folded)


def test_unpackable_exponents_hand_values():
    y1 = (3000,) + (0,) * 7
    y1_half, y2 = (1500,) + (0,) * 7, (0, 1001) + (0,) * 6
    a = PolynomialSymbol(4, {y1_half: 2.0, y2: 1j})
    b = PolynomialSymbol(4, {y2: 3.0, y1_half: 5.0})
    both = (1500, 1001) + (0,) * 6
    assert (a * b).terms == {y1: 10.0, both: 6.0 + 5.0j, (0, 2002) + (0,) * 6: 3.0j}
    assert (a + b).terms == {y1_half: 7.0, y2: 3.0 + 1.0j}
    assert a.derivative(0).terms == {(1499,) + (0,) * 7: 3000.0}
    assert GradedSymbol(4, 0, {0: a, 1: b}).fold(2.0).terms == {y1_half: 4.5, y2: 1.5 + 1.0j}
    # the star kernel's keys (level, row) do not pack either: 301^8 > 2^62
    tall = PolynomialSymbol(4, {(300, 0, 0, 0, 1, 0, 0, 0): 2.0 + 1.0j, (0, 2, 0, 0, 0, 1, 0, 0): -1.0})
    low = PolynomialSymbol(4, {(1, 1, 0, 0, 1, 1, 0, 0): 0.5, (0, 0, 0, 0, 2, 0, 0, 0): 3.0j})
    expect = oracle_sum(((0.15j) ** r / math.factorial(r),
                         bidifferential_oracle(tall.terms, low.terms, 4, r)) for r in range(5))
    assert oracle_distance(moyal_star(tall, low, 0.3), expect) <= 1e-13
    # an exponent sum beyond int64 is refused, not wrapped
    huge = PolynomialSymbol.monomial(4, (2 ** 62,) + (0,) * 7)
    with pytest.raises(OverflowError):
        huge * huge


def test_total_degree_beyond_int64_is_refused():
    """A row's total degree must fit in int64, or degree() and the star
    kernel would read a wrapped sum: refused when built, and when a product
    or star series would produce one."""
    for build in (lambda: PolynomialSymbol(1, {(2 ** 62, 2 ** 62): 1.0}),
                  lambda: PolynomialSymbol.monomial(2, (2 ** 63, 0, 0, 0)),
                  lambda: HalfGradedPolynomial(1, {((2 ** 62, 2 ** 62), 0): 1.0})):
        with pytest.raises(OverflowError):
            build()
    edge = PolynomialSymbol(1, {(2 ** 62, 2 ** 62 - 1): 1.0})
    assert edge.degree() == edge.min_degree() == 2 ** 63 - 1
    half = PolynomialSymbol(1, {(2 ** 61, 2 ** 61): 1.0})
    assert half.degree() == 2 ** 62
    for op in (lambda: half * half, lambda: moyal_star(half, half, 0.25),
               lambda: graded_star(GradedSymbol(1, 0, {0: half}), GradedSymbol(1, 0, {0: half})),
               lambda: bidifferential_power(half, half, 1), lambda: edge * y()):
        with pytest.raises(OverflowError):
            op()


def test_high_order_star_plan_stays_small():
    """The star plan holds only the terms whose partials both operands can
    have, and its derivative chain as small integers built with numpy, so a
    call stays small at the input limits: y1^10 y2^10 # eta1^10 eta2^10
    (top 20), y1^32 y2^32 + 0.5 y1 eta2 # eta1^32 eta2^32 + 2 y2 eta1
    (exponents at the literal limit 32, top 64: 814,385 multi-indices of
    order <= 64, 2,177 terms whose partials exist) and y1^8 y2^8 y3^8 #
    eta1^8 eta2^8 eta3^8 (d = 3, top 24)."""
    f = math.factorial
    cases = [  # a, b, monomials of a # b at hbar 1/2, one of them, its closed form
        ({(10, 10, 0, 0): 1.0}, {(0, 0, 10, 10): 1.0}, 11 * 11, (0, 0, 0, 0),
         # alpha = (10, 10): (i/4)^20 / 20! * 20! / (10! 10!) * (10! 10!)^2
         f(10) ** 2 / 4 ** 20),
        ({(32, 32, 0, 0): 1.0, (1, 0, 0, 1): 0.5}, {(0, 0, 32, 32): 1.0, (0, 1, 1, 0): 2.0},
         1093, (16, 16, 16, 16),
         # only alpha = (16, 16) of the leading monomials: (i/4)^32 / (16! 16!) * (32! / 16!)^4
         f(32) ** 4 / f(16) ** 6 / 4 ** 32),
        ({(8, 8, 8, 0, 0, 0): 1.0}, {(0, 0, 0, 8, 8, 8): 1.0}, 9 ** 3, (0,) * 6,
         # alpha = (8, 8, 8): (i/4)^24 / 24! * 24! / 8!^3 * (8!^3)^2
         f(8) ** 3 / 4 ** 24),
    ]
    for a, b, size, key, value in cases:
        d = len(key) // 2
        a, b = PolynomialSymbol(d, a), PolynomialSymbol(d, b)
        symbols._series_plan.cache_clear()
        tracemalloc.start()
        try:
            p = moyal_star(a, b, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20, key
        assert len(p.terms) == size
        assert p.terms[key] == pytest.approx(value, rel=1e-12)


def hex_map_of(terms):
    return {k: (c.real.hex(), c.imag.hex()) for k, c in terms.items() if c != 0}


def hex_map(p):
    return hex_map_of(p.terms)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [y() + eta(), PolynomialSymbol.zero(1)])
def test_evaluate_rejects_unequal_row_counts(p):
    with pytest.raises(DimensionMismatch, match=r"\(5, 1\) and \(3, 1\)"):
        p.evaluate(np.zeros((5, 1)), np.zeros((3, 1)))


def test_non_finite_coefficients_propagate_like_the_dict_loop():
    """inf and NaN arise and spread as in Python's complex arithmetic, with
    no numpy warning (pytest turns RuntimeWarning into an error here)."""
    a = PolynomialSymbol(1, {(1, 0): 1e200, (0, 1): complex(2.0, math.inf), (0, 0): 1.5})
    b = PolynomialSymbol(1, {(1, 0): 1e200, (1, 1): -3.0, (0, 0): complex(0.5, 1e300)})
    assert hex_terms((a * b).terms) == hex_terms(product_oracle(a.terms, b.terms))
    total = dict(a.terms)
    for k, v in b.terms.items():
        total[k] = total.get(k, 0.0) + v
    assert hex_map(a + b) == hex_map_of(total)
    assert hex_map(a.derivative(1)) == hex_map_of({(0, 0): 0.0 + a.terms[(0, 1)] * 1})
    folded = {}
    for j, q in ((0, a), (1, b)):
        for k, v in q.terms.items():
            folded[k] = folded.get(k, 0.0) + v * 1e250 ** -j
    assert hex_map(GradedSymbol(1, 0, {0: a, 1: b}).fold(1e250)) == hex_map_of(folded)
    for p in (moyal_star(a, b, 0.5), graded_star(GradedSymbol(1, 0, {0: a}),
                                                 GradedSymbol(1, 0, {0: b})).fold(2.0)):
        assert not all(math.isfinite(abs(c)) for c in p.terms.values())

