import math
import subprocess
import sys

import numpy as np
import pytest

from melinlab.errors import (
    DimensionMismatch,
    MonotonicityError,
    NonHermitianError,
    ResourceLimitError,
)
from melinlab.models import harmonic_symbol, quartic_model
from melinlab import quantize
from melinlab.quantize import (
    MAX_DENSE_DIM,
    TruncationSweep,
    _ladder,
    _mode_band,
    conjugation_residual,
    ladder,
    lowest_eigenvalue,
    mode_operators,
    number_operator,
    truncation_sweep,
    weyl_quantize,
)
from melinlab.sweep import melin_phase_diagram
from melinlab.symbols import GradedSymbol, PolynomialSymbol, eta, moyal_star, y

from oracles import (
    jordan_mode_oracle,
    kron_quantize_oracle,
    quantize_oracle,
    random_polynomial,
)


def test_ladder_entries():
    low, high = ladder(4)
    expect = np.zeros((4, 4))
    expect[0, 1] = 1.0
    expect[1, 2] = math.sqrt(2.0)
    expect[2, 3] = math.sqrt(3.0)
    np.testing.assert_array_equal(low, expect)
    np.testing.assert_array_equal(high, expect.T)
    with pytest.raises(ValueError):
        ladder(1)


def test_mode_operators_commutator():
    # [yhat, etahat] = i hbar away from the truncation corner
    for hbar in (1.0, 0.25):
        yh, eh = mode_operators(hbar, 8)
        comm = yh @ eh - eh @ yh
        np.testing.assert_allclose(comm[:7, :7], 1j * hbar * np.eye(7), atol=1e-14)


def test_coordinate_matrix_is_tridiagonal():
    yh, _ = mode_operators(1.0, 5)
    for n in range(4):
        assert yh[n, n + 1] == pytest.approx(math.sqrt((n + 1) / 2.0), rel=1e-15)
    assert np.abs(np.diag(yh)).max() == 0.0


def test_harmonic_diagonal():
    h = harmonic_symbol()
    for hbar in (1.0, 0.5):
        m = weyl_quantize(h, hbar, 8).entries
        np.testing.assert_allclose(np.diag(m).real, hbar * (2 * np.arange(8) + 1),
                                   atol=1e-13)
        np.testing.assert_allclose(m - np.diag(np.diag(m)), 0.0, atol=1e-13)


def test_harmonic_square_diagonal_shift():
    # quantize(h^2) = quantize(h)^2 + hbar^2, i.e. diag (hbar(2n+1))^2 + hbar^2
    h = harmonic_symbol()
    for hbar in (1.0, 0.5):
        m = weyl_quantize(h * h, hbar, 6).entries
        levels = 2 * np.arange(6) + 1.0
        np.testing.assert_allclose(np.diag(m).real,
                                   (hbar * levels) ** 2 + hbar ** 2, rtol=1e-13)


def test_matches_symmetrized_oracle_d1():
    rng = np.random.default_rng(101)
    for hbar in (1.0, 0.25):
        for _ in range(6):
            p = random_polynomial(rng, 1, 4, n_terms=5)
            got = weyl_quantize(p, hbar, 6).entries
            want = quantize_oracle(p, hbar, 6)
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_matches_symmetrized_oracle_d2():
    rng = np.random.default_rng(103)
    for _ in range(4):
        p = random_polynomial(rng, 2, 3, n_terms=4)
        got = weyl_quantize(p, 0.5, 3).entries
        want = quantize_oracle(p, 0.5, 3)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_mode_ordering_first_mode_fastest():
    # quantize y_1^2 + 2 y_2^2 (d = 2): diagonal hbar((n1 + 1/2) ... ) pattern
    p = y(2, 0) ** 2 + eta(2, 0) ** 2 + 2.0 * (y(2, 1) ** 2 + eta(2, 1) ** 2)
    m = weyl_quantize(p, 1.0, 3).entries
    flat = np.arange(9)
    n1, n2 = flat % 3, flat // 3
    np.testing.assert_allclose(np.diag(m).real, (2 * n1 + 1) + 2.0 * (2 * n2 + 1),
                               atol=1e-13)


def test_real_symbol_quantizes_exactly_hermitian():
    rng = np.random.default_rng(107)
    for d, n in ((1, 8), (2, 4)):
        for _ in range(4):
            p = random_polynomial(rng, d, 4 if d == 1 else 3)
            m = weyl_quantize(p, 0.7, n).entries
            assert np.abs(m - m.conj().T).max() == 0.0


def test_star_consistency_on_padded_block():
    # quantize(a # b) equals the leading block of quantize(a) @ quantize(b)
    # when the product is built with enough padding
    rng = np.random.default_rng(109)
    n, big = 8, 16
    for hbar in (1.0, 0.25):
        for _ in range(5):
            a = random_polynomial(rng, 1, 3, n_terms=4)
            b = random_polynomial(rng, 1, 3, n_terms=4)
            prod = (weyl_quantize(a, hbar, big).entries
                    @ weyl_quantize(b, hbar, big).entries)[:n, :n]
            direct = weyl_quantize(moyal_star(a, b, hbar), hbar, n).entries
            scale = max(1.0, np.abs(prod).max())
            assert np.abs(prod - direct).max() <= 1e-10 * scale


def test_quantize_validation():
    with pytest.raises(ValueError):
        weyl_quantize(harmonic_symbol(), 0.0, 8)
    with pytest.raises(ValueError):
        weyl_quantize(harmonic_symbol(), 1.0, 1)
    with pytest.raises(ValueError):
        weyl_quantize(harmonic_symbol(), 1.0, 300)
    with pytest.raises(DimensionMismatch):
        weyl_quantize(PolynomialSymbol.monomial(3, (1, 0, 0, 0, 0, 0)), 1.0, 4)
    for hbar in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            weyl_quantize(harmonic_symbol(), hbar, 8)
        with pytest.raises(ValueError, match="finite"):
            mode_operators(hbar, 8)


def test_number_operator_values():
    n1 = number_operator(1, 1, 6).entries
    np.testing.assert_array_equal(np.diag(n1).real, 2.0 * np.arange(6) + 3.0)
    n2 = number_operator(2, 1, 4).entries
    # 1 + 2(n+1) + 4(n+1)(n+2)
    np.testing.assert_array_equal(np.diag(n2).real, [11.0, 29.0, 55.0, 89.0])
    n1d2 = number_operator(1, 2, 3).entries
    flat = np.arange(9)
    np.testing.assert_array_equal(np.diag(n1d2).real,
                                  2.0 * (flat % 3) + 2.0 * (flat // 3) + 5.0)


def test_number_operator_matches_ladder_assembly():
    # N_2 = sum_{|alpha| <= 2} 2^|alpha| a^alpha (a+)^alpha built directly;
    # assemble padded so the truncated raising operator cannot corrupt
    # the compared block
    low, high = ladder(8)
    want = (np.eye(8) + 2.0 * low @ high + 4.0 * low @ low @ high @ high)[:6, :6]
    got = number_operator(2, 1, 6).entries
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_number_operator_matches_weyl_quantization():
    # the |alpha| <= 1 sum has Weyl symbol y^2 + eta^2 + 2
    sym = harmonic_symbol() + PolynomialSymbol.constant(1, 2.0)
    got = number_operator(1, 1, 8).entries
    want = weyl_quantize(sym, 1.0, 8).entries
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_lowest_eigenvalue():
    assert lowest_eigenvalue(weyl_quantize(harmonic_symbol(), 1.0, 16)) == pytest.approx(
        1.0, abs=1e-12
    )
    with pytest.raises(NonHermitianError):
        lowest_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_truncation_sweep_monotone():
    p = y() ** 6 + eta() ** 6
    sweep = truncation_sweep(p, 1.0, [16, 32, 64])
    assert sweep.values[0] >= sweep.values[1] >= sweep.values[2] - 1e-12
    assert sweep.last_gap < 1e-6
    assert sweep.lambda_min == sweep.values[-1]
    assert sweep.lambda_min == pytest.approx(2.9530453962581604, abs=1e-10)


def test_truncation_sweep_converges_instantly_for_quartic():
    g = quartic_model(sub_coeff=-3.0)
    sweep = truncation_sweep(g.fold(1.0), 1.0, [8, 16])
    assert sweep.lambda_min == pytest.approx(-1.0, abs=1e-12)
    assert sweep.last_gap < 1e-12


def test_truncation_sweep_validation():
    with pytest.raises(ValueError):
        truncation_sweep(harmonic_symbol(), 1.0, [8, 8])
    with pytest.raises(ValueError):
        TruncationSweep([4, 8], [1.0])
    with pytest.raises(MonotonicityError):
        TruncationSweep([4, 8], [1.0, 1.5])


def test_compression_monotonicity_of_nested_blocks():
    big = weyl_quantize(y() ** 4 + eta() ** 4, 1.0, 32).entries
    vals = [np.linalg.eigvalsh(big[:n, :n])[0] for n in (8, 16, 32)]
    assert vals[0] >= vals[1] >= vals[2]


def test_conjugation_residual_is_roundoff():
    for lam in (4.0, 64.0):
        assert conjugation_residual(quartic_model(sub_coeff=1.0), lam, 12) < 1e-10
    g = GradedSymbol(1, 1, {0: harmonic_symbol(), 1: PolynomialSymbol.constant(1, -1.0)})
    assert conjugation_residual(g, 16.0, 12) < 1e-12
    with pytest.raises(ValueError):
        conjugation_residual(g, 0.5, 12)


# ---------------------------------------------------------------------------
# Banded peeling against the dense Jordan product
# ---------------------------------------------------------------------------

MONOMIALS_UP_TO_8 = [(a, w - a) for w in range(9) for a in range(w + 1)]


def _rel_err(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


def _dense(band, size):
    """Unpack band storage, band[W + k, i] = M[i, i + k], into M."""
    width = band.shape[0] // 2
    out = np.zeros((size, size), dtype=complex)
    for k in range(-width, width + 1):
        i = np.arange(max(0, -k), min(size, size - k))
        out[i, i + k] = band[width + k, i]
    return out


@pytest.mark.parametrize("size", [3, 10, 262])
def test_mode_band_matches_dense_jordan(size):
    for hbar in ((1.0, 0.3) if size < 100 else (0.3,)):
        for a, b in MONOMIALS_UP_TO_8:
            got = _dense(_mode_band(a, b, hbar, size), size)
            want = jordan_mode_oracle(a, b, hbar, size)
            assert _rel_err(got, want) <= 1e-13, (a, b, size, hbar)


def test_band_cache_serves_every_hbar_from_one_peel():
    # M = (hbar/2)^(W/2) i^b R with R real and hbar-free: R is peeled once
    quantize._real_band.cache_clear()
    for hbar in (1.0, 0.3):
        for a, b in MONOMIALS_UP_TO_8[1:]:
            got = _dense(_mode_band(a, b, hbar, 12), 12)
            assert _rel_err(got, jordan_mode_oracle(a, b, hbar, 12)) <= 1e-13, (a, b, hbar)
    info = quantize._real_band.cache_info()
    assert info.misses == len(MONOMIALS_UP_TO_8) - 1
    assert info.hits == len(MONOMIALS_UP_TO_8) - 1
    cached = quantize._real_band(2, 1, 12)
    assert cached.dtype == np.float64 and not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0, 0] = 1.0
    # callers get a fresh scaled copy, never the cached array
    assert not np.shares_memory(_mode_band(2, 1, 1.0, 12), cached)


def test_phase_grid_peels_each_form_monomial_once():
    quantize._real_band.cache_clear()
    axis = np.linspace(0.7, 2.5, 4)
    report = melin_phase_diagram(axis, np.linspace(-0.5, 0.5, 4), axis, [0.0])
    assert len(report.points) == 64
    # y^2, y eta and eta^2 at internal size 64 + 2, shared by all 64 forms
    assert quantize._real_band.cache_info().misses == 3


def test_nan_matrix_fails_the_hermiticity_check():
    # max(0.0, nan) is 0.0, so a NaN deviation must be caught explicitly
    entries = np.eye(130, dtype=complex)
    entries[100, 3] = np.nan
    with pytest.raises(NonHermitianError, match="nan"):
        lowest_eigenvalue(entries)
    p = PolynomialSymbol(1, {(2, 0): math.nan, (0, 2): 1.0})
    with pytest.raises(NonHermitianError):
        weyl_quantize(p, 1.0, 8)


def test_monomial_entries_vanish_beyond_degree_offset():
    for n in (10, 64):
        for a, b in MONOMIALS_UP_TO_8:
            mono = PolynomialSymbol.monomial(1, (a, b))
            m = weyl_quantize(mono, 0.8, n).entries
            assert not np.triu(m, a + b + 1).any()
            assert not np.tril(m, -(a + b) - 1).any()
            want = jordan_mode_oracle(a, b, 0.8, n + a + b)[:n, :n]
            assert _rel_err(m, want) <= 1e-13, (a, b, n)


def test_real_symbols_quantize_exactly_hermitian_at_scale():
    rng = np.random.default_rng(113)
    for d, n, deg in ((1, 256, 8), (1, 37, 7), (2, 12, 6)):
        for _ in range(3):
            p = random_polynomial(rng, d, deg, n_terms=8)
            m = weyl_quantize(p, 0.45, n).entries
            assert np.abs(m - m.conj().T).max() == 0.0


def test_mixed_d2_symbol_matches_full_kron_gather():
    p = PolynomialSymbol(2, {
        (2, 0, 0, 2): 1.5,    # y1^2 eta2^2
        (1, 1, 1, 1): -0.75,  # y1 y2 eta1 eta2
        (3, 1, 0, 0): 0.5,    # y1^3 y2
        (0, 0, 2, 1): 2.0,    # eta1^2 eta2
        (0, 2, 1, 0): -1.0,   # y2^2 eta1
        (0, 0, 0, 0): 3.0,
    })
    for hbar, n in ((1.0, 6), (0.4, 9)):
        got = weyl_quantize(p, hbar, n).entries
        want = kron_quantize_oracle(p, hbar, n)
        assert _rel_err(got, want) <= 1e-13


def test_truncation_sweep_rungs_equal_separate_quantizations():
    # bands peeled once at the top rung give each rung the exact bytes of
    # a separate quantization at that rung
    p1 = y() ** 4 + eta() ** 4 + y() ** 2 - 0.5 * (y() * eta())
    p2 = (y(2, 0) ** 2 + eta(2, 0) ** 2) ** 2 + 0.3 * (y(2, 0) * eta(2, 1)) ** 2 \
        + eta(2, 1) ** 4 + y(2, 1) ** 2 * eta(2, 1) ** 2 + y(2, 1) ** 4
    for p, hbar, ns in ((p1, 0.7, [8, 16, 32]), (p2, 1.0, [4, 8, 12])):
        sweep = truncation_sweep(p, hbar, ns)
        assert sweep.values == [lowest_eigenvalue(weyl_quantize(p, hbar, n)) for n in ns]
        np.testing.assert_array_equal(sweep.matrix.entries,
                                      weyl_quantize(p, hbar, ns[-1]).entries)


def test_truncation_sweep_rejects_non_hermitian_symbols():
    # eigvalsh reads one triangle; a complex symbol must not get that far
    p = y() ** 4 + eta() ** 4 + 1j * (y() * eta() * y())
    with pytest.raises(NonHermitianError):
        lowest_eigenvalue(weyl_quantize(p, 1.0, 16))
    with pytest.raises(NonHermitianError):
        truncation_sweep(p, 1.0, [8, 16])
    # a complex symbol whose matrix is Hermitian to within 1e-10 passes
    q = y() ** 4 + eta() ** 4 + (1e-14j) * y() ** 2
    assert truncation_sweep(q, 1.0, [8, 16]).values == pytest.approx(
        truncation_sweep(y() ** 4 + eta() ** 4, 1.0, [8, 16]).values, abs=1e-12)


# (symbol, ladder, sector count): even in each mode, total parity only
# (the coupling y1 eta2 flips both mode parities), and mixed parity
PARITY_CASES = [
    ((y() ** 2 + eta() ** 2) ** 2 + 0.5 * (y() * eta()) ** 2 + 0.3 * y() ** 2, [32, 256], 2),
    ((y(2, 0) ** 2 + eta(2, 0) ** 2) ** 2 + y(2, 1) ** 4 + 0.3 * (y(2, 0) * eta(2, 1)) ** 2
     + eta(2, 1) ** 2 + 0.2 * (y(2, 0) * eta(2, 0)), [8, 16], 4),
    (y(2, 0) * eta(2, 1) + harmonic_symbol(2), [8, 16], 2),
    (y() ** 4 + eta() ** 2 + 0.3 * y(), [16, 64], 0),
]


@pytest.mark.parametrize("p, ns, count", PARITY_CASES)
def test_parity_sectors_split_every_rung_exactly(p, ns, count):
    for rung in _ladder(p, 0.7, ns):
        full = np.linalg.eigvalsh(rung.entries)[0]
        if not count:
            assert rung.sectors is None
            assert lowest_eigenvalue(rung) == full
            continue
        assert len(rung.sectors) == count
        label = np.full(rung.dim, -1)
        for v, idx in enumerate(rung.sectors):
            assert (label[idx] == -1).all()
            label[idx] = v
        assert (label >= 0).all()
        assert (rung.entries[label[:, None] != label[None, :]] == 0).all()
        assert abs(lowest_eigenvalue(rung) - full) <= 1e-12 * abs(full)


def test_parity_sector_bottom_at_high_degree_is_within_eigvalsh_roundoff():
    # a degree-6 symbol at N=256 has max row sum ~4e7, so dense eigvalsh
    # is only good to about eps * ||M|| (~1e-12 relative here) whether it
    # reads the sector blocks or the whole matrix
    m = weyl_quantize(y() ** 6 + eta() ** 4 + 0.5 * (y() * eta()) ** 2 + y() ** 2, 0.7, 256)
    full = np.linalg.eigvalsh(m.entries)[0]
    norm = np.abs(m.entries).sum(axis=1).max()
    assert abs(lowest_eigenvalue(m) - full) <= 4 * np.finfo(float).eps * norm


def test_parity_sectors_are_shared_and_marked_only_by_the_quantizer():
    even = harmonic_symbol(2)
    a = weyl_quantize(even, 1.0, 6)
    assert a.sectors is weyl_quantize(even * even, 0.5, 6).sectors
    assert number_operator(2, 2, 4).sectors is None
    with pytest.raises(TypeError):
        quantize.OperatorMatrix(d=1, n=2, hbar=1.0, pad=0, entries=np.eye(2), sectors=None)
    # the Hermiticity check still comes before the sector blocks
    skew = weyl_quantize(y() ** 4 + eta() ** 4 + 1j * (y() * eta()), 1.0, 16)
    assert skew.sectors is not None
    with pytest.raises(NonHermitianError):
        lowest_eigenvalue(skew)


def test_dense_limit_rejects_before_peeling(monkeypatch):
    def no_bands(*args):
        raise AssertionError("band stage reached")

    monkeypatch.setattr(quantize, "_bands", no_bands)
    p = harmonic_symbol(2)
    for n, ns in ((65, None), (128, [32, 64, 128])):
        with pytest.raises(ResourceLimitError, match=str(MAX_DENSE_DIM)) as err:
            truncation_sweep(p, 1.0, ns) if ns else weyl_quantize(p, 1.0, n)
        assert f"N={n}" in str(err.value) and f"dimension {n * n}" in str(err.value)


def test_quantize_and_eigensolve_do_not_import_scipy():
    code = (
        "import sys, melinlab\n"
        "m = melinlab.weyl_quantize(melinlab.y(2, 0) ** 2 + melinlab.eta(2, 1) ** 2, 1.0, 8)\n"
        "melinlab.lowest_eigenvalue(m)\n"
        "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
