import functools
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
    MAX_DEGREE,
    MAX_DENSE_DIM,
    TruncationSweep,
    _PHASES,
    _ladder,
    _scaled_band,
    conjugation_residual,
    lowest_eigenvalue,
    truncation_sweep,
    weyl_quantize,
)
from melinlab.sweep import melin_phase_diagram
from melinlab.symbols import GradedSymbol, PolynomialSymbol, eta, moyal_star, y

from oracles import (
    jordan_mode_oracle,
    kron_quantize_oracle,
    ladder,
    mode_operators,
    number_operator,
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
    n1 = number_operator(1, 1, 6)
    assert n1.dtype == np.float64
    np.testing.assert_array_equal(n1, 2.0 * np.arange(6) + 3.0)
    n2 = number_operator(2, 1, 4)
    # 1 + 2(n+1) + 4(n+1)(n+2)
    np.testing.assert_array_equal(n2, [11.0, 29.0, 55.0, 89.0])
    n1d2 = number_operator(1, 2, 3)
    flat = np.arange(9)
    np.testing.assert_array_equal(n1d2, 2.0 * (flat % 3) + 2.0 * (flat // 3) + 5.0)


def test_number_operator_matches_ladder_assembly():
    # N_2 = sum_{|alpha| <= 2} 2^|alpha| a^alpha (a+)^alpha built directly;
    # assemble padded so the truncated raising operator cannot corrupt
    # the compared block
    low, high = ladder(8)
    want = (np.eye(8) + 2.0 * low @ high + 4.0 * low @ low @ high @ high)[:6, :6]
    got = np.diag(number_operator(2, 1, 6))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_number_operator_matches_weyl_quantization():
    # the |alpha| <= 1 sum has Weyl symbol y^2 + eta^2 + 2
    sym = harmonic_symbol() + PolynomialSymbol.constant(1, 2.0)
    got = np.diag(number_operator(1, 1, 8))
    want = weyl_quantize(sym, 1.0, 8).entries
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_lowest_eigenvalue():
    assert lowest_eigenvalue(weyl_quantize(harmonic_symbol(), 1.0, 16)) == pytest.approx(
        1.0, abs=1e-12
    )
    # the lowering operator [[0, 1], [0, 0]] is the rung of (y + i eta) / sqrt(2)
    lowering = weyl_quantize((y() + 1j * eta()) * (1 / math.sqrt(2)), 1.0, 2)
    np.testing.assert_allclose(lowering.entries, [[0.0, 1.0], [0.0, 0.0]], atol=1e-15)
    with pytest.raises(NonHermitianError):
        lowest_eigenvalue(lowering)


@pytest.mark.parametrize("m", [np.eye(2), np.zeros((0, 0)), number_operator(1, 1, 8)])
def test_lowest_eigenvalue_takes_only_quantizer_rungs(m):
    with pytest.raises(TypeError, match="got ndarray"):
        lowest_eigenvalue(m)


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
    # one rung has no gap to measure
    assert truncation_sweep(g.fold(1.0), 1.0, [8]).last_gap == math.inf


def test_truncation_sweep_validation():
    with pytest.raises(ValueError):
        truncation_sweep(harmonic_symbol(), 1.0, [8, 8])
    with pytest.raises(ValueError):
        TruncationSweep([4, 8], [1.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        TruncationSweep([8, 4], [1.0, 1.0])
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
    # both sides of the zero symbol are the zero matrix
    assert conjugation_residual(GradedSymbol(1, 1, {0: PolynomialSymbol.zero(1)}), 16.0, 12) == 0.0
    with pytest.raises(ValueError):
        conjugation_residual(g, 0.5, 12)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_conjugation_residual_rejects_non_finite_lambda(lam):
    with pytest.raises(ValueError, match="Lambda must be a finite number >= 1"):
        conjugation_residual(quartic_model(sub_coeff=1.0), lam, 8)


# ---------------------------------------------------------------------------
# Banded peeling against the dense Jordan product
# ---------------------------------------------------------------------------

MONOMIALS_UP_TO_8 = [(a, w - a) for w in range(9) for a in range(w + 1)]


def _rel_err(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


def _phased_band(a, b, hbar, size):
    """Single-mode Weyl matrix of y^a eta^b in complex band storage: the
    phase i^b that the quantizer moves into the term weight, times the band."""
    return np.multiply(_PHASES[b % 4], _scaled_band(a, b, hbar, size), dtype=complex)


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
            got = _dense(_phased_band(a, b, hbar, size), size)
            want = jordan_mode_oracle(a, b, hbar, size)
            assert _rel_err(got, want) <= 1e-13, (a, b, size, hbar)


def test_band_cache_serves_every_hbar_from_one_peel():
    # M = (hbar/2)^(W/2) i^b R with R real and hbar-free: R is peeled once
    quantize._real_band.cache_clear()
    for hbar in (1.0, 0.3):
        for a, b in MONOMIALS_UP_TO_8[1:]:
            got = _dense(_phased_band(a, b, hbar, 12), 12)
            assert _rel_err(got, jordan_mode_oracle(a, b, hbar, 12)) <= 1e-13, (a, b, hbar)
    info = quantize._real_band.cache_info()
    assert info.misses == len(MONOMIALS_UP_TO_8) - 1
    assert info.hits == len(MONOMIALS_UP_TO_8) - 1
    cached = quantize._real_band(2, 1, 12)
    assert cached.dtype == np.float64 and not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0, 0] = 1.0
    # callers get a fresh scaled copy, never the cached array
    assert not np.shares_memory(_scaled_band(2, 1, 1.0, 12), cached)


def test_phase_grid_peels_each_form_monomial_once():
    quantize._real_band.cache_clear()
    axis = np.linspace(0.7, 2.5, 4)
    report = melin_phase_diagram(axis, np.linspace(-0.5, 0.5, 4), axis, [0.0])
    assert len(report.points) == 64
    # y^2, y eta and eta^2 at internal size 64 + 2, shared by all 64 forms
    assert quantize._real_band.cache_info().misses == 3


def test_nan_matrix_fails_the_hermiticity_check():
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
    # a symbol with max |Im c| <= 1e-12 max |c| is quantized by its real part
    q = y() ** 4 + eta() ** 4 + (1e-14j) * y() ** 2
    assert (truncation_sweep(q, 1.0, [8, 16]).values
            == truncation_sweep(y() ** 4 + eta() ** 4, 1.0, [8, 16]).values)


def test_complex_symbol_is_refused_where_its_block_vanishes():
    # Weyl(i(y^2 - eta^2)) = i hbar (a^2 + a+^2) couples levels two apart, so its
    # block on levels {0, 1} is zero; the symbol still decides, and it is complex
    m = weyl_quantize(1j * (y() ** 2 - eta() ** 2), 1.0, 2)
    assert not m.entries.any()
    with pytest.raises(NonHermitianError):
        lowest_eigenvalue(m)


# (symbol, ladder, sector count): even in each mode, total parity only
# (the coupling y1 eta2 flips both mode parities), and mixed parity
PARITY_CASES = [
    ((y() ** 2 + eta() ** 2) ** 2 + 0.5 * (y() * eta()) ** 2 + 0.3 * y() ** 2, [32, 256], 2),
    ((y(2, 0) ** 2 + eta(2, 0) ** 2) ** 2 + y(2, 1) ** 4 + 0.3 * (y(2, 0) * eta(2, 1)) ** 2
     + eta(2, 1) ** 2 + 0.2 * (y(2, 0) * eta(2, 0)), [8, 16], 4),
    (y(2, 0) * eta(2, 1) + harmonic_symbol(2), [8, 16], 2),
    (y() ** 4 + eta() ** 2 + 0.3 * y(), [16, 64], 1),
]


@pytest.mark.parametrize("p, ns, count", PARITY_CASES)
def test_parity_sectors_split_every_rung_exactly(p, ns, count):
    for rung in _ladder(p, 0.7, ns):
        full = np.linalg.eigvalsh(rung.entries)[0]
        assert len(rung.sectors) == count
        label = np.full(rung.dim, -1)
        for v, idx in enumerate(rung.sectors):
            assert (label[idx] == -1).all()
            label[idx] = v
        assert (label >= 0).all()
        assert (rung.entries[label[:, None] != label[None, :]] == 0).all()
        if count == 1:  # no parity: the one sector is the whole block
            assert lowest_eigenvalue(rung) == full
        else:
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


def test_degree_limit_rejects_before_peeling(monkeypatch):
    def no_bands(*args):
        raise AssertionError("band stage reached")

    monkeypatch.setattr(quantize, "_bands", no_bands)
    # one mode, and two modes of which neither alone is above the limit
    too_high = [y() ** (MAX_DEGREE + 1), y(2, 0) ** 17 * eta(2, 1) ** 16 + eta(2, 0)]
    for p in too_high:
        with pytest.raises(ResourceLimitError, match=f"limit {MAX_DEGREE}") as err:
            weyl_quantize(p, 1.0, 8)
        assert f"degree {p.degree()}" in str(err.value)
    with pytest.raises(AssertionError, match="band stage"):
        weyl_quantize(y() ** MAX_DEGREE, 1.0, 8)


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


def test_cli_and_model_files_do_not_import_jsonschema():
    # model files are checked by modelfile's own walk; jsonschema is its test oracle
    code = (
        "import sys, melinlab.cli, melinlab.modelfile\n"
        "print('jsonschema' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# Real arithmetic: float64 blocks when every weight c i^|b| is real
# ---------------------------------------------------------------------------

ETA12_SYMBOL = 0.5 * eta(2, 0) * eta(2, 1) + harmonic_symbol(2)

# (symbol, hbar, n, dtype): the oracle is the dense Kronecker one at d = 2
# and the symmetrized one at d = 1
DTYPE_CASES = [
    (y() ** 4 + 2.0 * (y() * eta()) ** 2 + eta() ** 4 - 0.7 * y() ** 2 + 1.5, 0.6, 12,
     np.float64),
    ((y(2, 0) ** 2 + eta(2, 0) ** 2) ** 2 + 0.3 * (y(2, 0) * eta(2, 1)) ** 2 + y(2, 1) ** 4
     + eta(2, 1) ** 2, 0.8, 6, np.float64),
    # odd in eta in both modes: two imaginary factors, a real product
    (ETA12_SYMBOL, 1.0, 8, np.float64),
    (y(2, 0) * eta(2, 1) + harmonic_symbol(2), 1.0, 6, np.complex128),
    (y() ** 4 + eta() ** 4 + 0.3 * (y() * eta()) + y() ** 2, 0.7, 12, np.complex128),
]


@pytest.mark.parametrize("p, hbar, n, dtype", DTYPE_CASES)
def test_block_dtype_follows_the_weights(p, hbar, n, dtype):
    m = weyl_quantize(p, hbar, n).entries
    assert m.dtype == dtype
    if p.d == 2:
        assert _rel_err(m, kron_quantize_oracle(p, hbar, n)) <= 1e-13
    else:
        want = quantize_oracle(p, hbar, n)
        assert np.abs(m - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_real_block_of_two_odd_factors_keeps_its_sign():
    # eta1 eta2: each factor band is imaginary, their product is real; taking
    # the real part of each factor would drop the term and give 2.0
    want = np.linalg.eigvalsh(kron_quantize_oracle(ETA12_SYMBOL, 1.0, 8))[0]
    got = lowest_eigenvalue(weyl_quantize(ETA12_SYMBOL, 1.0, 8))
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(1.98406, abs=1e-5)


def test_real_weight_of_a_complex_symbol_is_still_checked():
    # 1j y eta has the real weight -1, but its matrix is antisymmetric
    p = 1j * (y() * eta()) + harmonic_symbol()
    m = weyl_quantize(p, 1.0, 8)
    assert m.entries.dtype == np.float64 and not m.hermitian
    with pytest.raises(NonHermitianError):
        lowest_eigenvalue(m)
    with pytest.raises(NonHermitianError):
        truncation_sweep(p, 1.0, [8, 16])


# ---------------------------------------------------------------------------
# Hermitian by construction: each band checked when peeled, no block scanned
# ---------------------------------------------------------------------------


def test_every_real_band_is_exactly_symmetric_or_antisymmetric():
    quantize._real_band.cache_clear()
    for size in (9, 40, 262):
        for a, b in [(a, w - a) for w in range(1, 13) for a in range(w + 1)]:
            band = quantize._real_band(a, b, size)  # peeled, and checked, here
            dense = np.zeros((size, size))
            for k in range(-(a + b), a + b + 1):
                i = np.arange(max(0, -k), min(size, size - k))
                dense[i, i + k] = band[a + b + k, i]
            assert np.array_equal(dense.T, (-1) ** b * dense), (a, b, size)


def _seeded_real_symbol(rng, d, parity, odd_eta):
    """Eight real terms of degree <= 3 per exponent, each of even degree in
    every mode ("mode"), of even total degree ("total") or any (None), one
    of them the given term odd in eta, whose weight c i^|b| is imaginary."""
    terms = {odd_eta: 0.5}
    while len(terms) < 8:
        idx = tuple(int(v) for v in rng.integers(0, 4, size=2 * d))
        degrees = np.add(idx[:d], idx[d:])
        odd = {"mode": degrees % 2, "total": degrees.sum() % 2, None: 0}[parity]
        if not np.any(odd):
            terms[idx] = float(rng.integers(-4, 5)) or 1.0
    return PolynomialSymbol(d, terms)


@pytest.mark.parametrize("d, parity, odd_eta, count", [
    (1, "mode", (1, 1), 2),           # y eta
    (2, "mode", (1, 0, 1, 0), 4),     # y1 eta1
    (2, "total", (1, 0, 0, 1), 2),    # y1 eta2
    (1, None, (2, 1), 1),             # y^2 eta
    (2, None, (1, 1, 0, 1), 1),       # y1 y2 eta2
])
def test_real_symbol_blocks_are_hermitian_bit_for_bit(d, parity, odd_eta, count):
    rng = np.random.default_rng(181 + 10 * d + count)
    for _ in range(3):
        p = _seeded_real_symbol(rng, d, parity, odd_eta)
        for n in (7, 16):
            rung = weyl_quantize(p, 0.7, n)
            assert rung.hermitian
            assert len(rung.sectors) == count
            blocks = [quantize._block(rung._bands, d, n, rung._parity, v) for v in range(count)]
            for block in blocks + [rung.entries]:
                assert block.dtype == np.complex128
                assert np.abs(block - block.conj().T).max() == 0.0
            lowest_eigenvalue(rung)


def test_real_symbols_are_solved_without_a_hermiticity_scan():
    # a folded scaling model, y eta term included, and a coupled two-mode model;
    # the values are those the per-block scan gave, to the roundoff of the solver
    q = 4.2 * y() ** 2 + 0.3 * (y() * eta()) + 0.25 * eta() ** 2
    scaling = q * q + 0.6 * y() ** 6 + (0.9 / 64) * harmonic_symbol(1)
    assert truncation_sweep(scaling, 1 / 64, [16, 32, 64, 128]).values == pytest.approx(
        [0.0009387329566156954, 0.000937485438248875, 0.0009374854227698993,
         0.0009374854227696115], rel=1e-12)
    quad = 1.1 * y(2, 0) ** 2 + 0.8 * eta(2, 0) ** 2 + 0.9 * y(2, 1) ** 2 + 1.3 * eta(2, 1) ** 2
    mode2 = quad * quad + 0.4 * y(2, 0) ** 2 * y(2, 1) ** 2 + 0.7 * harmonic_symbol(2)
    assert truncation_sweep(mode2, 1.0, [8, 16, 32]).values == pytest.approx(
        [7.6495220696584685, 7.649521774099894, 7.6495217740998935], rel=1e-12)


def test_entries_near_overflow_are_refused_before_any_block():
    for p in (PolynomialSymbol(1, {(8, 0): 1e307, (0, 2): 1.0}),
              PolynomialSymbol(1, {(2, 0): 1.7e308, (0, 2): 1.7e308})):
        with pytest.raises(ResourceLimitError, match="overflow limit"):
            weyl_quantize(p, 1.0, 16)
    # finite entries near 1e306 stay below the bound and are solved
    p = PolynomialSymbol(2, {(4, 4, 0, 0): 1e300, (0, 0, 2, 2): 1.0})
    assert lowest_eigenvalue(weyl_quantize(p, 1.0, 16)) == pytest.approx(
        6.600267142500937e+296, rel=1e-12)
    m = weyl_quantize(p, 1.0, 16).entries
    assert np.abs(m - m.T).max() == 0.0


# ---------------------------------------------------------------------------
# Sector blocks built from the bands, and the Cholesky certificates
# ---------------------------------------------------------------------------

# every parity-marked symbol above, plus a float64 one of each kind at d = 2;
# each ladder starts at an odd size, where the two parities differ in size
SECTOR_CASES = [(p, [ns[0] - 1, *ns]) for p, ns, count in PARITY_CASES if count > 1] + [
    (DTYPE_CASES[1][0], [5, 8]),
    (ETA12_SYMBOL, [5, 8]),
]


def _counting(monkeypatch, name: str = "eigvalsh") -> list[int]:
    """Patch np.linalg.<name> to record the size of each matrix it takes,
    each matrix of a stack on its own."""
    calls, original = [], getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        calls.extend([a.shape[-1]] * (a.size // a.shape[-1] ** 2))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _sector_bottoms(m) -> list[float]:
    return [np.linalg.eigvalsh(m.entries[idx][:, idx])[0] for idx in m.sectors]


@pytest.mark.parametrize("p, ns", SECTOR_CASES)
def test_sector_blocks_are_the_slices_of_the_entries_bit_for_bit(p, ns):
    for rung in _ladder(p, 0.7, ns):
        full = rung.entries
        assert _rel_err(full, kron_quantize_oracle(p, 0.7, rung.n)) <= 1e-13
        label = np.empty(rung.dim, dtype=int)
        for v, idx in enumerate(rung.sectors):
            label[idx] = v
            block = quantize._block(rung._bands, p.d, rung.n, rung._parity, v)
            want = full[idx][:, idx]
            assert block.dtype == want.dtype and block.tobytes() == want.tobytes()
        assert not full[label[:, None] != label[None, :]].any()


@pytest.mark.parametrize("p, ns",
                         [c for c in SECTOR_CASES if quantize._parity_kind(c[0]) == "mode"])
def test_solving_a_mode_rung_never_builds_its_dense_block(p, ns, monkeypatch):
    build = quantize._block

    def sectors_only(bands, d, n, kind=None, *args, **kwargs):
        if kind is None:
            raise AssertionError(f"dense block of {rung.dim} rows built")
        return build(bands, d, n, kind, *args, **kwargs)

    for rung in _ladder(p, 0.7, ns):
        monkeypatch.setattr(quantize, "_block", sectors_only)
        value = lowest_eigenvalue(rung)
        monkeypatch.setattr(quantize, "_block", build)
        assert value == min(_sector_bottoms(rung))


def test_certificates_fall_back_where_the_bottom_is_not_in_sector_0(monkeypatch):
    h = harmonic_symbol()
    h1, h2 = y(2, 0) ** 2 + eta(2, 0) ** 2, y(2, 1) ** 2 + eta(2, 1) ** 2
    # (symbol, N, sector bottoms, eigvalsh calls): h^2 - 6h has its bottom
    # -8 in the odd sector; (h1 + h2 - 4)^2 has 2 in both mixed sectors, to
    # within roundoff, so each of them falls back
    cases = [
        (h * h - 6.0 * h, 32, [-4.0, -8.000000000000004], 2),
        ((h1 + h2 - 4.0) ** 2, 16, [6.0, 1.9999999999999978, 1.9999999999999973, 6.0], 3),
    ]
    for p, n, bottoms, solves in cases:
        m = weyl_quantize(p, 1.0, n)
        want = _sector_bottoms(m)
        assert [float(v) for v in want] == pytest.approx(bottoms, abs=1e-12)
        calls = _counting(monkeypatch)
        assert lowest_eigenvalue(m) == min(want)
        assert len(calls) == solves
        monkeypatch.undo()


def test_one_eigvalsh_per_rung_of_a_two_mode_model(monkeypatch):
    quad = y(2, 0) ** 2 + 1.2 * eta(2, 0) ** 2 + 0.8 * y(2, 1) ** 2 + eta(2, 1) ** 2
    p = quad * quad + 0.4 * y(2, 0) ** 2 * y(2, 1) ** 2 + 0.9 * harmonic_symbol(2)
    calls, inverted = _counting(monkeypatch), _counting(monkeypatch, "inv")
    # (rows, sector rows, super-blocks) of every Cholesky factorization
    spans, sector, cholesky = [], [], np.linalg.cholesky
    factors, certified = quantize._factors, quantize._certified

    def factored(block, shift, plan):
        sector[:] = [len(block), len(plan)]
        return factors(block, shift, plan)

    def certifying(blocks, shifts, plan):
        sector[:] = [blocks.shape[-1], len(plan)]
        return certified(blocks, shifts, plan)

    monkeypatch.setattr(quantize, "_factors", factored)
    monkeypatch.setattr(quantize, "_certified", certifying)
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: (spans.append((a.shape[-1], *sector)),
                                                          cholesky(a))[1])
    sweep = truncation_sweep(p, 1.0, [8, 16, 32, 64])
    # eigvalsh solves the first sector block of the first rung and of the
    # 64-row (two super-block) sector at N = 16; the 256- and 1024-row first
    # sectors take inverse iteration on super-block factors.  No factorization
    # spans a whole sector of more than one super-block, and only the
    # iteration inverts: the 8 + 32 diagonal factors of the two iterated sectors
    assert calls == [16, 64]
    assert spans and all(rows < whole for rows, whole, blocks in spans if blocks > 1)
    assert {(rows, blocks) for rows, whole, blocks in spans if rows == whole} == {(16, 1)}
    assert inverted == [quantize._SUPER_BLOCK] * (8 + 32)
    monkeypatch.undo()
    for n, value in zip(sweep.truncations, sweep.values):
        want = min(_sector_bottoms(weyl_quantize(p, 1.0, n)))
        if n <= 16:
            assert value == want
        else:
            assert abs(value - want) <= 1e-12 * abs(want)


def _seeded_two_mode(seed: int, extra) -> PolynomialSymbol:
    """A quartic two-mode model with seeded coefficients plus extra(rng)."""
    rng = np.random.default_rng(seed)
    a1, g1, a2, g2, cross = rng.uniform(0.7, 1.4, 5)
    quad = a1 * y(2, 0) ** 2 + g1 * eta(2, 0) ** 2 + a2 * y(2, 1) ** 2 + g2 * eta(2, 1) ** 2
    return quad * quad + cross * y(2, 0) ** 2 * y(2, 1) ** 2 + harmonic_symbol(2) + extra(rng)


# (symbol, parity kind, dtype): real per-mode, real total-parity (odd in each
# mode) and complex per-mode (y_s eta_s and y_2^3 eta_2 have weight i)
CERTIFICATE_CASES = [
    (_seeded_two_mode(191, lambda rng: rng.uniform(0.1, 0.4) * y(2, 0) ** 4), "mode", np.float64),
    (_seeded_two_mode(193, lambda rng: rng.uniform(0.1, 0.4) * y(2, 0) ** 3 * y(2, 1)
                      + rng.uniform(0.1, 0.4) * y(2, 0) * y(2, 1)), "total", np.float64),
    (_seeded_two_mode(197, lambda rng: rng.uniform(0.1, 0.3) * (y(2, 0) * eta(2, 0))
                      + rng.uniform(0.1, 0.3) * (y(2, 1) * eta(2, 1))), "mode", np.complex128),
    (_seeded_two_mode(199, lambda rng: rng.uniform(0.1, 0.3) * (y(2, 0) * eta(2, 0))
                      + rng.uniform(0.05, 0.1) * (y(2, 1) ** 3 * eta(2, 1))), "mode", np.complex128),
]


@pytest.mark.parametrize("p, kind, dtype", CERTIFICATE_CASES)
def test_block_cholesky_certificate_decides_within_a_tenth_of_its_margin(p, kind, dtype):
    # the certificate of lowest_eigenvalue shifts by 1e-10 max row sum; it must
    # fail 1e-11 of that above each sector's bottom and succeed 1e-11 below it,
    # on super-blocks of unequal size (N = 31) and many of them (N = 32, 64)
    sizes = set()
    for rung in _ladder(p, 1.0, [31, 32, 64]):
        assert rung._parity == kind
        width = max((b2.shape[0] - 1) // 2 for b2, _ in rung._bands)
        for v in range(1, len(rung.sectors)):
            block = quantize._block(rung._bands, 2, rung.n, kind, v)
            plan = quantize._super_blocks(2, rung.n, kind, v, width)
            assert block.dtype == dtype and len(plan) > 1
            assert [s[0] for s in plan] + [len(block)] == [0] + [s[1] for s in plan]
            sizes.update(stop - start for start, stop, _ in plan)
            lam = np.linalg.eigvalsh(block)[0]
            nrm = np.abs(block).sum(axis=1).max()
            assert quantize._factors(block, lam + 1e-11 * nrm, plan) is None
            assert quantize._factors(block, lam - 1e-11 * nrm, plan) is not None
    assert len(sizes) > 1 and max(sizes) <= 2 * quantize._SUPER_BLOCK


@functools.lru_cache(maxsize=None)
def _dense_bottom(case: int, n: int) -> float:
    """The minimum of eigvalsh over the sector blocks of CERTIFICATE_CASES[case] at N = n."""
    rung = next(_ladder(CERTIFICATE_CASES[case][0], 1.0, [n]))
    return min(np.linalg.eigvalsh(quantize._block(rung._bands, 2, n, rung._parity, v))[0]
               for v in range(len(rung.sectors)))


def _iterations(monkeypatch) -> list[tuple[int, bool]]:
    """Patch quantize._inverse_iteration to record (rows, accepted) per call."""
    calls, original = [], quantize._inverse_iteration

    def recorded(block, *args):
        value = original(block, *args)
        calls.append((len(block), value is not None))
        return value

    monkeypatch.setattr(quantize, "_inverse_iteration", recorded)
    return calls


@pytest.mark.parametrize("case", range(len(CERTIFICATE_CASES)))
def test_iterated_bottoms_match_dense_eigvalsh(case, monkeypatch):
    # along a ladder, a first sector block of more than two super-blocks is
    # solved by inverse iteration from the previous rung's bottom; every
    # rung must agree with the minimum of dense eigvalsh over the sectors to
    # 1e-12 relative.  The hint from N = 4 lies above the bottom at N = 32 by
    # more than the shift allows, so that block falls back to eigvalsh.
    p, kind, _ = CERTIFICATE_CASES[case]
    for ns, iterated in (([8, 16, 32, 64], [32, 64]), ([8, 64], [64]), ([4, 32], [])):
        calls = _iterations(monkeypatch)
        sweep = truncation_sweep(p, 1.0, ns)
        monkeypatch.undo()
        for n, value in zip(ns, sweep.values):
            want = _dense_bottom(case, n)
            assert abs(value - want) <= 1e-12 * abs(want), (ns, n, value, want)
        rung_of = {len(quantize._sectors(2, n, kind)[0]): n for n in ns}
        assert [rung_of[rows] for rows, accepted in calls if accepted] == iterated, ns


@pytest.mark.parametrize("case", range(len(CERTIFICATE_CASES)))
def test_block_factor_solves_the_shifted_sector(case):
    # forward and back substitution over the super-blocks (of unequal size at
    # N = 31), with the diagonal factors of _factors inverted, solve with
    # block - shift I, real and complex
    p, kind, _ = CERTIFICATE_CASES[case]
    rng = np.random.default_rng(case)
    for rung in _ladder(p, 1.0, [31, 32]):
        width = max((b2.shape[0] - 1) // 2 for b2, _ in rung._bands)
        for v in range(len(rung.sectors)):
            block = quantize._block(rung._bands, 2, rung.n, kind, v)
            plan = quantize._super_blocks(2, rung.n, kind, v, width)
            shift = np.linalg.eigvalsh(block)[0] - 1.0
            rhs = rng.standard_normal(len(block))
            want = np.linalg.solve(block - shift * np.eye(len(block)), rhs)
            factor = quantize._factors(block, shift, plan)
            got = quantize._solve([(np.linalg.inv(l), panel) for l, panel in factor], plan, rhs)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("case", [0, 2])
def test_iteration_falls_back_to_eigvalsh_bit_for_bit(case, monkeypatch):
    # each way the iteration can fail returns the dense bottom bit for bit:
    # a hint above the second eigenvalue of sector 0 (the block does not
    # factor at the shift), a start along the second eigenvector with a hint
    # 1 below the bottom, as when the previous rung's bottom lay in another
    # sector (theta settles on the second eigenvalue before roundoff brings
    # the ground state in, and the theta - eta certificate rejects it), and
    # the iteration cap
    m = weyl_quantize(CERTIFICATE_CASES[case][0], 1.0, 32)
    dense = lowest_eigenvalue(m)
    values, vectors = np.linalg.eigh(quantize._block(m._bands, 2, 32, m._parity, 0))
    iterate = quantize._inverse_iteration

    def from_second(block, plan, hint, margin, start):
        return iterate(block, plan, hint, margin, vectors[:, 1])

    calls = _iterations(monkeypatch)
    assert abs(quantize._bottom(m, dense, 0)[0] - dense) <= 1e-12 * abs(dense)
    assert calls == [(256, True)]
    monkeypatch.undo()
    for hint, name, patch in [(values[1] + 1.0, None, None),
                              (values[0] - 1.0, "_inverse_iteration", from_second),
                              (dense, "_INVERSE_ITERATIONS", 1)]:
        if name:
            monkeypatch.setattr(quantize, name, patch)
        calls = _iterations(monkeypatch)
        assert quantize._bottom(m, hint, 0)[0] == dense
        assert calls == [(256, False)]
        monkeypatch.undo()


def test_one_block_plans_and_first_rungs_do_no_new_work(monkeypatch):
    # a first rung has no hint, so it does not iterate, and a sector of one
    # super-block (at most 32 rows at d = 1, so N <= 64) is solved by eigvalsh
    # and certified by one Cholesky factorization, with no inverse
    def refuse(*args, **kwargs):
        raise AssertionError("new work on a first rung or a one-block plan")

    monkeypatch.setattr(quantize, "_inverse_iteration", refuse)
    p = CERTIFICATE_CASES[0][0]
    assert lowest_eigenvalue(weyl_quantize(p, 1.0, 32)) == _dense_bottom(0, 32)
    assert truncation_sweep(p, 1.0, [32]).values == [_dense_bottom(0, 32)]
    monkeypatch.setattr(np.linalg, "inv", refuse)
    h = harmonic_symbol()
    assert [len(quantize._super_blocks(1, 64, "mode", v, 4)) for v in (0, 1)] == [1, 1]
    factored = _counting(monkeypatch, "cholesky")
    truncation_sweep(h * h - 6.0 * h, 1.0, [16, 32, 64])
    assert factored == [8, 16, 32]


def _squeezed(a: float, b: float) -> PolynomialSymbol:
    """a y^2 + 2b y eta + g eta^2 with a g - b^2 = 1: a linear symplectic
    image of y^2 + eta^2, so by metaplectic covariance the Weyl operator of
    any polynomial in it is unitarily equivalent to that of the polynomial
    in y^2 + eta^2."""
    return a * y() ** 2 + 2.0 * b * (y() * eta()) + (1.0 + b * b) / a * eta() ** 2


@pytest.mark.parametrize("hbar", [1 / 16, 1 / 256])
@pytest.mark.parametrize("a, b", [(4.0, 0.0), (3.0, 0.5), (6.0, -1.0)])
@pytest.mark.parametrize("k, bottom", [(2, 2.0), (3, 6.0)])
def test_iterated_top_rungs_match_the_squeezed_closed_form(k, bottom, a, b, hbar):
    # an oracle independent of every eigensolver: Weyl(h^2) = H^2 + hbar^2 and
    # Weyl(h^3) = H^3 + 5 hbar^2 H with H = hbar (2n + 1) on Fock states, so the
    # bottoms are 2 hbar^2 and 6 hbar^3.  The N = 256 sector has a norm of about
    # (N hbar)^k times the squeeze, and dense eigvalsh, good to eps ||B||, is off
    # by up to 4.9e-9 relative here; certified inverse iteration is not
    top = truncation_sweep(_squeezed(a, b) ** k, hbar, [128, 256]).values[-1]
    want = bottom * hbar ** k
    assert abs(top - want) <= 1e-12 * want, (top, want)


def test_the_walk_iterates_in_the_sector_that_held_the_bottom(monkeypatch):
    # h^2 - 6h has its bottom -8 (n = 1) in the odd sector at d = 1, and so has
    # its squeezed image; (h1 + h2 - 4)^2 has its bottom 2 in both mixed sectors
    # at d = 2.  The walk solves the sector that held the previous rung's
    # bottom first, so its iteration converges (no eigvalsh on a 128-row d = 1
    # block) and the other sectors are certified at its value
    h = harmonic_symbol()
    h1, h2 = y(2, 0) ** 2 + eta(2, 0) ** 2, y(2, 1) ** 2 + eta(2, 1) ** 2
    q = _squeezed(3.0, 0.5)
    for p, ns, bottom, iterated in [(h * h - 6.0 * h, [64, 128, 256], -8.0, [128]),
                                    (q * q - 6.0 * q, [64, 128, 256], -8.0, [128]),
                                    ((h1 + h2 - 4.0) ** 2, [8, 16, 32, 64], 2.0, [256, 1024])]:
        calls, iterations = _counting(monkeypatch), _iterations(monkeypatch)
        sweep = truncation_sweep(p, 1.0, ns)
        monkeypatch.undo()
        assert iterations == [(rows, True) for rows in iterated]
        if p.d == 1:
            assert 128 not in calls
        assert abs(sweep.values[-1] - bottom) <= 1e-12 * abs(bottom)


@pytest.mark.parametrize("a", [0.5, -0.5])
@pytest.mark.parametrize("k, bottom", [(2, 2.0), (3, 6.0)])
def test_translated_symbols_without_parity_match_the_closed_form(k, bottom, a):
    # translation covariance (Folland 1989, ch. 2): with (T psi)(x) = psi(x + a),
    # T yhat T^-1 = yhat + a and T etahat T^-1 = etahat, and conjugation by T is
    # an algebra automorphism that keeps Weyl symmetrization, so
    # Weyl(p(y + a, eta)) = T Weyl(p) T^-1.  ((y + a)^2 + eta^2)^k thus has the
    # spectrum of h^k: bottoms 2 hbar^2 and 6 hbar^3 (see the squeezed test).  Its
    # odd terms in y leave it no parity, so every rung is one sector, and the
    # 128- and 256-row top rungs are solved by certified inverse iteration
    top = truncation_sweep(((y() + a) ** 2 + eta() ** 2) ** k, 1 / 16, [64, 128, 256]).values[-1]
    want = bottom / 16 ** k
    assert abs(top - want) <= 1e-12 * want, (top, want)


def test_symbols_without_parity_iterate_on_every_rung_after_the_first(monkeypatch):
    # a folded symbol with odd Taylor terms (y^3) has no parity: its one sector,
    # the whole block, takes eigvalsh on the first rung only and certified
    # inverse iteration above; the top value is dense eigvalsh's to its eps |B|
    h = harmonic_symbol()
    quad = y(2, 0) ** 2 + 1.2 * eta(2, 0) ** 2 + 0.8 * y(2, 1) ** 2 + eta(2, 1) ** 2
    mode2 = quad * quad + 0.4 * y(2, 0) ** 2 * y(2, 1) ** 2 + 0.9 * harmonic_symbol(2)
    for p, hbar, ns, iterated in [(h * h + 0.3 * y() ** 3 + 0.5 * h, 0.25, [64, 128, 256],
                                   [128, 256]),
                                  (mode2 + 0.2 * y(2, 0) ** 3, 1.0, [8, 16, 32], [256, 1024])]:
        assert quantize._parity_kind(p) is None
        calls, iterations = _counting(monkeypatch), _iterations(monkeypatch)
        sweep = truncation_sweep(p, hbar, ns)
        monkeypatch.undo()
        assert iterations == [(rows, True) for rows in iterated]
        assert calls == [ns[0] ** p.d]
        top = sweep.matrix.entries
        norm = np.abs(top).sum(axis=1).max()
        assert abs(sweep.values[-1] - np.linalg.eigvalsh(top)[0]) <= 4 * np.finfo(float).eps * norm


# ---------------------------------------------------------------------------
# The walk of a batch of rows
# ---------------------------------------------------------------------------

LAMBDAS = [16.0, 64.0, 256.0, 1024.0, 4096.0]


def _scaling_model(rng: np.random.Generator, squeeze: float) -> GradedSymbol:
    """(a y^2 + 2b y eta + g eta^2)^2 + c y^6 at level 0, s (y^2 + eta^2) at
    level 1, with a / g = squeeze and seeded size, tilt, c and s."""
    size = rng.uniform(0.8, 1.25)
    a, g = size * math.sqrt(squeeze), size / math.sqrt(squeeze)
    b = rng.uniform(-0.3, 0.3) * math.sqrt(a * g)
    quad = a * y() ** 2 + 2.0 * b * (y() * eta()) + g * eta() ** 2
    return GradedSymbol(1, 2, {0: quad * quad + rng.uniform(0.2, 1.0) * y() ** 6,
                               1: rng.uniform(0.5, 1.5) * harmonic_symbol()})


def _walk_alone_and_together(g: GradedSymbol, lambdas, ns, escalate: bool):
    """The rows of g's folds walked one at a time and as one batch."""
    folds, hbars = [g.fold(lam) for lam in lambdas], [1.0 / lam for lam in lambdas]
    alone = [quantize._walk([f], [h], ns, escalate)[0] for f, h in zip(folds, hbars)]
    return alone, quantize._walk(folds, hbars, ns, escalate)


def _same_walks(alone, together) -> None:
    assert len(alone) == len(together)
    for (a, a_done), (b, b_done) in zip(alone, together):
        assert (a.truncations, a_done) == (b.truncations, b_done)
        assert np.array(a.values).tobytes() == np.array(b.values).tobytes()
        assert b.matrix.n == b.truncations[-1]


@pytest.mark.parametrize("squeeze", [1.0, 1.7, 30.0, 80.0, 200.0])
def test_a_batch_of_rows_gives_the_bits_of_one_row_at_a_time(squeeze):
    # in the plain frame the squeezed models escalate, some rows to the cap,
    # so rows drop out of the batch at different rungs and the bands are
    # peeled again at the cap for the rows still walking
    g = _scaling_model(np.random.default_rng(int(squeeze * 10)), squeeze)
    for escalate in (True, False):
        _same_walks(*_walk_alone_and_together(g, LAMBDAS, [16, 32], escalate))


def test_rows_that_stop_at_different_rungs_keep_their_bits():
    # h^2 + (sqrt10 y^2 + eta^2 / sqrt10)^3 at level 0, h at level 1: the two
    # smallest Lambdas escalate past the given ladder, to N = 64
    h, r = harmonic_symbol(), math.sqrt(10.0)
    g = GradedSymbol(1, 2, {0: h * h + (r * y() ** 2 + (1.0 / r) * eta() ** 2) ** 3, 1: h})
    alone, together = _walk_alone_and_together(g, LAMBDAS, [16, 32], True)
    _same_walks(alone, together)
    assert [walk.truncations[-1] for walk, _ in together] == [64, 64, 32, 32, 32]
    assert all(done for _, done in together)


def test_rows_with_other_monomials_walk_in_their_own_batch():
    # a fold whose y^2 coefficient cancels exactly has fewer monomials than
    # the others: it walks alone, as it did before batching
    h = harmonic_symbol()
    g = GradedSymbol(1, 2, {0: h * h + y() ** 2, 1: h - 17.0 * y() ** 2})
    folds = [g.fold(lam) for lam in (4.0, 16.0, 64.0)]
    assert len(folds[1].terms) < len(folds[0].terms) == len(folds[2].terms)
    alone, together = _walk_alone_and_together(g, (4.0, 16.0, 64.0), [16, 32], True)
    _same_walks(alone, together)


def test_rows_whose_bottoms_lie_in_different_sectors_keep_their_bits(monkeypatch):
    # h^2 - 6h has its bottom on Fock level 1 (odd sector) at hbar = 1 and on
    # level 2 (even) at hbar = 0.7, so after the first rung the two rows solve
    # different sectors first, in two groups
    h = harmonic_symbol()
    p, hbars, ns = h * h - 6.0 * h, [1.0, 0.7], [16, 32, 64]
    alone = [quantize._walk([p], [hbar], ns)[0] for hbar in hbars]
    firsts, solve = [], quantize._bottoms
    monkeypatch.setattr(quantize, "_bottoms", lambda bands, d, n, kind, hints, first: (
        firsts.append((n, first, len(hints))), solve(bands, d, n, kind, hints, first))[1])
    _same_walks(alone, quantize._walk([p, p], hbars, ns))
    assert firsts == [(16, 0, 2), (32, 1, 1), (32, 0, 1), (64, 1, 1), (64, 0, 1)]


@pytest.mark.parametrize("n", [16, 32, 64])
def test_a_band_peeled_at_n_plus_its_width_is_exact_on_the_leading_block(n):
    # the walk peels at the top of the given ladder and again at the cap,
    # which is exact because the leading n-block of a band does not depend
    # on the internal size once it is at least n + W
    for a, b in MONOMIALS_UP_TO_12:
        width = a + b
        k = np.arange(2 * width + 1)[:, None] - width
        inside = (np.arange(n)[None, :] + k >= 0) & (np.arange(n)[None, :] + k < n)
        small = quantize._real_band(a, b, n + width)[:, :n][inside]
        large = quantize._real_band(a, b, 262)[:, :n][inside]
        assert small.tobytes() == large.tobytes(), (a, b, n)


MONOMIALS_UP_TO_12 = [(a, w - a) for w in range(1, 13) for a in range(w + 1)]


def test_stacked_solves_give_the_bits_of_one_matrix_at_a_time():
    # the batch rests on this: eigvalsh and cholesky on a stack give each
    # matrix the bits it gets alone, real and complex, at n = 8 to 64
    rng = np.random.default_rng(7)
    for n in (8, 16, 33, 64):
        for dtype in (float, complex):
            a = rng.standard_normal((3, n, n))
            if dtype is complex:
                a = a + 1j * rng.standard_normal((3, n, n))
            a = a @ np.conj(np.swapaxes(a, 1, 2)) + n * np.eye(n)
            stacked, factors = np.linalg.eigvalsh(a), np.linalg.cholesky(a)
            for i in range(3):
                assert stacked[i].tobytes() == np.linalg.eigvalsh(a[i]).tobytes()
                assert factors[i].tobytes() == np.linalg.cholesky(a[i]).tobytes()
