import math

import numpy as np
import pytest

from melinlab.errors import DimensionMismatch, MelinLabError, PositivityError
from melinlab.invariants import (
    QuadraticData,
    fundamental_matrix,
    melin_quantity,
    symplectic_form_matrix,
    trace_plus,
)
from melinlab.quantize import lowest_eigenvalue, weyl_quantize
from melinlab.symbols import PolynomialSymbol, eta, y

from oracles import random_psd_hessian, random_symplectic, trace_plus_oracle


def quadratic_symbol_from_hessian(h):
    """Symbol X^T H X / 2 in the d = len(h)//2 transverse variables."""
    h = np.asarray(h, dtype=float)
    d = h.shape[0] // 2
    coords = [y(d, s) for s in range(d)] + [eta(d, s) for s in range(d)]
    p = PolynomialSymbol.zero(d)
    for i in range(2 * d):
        for j in range(2 * d):
            if h[i, j] != 0.0:
                p = p + 0.5 * h[i, j] * (coords[i] * coords[j])
    return p


def test_symplectic_form_matrix():
    j = symplectic_form_matrix(1)
    np.testing.assert_array_equal(j, [[0.0, -1.0], [1.0, 0.0]])
    j2 = symplectic_form_matrix(2)
    np.testing.assert_array_equal(j2 @ j2, -np.eye(4))


def test_fundamental_matrix_examples():
    f = fundamental_matrix(np.array([[2.0, 0.0], [0.0, 2.0]]))
    np.testing.assert_array_equal(f, [[0.0, 2.0], [-2.0, 0.0]])
    alpha, beta, gamma = 1.5, 0.25, 0.75
    h = np.array([[2 * alpha, 2 * beta], [2 * beta, 2 * gamma]])
    np.testing.assert_array_equal(fundamental_matrix(h),
                                  [[2 * beta, 2 * gamma], [-2 * alpha, -2 * beta]])


def test_fundamental_matrix_defining_identity():
    # Hess(t, s) = sigma(t, F s) with sigma(t, s) = t^T J s
    rng = np.random.default_rng(211)
    for d in (1, 2):
        h = random_psd_hessian(rng, d)
        f = fundamental_matrix(h)
        j = symplectic_form_matrix(d)
        for _ in range(5):
            t = rng.normal(size=2 * d)
            s = rng.normal(size=2 * d)
            assert t @ j @ f @ s == pytest.approx(t @ h @ s, rel=1e-12, abs=1e-12)


def test_trace_plus_examples():
    assert trace_plus(np.array([[2.0, 0.0], [0.0, 2.0]])) == pytest.approx(2.0, abs=1e-12)
    assert trace_plus(np.zeros((2, 2))) == 0.0
    # rank-one forms have nilpotent fundamental matrix
    assert trace_plus(np.array([[2.0, 0.0], [0.0, 0.0]])) == 0.0
    alpha, beta, gamma = 2.0, 0.5, 1.0
    h = np.array([[2 * alpha, 2 * beta], [2 * beta, 2 * gamma]])
    assert trace_plus(h) == pytest.approx(2.0 * math.sqrt(alpha * gamma - beta ** 2),
                                          rel=1e-12)


def test_trace_plus_homogeneity():
    rng = np.random.default_rng(223)
    for d in (1, 2):
        h = random_psd_hessian(rng, d)
        base = trace_plus(h)
        for t in (0.5, 2.0, 10.0):
            assert trace_plus(t * h) == pytest.approx(t * base, rel=1e-12)


def test_trace_plus_symplectic_invariance():
    rng = np.random.default_rng(227)
    for d in (1, 2):
        for _ in range(10):
            h = random_psd_hessian(rng, d)
            t = random_symplectic(rng, d)
            moved = t.T @ h @ t
            moved = (moved + moved.T) / 2.0  # congruence roundoff is skew
            assert trace_plus(moved) == pytest.approx(trace_plus(h), rel=1e-8)


def test_trace_plus_matches_square_root_pencil_oracle():
    rng = np.random.default_rng(229)
    for d in (1, 2):
        for _ in range(10):
            h = random_psd_hessian(rng, d)
            assert trace_plus(h) == pytest.approx(trace_plus_oracle(h), rel=1e-9)


def test_trace_plus_rejects_indefinite():
    with pytest.raises(PositivityError):
        trace_plus(np.array([[1.0, 0.0], [0.0, -1.0]]))
    # within the PSD tolerance, but F has the real eigenvalues +-1e-5
    with pytest.raises(PositivityError, match="off the imaginary axis"):
        trace_plus(np.diag([1.0, -1e-10]))


def test_quadratic_data_validation():
    with pytest.raises(DimensionMismatch):
        QuadraticData(2, np.eye(2))
    with pytest.raises(PositivityError):
        QuadraticData(1, np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(DimensionMismatch):
        trace_plus(np.eye(3))
    for bad in (math.nan, math.inf):
        with pytest.raises(MelinLabError, match="must be finite"):
            QuadraticData(1, np.array([[bad, 0.0], [0.0, 1.0]]))


def test_quadratic_data_rejects_d_zero_before_numpy():
    with pytest.raises(DimensionMismatch, match=">= 1, got d=0"):
        QuadraticData(0, np.zeros((0, 0)))
    with pytest.raises(DimensionMismatch, match=">= 1, got d=0"):
        trace_plus(np.zeros((0, 0)))


def test_quadratic_data_rejects_negative_d():
    # the shape check alone would name an impossible shape (-2, -2)
    with pytest.raises(DimensionMismatch, match=">= 1, got d=-1"):
        QuadraticData(-1, np.eye(2))


def test_melin_quantity():
    q = QuadraticData(1, np.array([[2.0, 0.0], [0.0, 2.0]]), subprincipal=-1.0)
    assert melin_quantity(q) == pytest.approx(0.0, abs=1e-12)
    assert melin_quantity(q, subprincipal=2.0) == pytest.approx(3.0, abs=1e-12)
    assert melin_quantity(np.array([[2.0, 0.0], [0.0, 2.0]])) == pytest.approx(1.0, abs=1e-12)


def test_ground_state_identity_d1():
    # lambda_min of the hbar = 1 quantization of a positive definite
    # quadratic form equals tr+/2
    rng = np.random.default_rng(233)
    for _ in range(8):
        alpha = rng.uniform(0.7, 2.5)
        gamma = rng.uniform(0.7, 2.5)
        beta = rng.uniform(-0.5, 0.5)
        h = np.array([[2 * alpha, 2 * beta], [2 * beta, 2 * gamma]])
        sym = quadratic_symbol_from_hessian(h)
        lam_min = lowest_eigenvalue(weyl_quantize(sym, 1.0, 64))
        assert lam_min == pytest.approx(0.5 * trace_plus(h), abs=1e-8)


def test_ground_state_identity_d2():
    rng = np.random.default_rng(239)
    a = rng.normal(size=(4, 4)) * 0.3
    h = a @ a.T + np.diag([2.0, 2.4, 2.2, 2.6])
    h = (h + h.T) / 2.0
    sym = quadratic_symbol_from_hessian(h)
    lam_min = lowest_eigenvalue(weyl_quantize(sym, 1.0, 24))
    assert lam_min == pytest.approx(0.5 * trace_plus(h), abs=1e-7)
