"""Symplectic invariants of nonnegative quadratic forms.

The symplectic form on (y, eta) is sigma(t, s) = <eta, y'> - <y, eta'>,
i.e. sigma(t, s) = t^T J s with J = [[0, -I], [I, 0]] (so J^-1 = -J).
For a quadratic form with Hessian H the fundamental matrix is
F = J^-1 H, characterized by Hess(t, t') = sigma(t, F t').  Its
eigenvalues come in pairs +/- i*lambda_j for H >= 0; the plus-trace
tr+ = sum lambda_j over the positive branch, and the Melin quantity of
a quadratic model (Q0, s) is s + tr+/2: the bottom of the spectrum of
the quantized model at hbar = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MelinLabError, PositivityError

__all__ = [
    "QuadraticData",
    "symplectic_form_matrix",
    "fundamental_matrix",
    "trace_plus",
    "melin_quantity",
]

PSD_TOL = 1e-9
AXIS_TOL = 1e-8


@dataclass
class QuadraticData:
    """Hessian of the quadratic transverse part plus the subprincipal
    constant s, the quadratic model of an operator at a base point."""

    d: int
    hessian: np.ndarray
    subprincipal: float = 0.0

    def __post_init__(self):
        if self.d < 1:
            raise DimensionMismatch(f"transverse dimension must be >= 1, got d={self.d}")
        h = np.asarray(self.hessian, dtype=float)
        if h.shape != (2 * self.d, 2 * self.d):
            raise DimensionMismatch(
                f"Hessian shape {h.shape} does not match d={self.d} (need {(2 * self.d, 2 * self.d)})"
            )
        if not np.isfinite(h).all():
            raise MelinLabError(f"Hessian entries must be finite, got {h.tolist()}")
        if np.abs(h - h.T).max() != 0.0:
            raise PositivityError(
                "Hessian must be exactly symmetric; pass (h + h.T) / 2 if "
                "roundoff from a congruence left it slightly skew"
            )
        self.hessian = h


def symplectic_form_matrix(d: int) -> np.ndarray:
    """J with sigma(t, s) = t^T J s; J = [[0, -I_d], [I_d, 0]]."""
    j = np.zeros((2 * d, 2 * d))
    j[:d, d:] = -np.eye(d)
    j[d:, :d] = np.eye(d)
    return j


def _coerce(q: QuadraticData | np.ndarray) -> QuadraticData:
    if isinstance(q, QuadraticData):
        return q
    h = np.asarray(q, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] % 2:
        raise DimensionMismatch(f"Hessian must be square of even size, got shape {h.shape}")
    return QuadraticData(d=h.shape[0] // 2, hessian=h)


def fundamental_matrix(q: QuadraticData | np.ndarray) -> np.ndarray:
    """F = J^-1 H, the Hamilton map of the quadratic form."""
    q = _coerce(q)
    return -symplectic_form_matrix(q.d) @ q.hessian


def trace_plus(q: QuadraticData | np.ndarray) -> float:
    """Sum of the positive-branch eigenvalues lambda_j of F = J^-1 H.

    Requires H positive semidefinite (within 1e-9 relative); the
    eigenvalues of F then lie on the imaginary axis, and any real part
    beyond 1e-8 relative is rejected because it signals an indefinite
    input slipping through.
    """
    q = _coerce(q)
    h = q.hessian
    eig_h = np.linalg.eigvalsh(h)
    norm = float(max(-eig_h[0], eig_h[-1]))  # the spectral norm of the symmetric h
    if eig_h[0] < -PSD_TOL * max(norm, 1e-300):
        raise PositivityError(
            f"Hessian is not positive semidefinite (lowest eigenvalue {eig_h[0]:.3e})"
        )
    f = fundamental_matrix(q)
    eig_f = np.linalg.eigvals(f)
    if eig_f.size and np.abs(eig_f.real).max() > AXIS_TOL * max(norm, 1e-300):
        raise PositivityError(
            "fundamental-matrix eigenvalues are off the imaginary axis "
            f"(max real part {np.abs(eig_f.real).max():.3e}); the form is not >= 0"
        )
    return float(eig_f.imag[eig_f.imag > 0].sum())


def melin_quantity(q: QuadraticData | np.ndarray, subprincipal: float | None = None) -> float:
    """s + tr+(F)/2, the sharp lower-bound constant of the quadratic model.

    Equals the lowest eigenvalue of the hbar = 1 quantization of the
    quadratic form plus s.
    """
    q = _coerce(q)
    s = q.subprincipal if subprincipal is None else float(subprincipal)
    return s + 0.5 * trace_plus(q)
