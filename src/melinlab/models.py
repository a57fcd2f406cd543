"""Canonical model builders used by the demos and tests."""

from __future__ import annotations

from .symbols import GradedSymbol, PolynomialSymbol

__all__ = [
    "harmonic_symbol",
    "quadratic_form_symbol",
    "quadratic_model",
    "quartic_model",
]


def harmonic_symbol(d: int = 1) -> PolynomialSymbol:
    """sum_s y_s^2 + eta_s^2."""
    terms = {}
    for s in range(d):
        for half in (s, d + s):
            idx = [0] * (2 * d)
            idx[half] = 2
            terms[tuple(idx)] = 1.0
    return PolynomialSymbol(d, terms)


def quadratic_form_symbol(alpha: float, beta: float, gamma: float) -> PolynomialSymbol:
    """The d = 1 quadratic form alpha y^2 + 2 beta y eta + gamma eta^2."""
    return PolynomialSymbol(1, {(2, 0): alpha, (1, 1): 2.0 * beta, (0, 2): gamma})


def quadratic_model(alpha: float, beta: float, gamma: float, s: float = 0.0) -> GradedSymbol:
    """Codimension-order-1 model: quadratic form at level 0, the
    subprincipal constant s at level 1."""
    levels = {0: quadratic_form_symbol(alpha, beta, gamma)}
    if s != 0.0:
        levels[1] = PolynomialSymbol.constant(1, s)
    return GradedSymbol(1, 1, levels)


def quartic_model(sub_coeff: float = 1.0, sextic: float = 0.0,
                  constant: float = 0.0) -> GradedSymbol:
    """Codimension-order-2 model (y^2+eta^2)^2 [+ sextic*y^6] at level 0,
    sub_coeff*(y^2+eta^2) at level 1, and an optional constant at level 2."""
    h = harmonic_symbol(1)
    level0 = h * h
    if sextic != 0.0:
        level0 = level0 + PolynomialSymbol(1, {(6, 0): sextic})
    levels = {0: level0}
    if sub_coeff != 0.0:
        levels[1] = sub_coeff * h
    if constant != 0.0:
        levels[2] = PolynomialSymbol.constant(1, constant)
    return GradedSymbol(1, 2, levels)
