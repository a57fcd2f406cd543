"""Localizing a graded symbol at its characteristic point.

A graded symbol stacks levels q_0, q_1, ... with weights Lambda^(m-j).
When level j vanishes to order 2k - 2j, the degree-exact parts quantize
at hbar = 1 into the localized model P; its lowest eigenvalue is the
sharp constant of the scaling law, and the hypothesis diagnosis checks
the assumptions that make that true.
"""

from melinlab import (
    GradedSymbol,
    harmonic_symbol,
    hypothesis_check,
    localize,
    localized_symbol,
    quartic_model,
)

print("-- a quartic model with subprincipal term --")
g = quartic_model(sub_coeff=1.0, sextic=2.0)
for j, q in g.levels.items():
    print(f"  level {j}: {q}")

print("\nlocalized symbol:", localized_symbol(g))
print("(the sextic tail is above the localization order and drops out)")

op = localize(g)
print("\ntruncation ladder:", list(zip(op.sweep.truncations, op.sweep.values)))
print("lambda_min(P) =", op.lambda_min)
print("closed form: min over n of (2n+1)^2 + 1 + (2n+1) = 3")

print("\n-- hypothesis diagnosis --")
for line in hypothesis_check(g).summary_lines():
    print("  " + line)

print("\n-- a negative control --")
bad = quartic_model(sub_coeff=-3.0)
for line in hypothesis_check(bad).summary_lines():
    print("  " + line)
print("lambda_min(P) =", localize(bad).lambda_min,
      " -> the model operator is genuinely unbounded below at scale Lambda^-k.")

print("\n-- two modes: the isotropic model h^2 + c h on S^3 --")
d, c = 2, 0.5
h = harmonic_symbol(d)
diag = hypothesis_check(GradedSymbol(d, 2, {0: h ** 2, 1: c * h}), ns=(16, 32))
for line in diag.summary_lines():
    print("  " + line)
print("lambda_min(P) =", diag.lambda_min)
print(f"closed form: Weyl(h^2) = H^2 + d, so the bottom is d^2 + d + c d = {d * d + d + c * d}")
