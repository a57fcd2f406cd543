"""Weyl quantization in the Fock basis.

quantize() returns the exact leading block of the infinite matrix: each
z-monomial zbar^m z^n of the symbol (z = (y + i eta) / sqrt(2 hbar)) has
closed-form entries on one diagonal, so truncation is a compression.
Eigenvalues therefore decrease as the truncation grows, and the harmonic
oscillator comes out exactly.
"""

import numpy as np

from melinlab import harmonic_symbol, moyal_star, truncation_sweep, weyl_quantize
from melinlab.symbols import eta, y

H = harmonic_symbol()
print("symbol:", H)

print("\n-- spectrum at hbar = 1 --")
m = weyl_quantize(H, 1.0, 8)
print("diagonal:", np.round(np.diag(m.entries).real, 12))
print("the matrix is exactly diagonal: hbar (2n + 1).")

print("\n-- hbar scaling --")
m4 = weyl_quantize(H, 0.25, 6)
print("diagonal at hbar = 1/4:", np.round(np.diag(m4.entries).real, 12))

print("\n-- the zero-point correction in H^2 --")
m2 = weyl_quantize(H * H, 1.0, 6)
print("diag quantize(H^2):", np.round(np.diag(m2.entries).real, 10))
print("expected (2n+1)^2 + 1:", [(2 * n + 1) ** 2 + 1 for n in range(6)])
print("the +1 is quantize(H)^2 + hbar^2, matching H # H = H^2 - hbar^2.")

print("\n-- star product vs matrix product --")
a = y() ** 2 + eta()
b = y() * eta()
big = 16
prod = (weyl_quantize(a, 1.0, big).entries @ weyl_quantize(b, 1.0, big).entries)[:8, :8]
direct = weyl_quantize(moyal_star(a, b, 1.0), 1.0, 8).entries
print("max |quantize(a)quantize(b) - quantize(a#b)| =", np.abs(prod - direct).max())

print("\n-- truncation is a compression --")
sweep = truncation_sweep(y() ** 6 + eta() ** 6, 1.0, [8, 16, 32, 64])
for n, v in zip(sweep.truncations, sweep.values):
    print(f"  N = {n:3d}   lambda_min = {v:.12f}")
print("values can only decrease; the gap certifies convergence.")
