"""
Checking that a bivariate polynomial never vanishes on the closed bidisk
========================================================================

A polynomial p(z1, z2) with no zeros on the closed unit bidisk is the
denominator of a rational inner function f = p~ / p, where p~ is the
reflection of p.  This script runs the slice-based stability test on a
few polynomials and shows what the reflection looks like.
"""

import numpy as np

from aglerkit.poly2 import BivariatePolynomial
from aglerkit.stability import check_stability

# p(z1, z2) = 2 - z1 - z2, the standard example: its only zero on the
# closed bidisk boundary is the single point (1, 1), so it is stable in
# the open bidisk but touches zero on the torus.
classic = BivariatePolynomial([[2.0, -1.0], [-1.0, 0.0]])
report = check_stability(classic)
print("p = 2 - z1 - z2")
print("  verdict:          ", report.verdict)
print("  min |p| on torus: ", report.min_modulus)

# The reflection p~(z) = z1^n1 z2^n2 conj(p(1/conj(z1), 1/conj(z2)))
# reverses the coefficient array and conjugates it.
print("  p coefficients:\n", classic.coeffs.real)
print("  p~ coefficients:\n", classic.reflect().coeffs.real)

# A polynomial with a zero inside the bidisk fails the test and the
# report carries a concrete witness point.
bad = BivariatePolynomial([[-0.5, 0.0], [1.0, 0.0]])  # z1 - 1/2
report = check_stability(bad)
print("\np = z1 - 1/2")
print("  verdict:", report.verdict)
print("  witness:", report.witness)
print("  |p(witness)| =", abs(bad(report.witness[0], report.witness[1])))

# Scaling the constant term up moves p away from zero on the torus, which
# shows up as a larger minimal modulus: c - 2 for c - z1 - z2.
for c in (2.0, 3.0, 5.0):
    p = BivariatePolynomial([[c, -1.0], [-1.0, 0.0]])
    r = check_stability(p)
    print("\np = %g - z1 - z2: verdict %s, min |p| on torus %.4f"
          % (c, r.verdict, r.min_modulus))

# The inner function f = p~ / p has modulus exactly 1 on the torus and
# modulus below 1 inside.  A quick numerical confirmation:
p = classic
pt = classic.reflect()
theta = np.linspace(0.0, 2.0 * np.pi, 7)[:-1]
z1 = np.exp(1j * theta)
z2 = np.exp(1j * (theta[::-1] + 0.3))
on_torus = np.abs(pt(z1, z2) / p(z1, z2))
inside = np.abs(pt(0.6 * z1, 0.5 * z2) / p(0.6 * z1, 0.5 * z2))
print("\n|f| on the torus:", np.round(on_torus, 12))
print("|f| inside:      ", np.round(inside, 4))
