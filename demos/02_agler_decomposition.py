"""
Computing a sums-of-squares certificate for a rational inner function
=====================================================================

For a stable denominator p the quantity |p|^2 - |p~|^2 splits on the
bidisk as

    (1 - |z1|^2) sum_i |A_i(z)|^2  +  (1 - |z2|^2) sum_j |B_j(z)|^2.

The solver first reads the certificate off p's coefficients: on |z2| = 1
the one-variable Christoffel-Darboux Gram of p(., z2) is a matrix
polynomial in z2, one Riccati solve gives its outer factor, whose
coefficients are the A factors, and the B side is what remains.  A short
Gauss-Newton polish on the factors refines the pair; each of its steps is
a least-squares solve on the upper triangle of the Hermitian coefficient
residual, half its rows.  A pair counts only when its residual times
(n+1)^2 (m+1)^2, the number of terms a sampled check adds up, is at most
the tolerance.  For a strictly stable p, p's own pair passes and the
certificate reports 0 iterations.  When it fails (a repeated zero of p on
the torus), the solver starts instead from the pair of p(r z1, r z2) for
r = 0.9, 0.99, 0.999, 0.9999, which has no zero on the closed bidisk, and
polishes it against p; iterations is then the index of that radius.  If
no pair passes, the best one gets more columns and a damped polish, which
counts only once its residual falls 10^4 below the tolerance.  The seed
draws nothing and is only recorded.
The result is a certificate object that serializes to JSON.
"""

import numpy as np

from aglerkit.poly2 import BivariatePolynomial
from aglerkit.serialize import canonical_dumps
from aglerkit.sos import solve_gram, sos_residual

p = BivariatePolynomial([[2.0, -1.0], [-1.0, 0.0]])  # 2 - z1 - z2
cert = solve_gram(p)

print("solver residual:    %.3e" % cert.residual)
print("iterations:         %d (+%d polish)" % (cert.iterations, cert.polish_iterations))
print("Gram ranks:         A: %d  B: %d"
      % (np.linalg.matrix_rank(cert.gram_a, tol=1e-8),
         np.linalg.matrix_rank(cert.gram_b, tol=1e-8)))

# The factor polynomials come from an eigendecomposition of the Grams.
for i, a in enumerate(cert.a_polys):
    print("A_%d coefficients:\n" % (i + 1), np.round(a.coeffs, 6))
for j, b in enumerate(cert.b_polys):
    print("B_%d coefficients:\n" % (j + 1), np.round(b.coeffs, 6))

# An independent residual check: evaluate both sides of the identity at
# fresh random points.
resid = sos_residual(p, cert.a_polys, cert.b_polys)
print("independent residual check: %.3e" % resid)

# For this polynomial a closed-form feasible point exists:
#   A_1 = sqrt(2) (1 - z2),  B_1 = sqrt(2) (1 - z1).
s = np.sqrt(2.0)
hand_a = BivariatePolynomial(np.array([[s, -s]], dtype=complex))
hand_b = BivariatePolynomial(np.array([[s], [-s]], dtype=complex))
print("hand-built factor residual: %.3e" % sos_residual(p, [hand_a], [hand_b]))

# The certificate JSON is canonical: same polynomial and seed always
# produce the same bytes.
first = canonical_dumps(cert.to_json())
second = canonical_dumps(solve_gram(p).to_json())
print("deterministic output bytes:", first == second)
print("certificate size: %d bytes" % len(first))

# A higher-degree example: p = 8 - z1 - 2 z2 - z1 z2^2 - z1^3 z2^3.
coeffs = np.zeros((4, 4))
coeffs[0, 0] = 8.0
coeffs[1, 0] = -1.0
coeffs[0, 1] = -2.0
coeffs[1, 2] = -1.0
coeffs[3, 3] = -1.0
big = BivariatePolynomial(coeffs)
big_cert = solve_gram(big)
print("\ndegree (3,3) example: residual %.3e after %d iterations"
      % (big_cert.residual, big_cert.iterations))
