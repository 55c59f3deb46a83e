"""
Normal form of idempotent self-maps of the polydisk
===================================================

A holomorphic retract of the polydisk is the image of an idempotent
holomorphic self-map rho (rho composed with itself equals rho).  After a
conjugation built from coordinate permutations and disk automorphisms,
every such map splits its coordinates into three blocks:

    k free variables      (the identity block),
    e copy variables      (duplicates of free variables), and
    f graph variables     (holomorphic functions of the free block).

This script normalizes several idempotents and shows the consistency
guards that reject non-idempotent candidates.
"""

import numpy as np

from aglerkit.errors import InconsistencyError
from aglerkit.multipoly import MultiPoly
from aglerkit.retract import RetractMap, normal_form, verify_idempotent

z1 = MultiPoly(2, {(1, 0): 1.0})
z2 = MultiPoly(2, {(0, 1): 1.0})


def describe(name, rho):
    nf = normal_form(rho)
    print("%-28s n=%d  ->  k=%d copies=%d graphs=%d   residual %.1e"
          % (name, nf.n, nf.k, nf.copy_count, nf.graph_count,
             nf.diagnostics["normal_form_residual"]))
    return nf


describe("identity", RetractMap.identity(2))
describe("duplicate (z1, z1)", RetractMap(2, (z1, z1)))
describe("twisted copy (-z2, z2)", RetractMap(2, (MultiPoly(2, {(0, 1): -1.0}), z2)))

nf = describe("parabola (z1, z1^2)", RetractMap(2, (z1, MultiPoly(2, {(2, 0): 1.0}))))
x = np.array([0.4 - 0.25j])
print("    graph component at x=%s: f(x) = %s  (x^2 = %s)"
      % (x[0], np.round(nf.f_components[0].evaluate(x), 12), np.round(x[0] ** 2, 12)))
print("    image point:", np.round(nf.image_point(x), 6))

# image_point also takes a whole (N, k) array of free coordinates and
# returns the (N, n) image points.  z2 appears in no term of the map, so
# its level is explicit: the graph is z1^2 itself and normal_form solves
# no fixed-point equation; its provenance source is the anchor record at
# rho(0).  The free coordinate z1 is an identity component of the map, so
# the graph column of a batch is read off one evaluation of rho(x, 0), a
# point of the retract.  A map such as ((z1+z2)/2, (z1+z2)/2) has an
# implicit level, whose anchor Newton refines, and solves every graph once
# per batch by one joint Newton solve.
xs = np.array([[0.4 - 0.25j], [-0.1 + 0.5j], [0.3j]])
print("    batched image points:")
for row in np.round(nf.image_point(xs), 6):
    print("     ", row)

describe("product (z1, z2, z1 z2)",
         RetractMap(3, (MultiPoly(3, {(1, 0, 0): 1.0}),
                        MultiPoly(3, {(0, 1, 0): 1.0}),
                        MultiPoly(3, {(1, 1, 0): 1.0}))))

describe("constant second (z1, c)",
         RetractMap(2, (z1, MultiPoly(2, {(0, 0): 0.3 - 0.2j}))))

# The coordinate swap is holomorphic but not idempotent: applying it
# twice gives the identity, not the swap itself.
swap = RetractMap(2, (z2, z1))
report = verify_idempotent(swap)
print("\nswap map idempotent: %s (defect %.3f)"
      % (report["passed"], report["max_defect"]))
try:
    normal_form(swap)
except InconsistencyError as exc:
    print("normal_form rejected it:", str(exc)[:72], "...")

# In one variable the rigidity is total: an idempotent self-map of the
# disk is the identity or a constant, so z -> z^2 is rejected.
try:
    normal_form(RetractMap(1, (MultiPoly(1, {(2,): 1.0}),)))
except InconsistencyError as exc:
    print("z -> z^2 rejected:", str(exc)[:72], "...")
