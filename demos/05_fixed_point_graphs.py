"""
Fixed-point graphs of Schur-class maps in the last variable
===========================================================

For a holomorphic map F(z, w) of the polydisk into the unit disk, each
frozen z gives a one-variable self-map w -> F(z, w).  When that slice
map has an attracting interior fixed point, the fixed point w = g(z)
depends holomorphically on z.  This script locates slice fixed points,
solves for the graph at every node of a grid, and checks the certificate
it emits.
"""

import numpy as np

from aglerkit.fixedgraph import SchurMap, continue_graph, find_fixed_w
from aglerkit.multipoly import MultiPoly, RationalMap

# F(z1, z2, w) = (z1 z2 + w) / 2.  The slice fixed point solves
# w = (z1 z2 + w)/2, so the graph is exactly g(z) = z1 z2.
F = SchurMap(
    2,
    rational=RationalMap(MultiPoly(3, {(1, 1, 0): 0.5, (0, 0, 1): 0.5})),
)

records = find_fixed_w(F, [0.0, 0.0])
for rec in records:
    print("fixed point at the origin slice: w = %s (%s, |dF/dw| = %.3f)"
          % (np.round(rec.w, 12), rec.classification, abs(rec.derivative)))

graph = continue_graph(F, records[0], radius=0.9, grid=12)
target = graph.axes[0][:, None] * graph.axes[1][None, :]
print("graph nodes:                 %d x %d" % graph.values.shape)
print("max |g(z) - z1 z2| on grid:  %.2e"
      % np.max(np.abs(graph.values - target)))
print("max fixed-point residual:    %.2e" % graph.max_residual)
print("slice Pick matrix min eig:   %.2e"
      % graph.provenance["slice_pick_min_eig"])
print("max |dF/dw| along the graph: %.6f"
      % graph.provenance["max_w_derivative"])

# Off-grid queries rerun Newton from the anchor value, like the grid nodes:
# the slice has one interior fixed point, so there is no other branch.
z = np.array([0.55 - 0.2j, -0.3 + 0.61j])
print("off-grid query gap:          %.2e"
      % abs(graph.evaluate(z) - z[0] * z[1]))

# A map whose slices have no interior fixed point: F = (1 + w)/2 pushes
# everything toward the boundary point w = 1.
G = SchurMap(1, rational=RationalMap(MultiPoly(2, {(0, 0): 0.5, (0, 1): 0.5})))
for rec in find_fixed_w(G, [0.0]):
    print("\nboundary-attractor map: w = %s (%s)"
          % (np.round(rec.w, 9), rec.classification))

# A map that is the identity in w on some slice has a whole disk of
# fixed points there; every seed converges to a distinct one and each
# record is classified as an automorphism rather than a true interior
# attractor.
H = SchurMap(1, rational=RationalMap(MultiPoly(2, {(0, 1): 1.0})))
recs = find_fixed_w(H, [0.0])
print("identity-in-w map: %d fixed points found, classifications: %s"
      % (len(recs), sorted(set(r.classification for r in recs))))
