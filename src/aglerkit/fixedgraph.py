"""Fixed points in the last variable of a Schur-class map, and their graphs.

A map F(z, w) sending the polydisk (z in D^n, w in D) into the closed disk
has, for each frozen z, a distinguished fixed point in w whenever the slice
w -> F(z, w) is not a disk automorphism.  This module finds those fixed
points with Newton iteration, classifies them by the slice derivative,
and solves for the graph w = f(z) over a grid, recording slice
positivity diagnostics along the way.  Such a slice has at most one
interior fixed point (Schwarz lemma), so all grid nodes are solved
together by one damped Newton sweep from the anchor value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateContinuationError, InconsistencyError
from .moebius import detect_automorphism
from .numerics import eig_hermitian
from .pick import pick_matrix
from .sampling import disk_points, random_disk, random_polydisk
from .serialize import complex_to_pair, matrix_to_pairs, pair_to_complex

CLASS_INTERIOR = "interior"
CLASS_AUTOMORPHISM = "automorphism"
CLASS_BOUNDARY = "boundary"

IDENTITY_IN_W = "identity"
UNIQUE_GRAPH = "unique_graph"
NO_FIXED_POINTS = "no_fixed_points"


class SchurMap:
    """Map F(z, w) with z in the polydisk D^n and w in the disk.

    The map may be given as a rational map in n + 1 variables (w last),
    which yields exact partial derivatives, or as a raw callable
    ``fn(z, w)`` on one point, which an adapter calls row by row and
    whose derivatives fall back to central differences with the given step.
    """

    def __init__(self, n, fn=None, rational=None, step=1e-6, name=None):
        self.n = int(n)
        if self.n < 1:
            raise ValueError("the map needs at least one z variable")
        if rational is not None and rational.nvars != self.n + 1:
            raise ValueError(
                "rational map must use %d variables (z..., w)" % (self.n + 1)
            )
        if fn is None and rational is None:
            raise ValueError("provide a callable or a rational map")
        self.fn = fn
        self.rational = rational
        self.step = float(step)
        self.name = name
        self._partial_cache = {}
        self._evaluate = rational.evaluate if rational is not None else self._row_loop

    @classmethod
    def _batched(cls, n, evaluate):
        """Map given by ``evaluate`` on (N, n + 1) rows (w last), returning (N,).

        Used for reduced retract components, whose every call is one batched
        graph solve; partials are central differences.
        """
        smap = cls(n, fn=evaluate)
        smap._evaluate = evaluate
        return smap

    def _row_loop(self, pts):
        """A raw callable takes one (z, w) pair per call; the only row loop."""
        return np.array(
            [complex(self.fn(row[: self.n], complex(row[self.n]))) for row in pts],
            dtype=complex,
        )

    def _rows(self, Z, W, index=None):
        """F, or its partial in variable ``index`` (w is index n), at each row pair.

        W has shape (N,) and Z shape (N, n), or (n,) for one z shared by
        every row.  Every kind of map is evaluated by one call on an
        (N, n + 1) array; partials are exact for a rational map and central
        differences otherwise, plus and minus sharing one call.
        """
        pts = np.empty((len(W), self.n + 1), dtype=complex)
        pts[:, : self.n] = Z
        pts[:, self.n] = W
        if index is None:
            return np.asarray(self._evaluate(pts), dtype=complex)
        if self.rational is not None:
            return np.asarray(self._partial_map(index).evaluate(pts), dtype=complex)
        h = self.step
        both = np.concatenate([pts, pts])
        both[: len(W), index] += h
        both[len(W):, index] -= h
        values = np.asarray(self._evaluate(both), dtype=complex)
        return (values[: len(W)] - values[len(W):]) / (2.0 * h)

    def _at(self, z, w, index=None):
        """_rows at one z point and a scalar or array of w values."""
        z = np.asarray(z, dtype=complex).reshape(self.n)
        warr = np.asarray(w, dtype=complex)
        values = self._rows(z, warr.reshape(-1), index)
        if warr.ndim == 0:
            return complex(values[0])
        return values.reshape(warr.shape)

    def __call__(self, z, w):
        return self._at(z, w)

    def _partial_map(self, index):
        if index not in self._partial_cache:
            self._partial_cache[index] = self.rational.partial(index)
        return self._partial_cache[index]

    def partial_w(self, z, w):
        """dF/dw at (z, w)."""
        return self._at(z, w, self.n)

    def partial_z(self, index, z, w):
        """dF/dz_index at (z, w)."""
        index = int(index)
        if not 0 <= index < self.n:
            raise ValueError("z-variable index out of range")
        return self._at(z, w, index)

    def check_schur(self, samples=200, seed=11, radius=0.95, tol=1e-9):
        """Sample |F| over the polydisk and report the worst modulus."""
        rng = np.random.default_rng(seed)
        zs = random_polydisk(rng, samples, self.n, radius)
        ws = random_disk(rng, samples, radius)
        moduli = np.abs(self._rows(zs, ws))
        worst = float(moduli.max(initial=0.0))
        report = {
            "max_modulus": worst,
            "samples": int(samples),
            "radius": float(radius),
            "tol": float(tol),
            "passed": bool(worst <= 1.0 + tol),
        }
        if worst > 0.0:
            i = int(np.argmax(moduli))
            report["witness"] = {
                "z": [complex_to_pair(v) for v in zs[i]],
                "w": complex_to_pair(ws[i]),
            }
        return report

    def to_json(self):
        if self.rational is None:
            raise ValueError("a map built from a raw callable cannot be serialized")
        payload = {"n": self.n}
        payload.update(self.rational.to_json())
        if self.name:
            payload["name"] = str(self.name)
        return payload

    @classmethod
    def from_json(cls, payload):
        from .multipoly import MultiPoly, RationalMap

        if "rational" in payload:
            rational = RationalMap.from_json(payload["rational"])
        else:
            numerator = MultiPoly.from_json(payload["numerator"])
            denominator = None
            if "denominator" in payload:
                denominator = MultiPoly.from_json(payload["denominator"])
            rational = RationalMap(numerator, denominator)
        return cls(int(payload["n"]), rational=rational, name=payload.get("name"))


@dataclass
class FixedPointRecord:
    """One solution of F(z, w) = w with its slice-derivative classification."""

    z: tuple
    w: complex
    derivative: complex
    classification: str
    residual: float
    iterations: int

    def to_json(self):
        return {
            "z": [complex_to_pair(v) for v in self.z],
            "w": complex_to_pair(self.w),
            "derivative": complex_to_pair(self.derivative),
            "classification": self.classification,
            "residual": float(self.residual),
            "iterations": int(self.iterations),
        }

    @classmethod
    def from_json(cls, payload):
        return cls(
            z=tuple(pair_to_complex(v) for v in payload["z"]),
            w=pair_to_complex(payload["w"]),
            derivative=pair_to_complex(payload["derivative"]),
            classification=str(payload["classification"]),
            residual=float(payload["residual"]),
            iterations=int(payload["iterations"]),
        )


def _newton(smap, Z, W, tol=1e-12, max_iter=50):
    """Damped Newton on G = F(z, w) - w at every row pair of (Z, W) at once.

    Each row runs its own iteration: it stops once |G| <= tol and fails if
    |dG/dw| < 1e-14.  A step that would leave the disk is halved, at most 14
    times, and a point still outside is pulled just inside.  Returns the
    final values with per-row iteration counts and convergence flags.
    Row masks are tested with np.count_nonzero rather than .any(), which
    costs a third as much on the one-row solves of point queries.
    """
    z = Z = np.asarray(Z, dtype=complex).reshape(-1, smap.n)
    w = W = np.array(W, dtype=complex).reshape(-1)
    iterations = np.full(W.size, max_iter)
    converged = np.zeros(W.size, dtype=bool)
    live = np.arange(W.size)
    for iteration in range(1, max_iter + 1):
        g = smap._rows(z, w) - w
        done = np.abs(g) <= tol
        if np.count_nonzero(done):
            rows = live[done]
            converged[rows] = True
            iterations[rows] = iteration
            keep = ~done
            live = live[keep]
            if not live.size:
                break
            z, w, g = z[keep], w[keep], g[keep]
        dg = smap._rows(z, w, smap.n) - 1.0
        stuck = np.abs(dg) < 1e-14
        if np.count_nonzero(stuck):
            iterations[live[stuck]] = iteration
            keep = ~stuck
            live, z, w, g, dg = live[keep], z[keep], w[keep], g[keep], dg[keep]
        step = g / dg
        new = w - step
        out = np.abs(new) >= 1.0
        if np.count_nonzero(out):
            scale = np.ones(w.size)
            for _ in range(14):
                scale[out] *= 0.5
                new[out] = w[out] - scale[out] * step[out]
                out = np.abs(new) >= 1.0
                if not np.count_nonzero(out):
                    break
            new[out] = new[out] / np.abs(new[out]) * 0.999999
        W[live] = w = new
    else:
        converged[live] = np.abs(smap._rows(z, w) - w) <= tol
    return W, iterations, converged


def find_fixed_w(smap, z, seeds=None, tol=1e-12, dedup_tol=1e-8, deriv_tol=1e-6):
    """All fixed points of w -> F(z, w) found from a spread of seeds.

    Each converged solution is classified by the modulus of the slice
    derivative: well below 1 is an interior (attracting) point, within
    deriv_tol of 1 is the automorphism case.  A modulus above 1 + 1e-8 is
    impossible for a disk self-map and raises InconsistencyError, as do
    two distinct interior fixed points on one slice.
    """
    z = np.asarray(z, dtype=complex).reshape(smap.n)
    if seeds is None:
        seeds = np.concatenate([np.zeros(1, dtype=complex), disk_points(12, 0.9)])
    seeds = np.asarray(seeds, dtype=complex).reshape(-1)
    ws, counts, oks = _newton(smap, np.broadcast_to(z, (seeds.size, smap.n)), seeds, tol)
    found = []
    for w, iterations, ok in zip(ws, counts, oks):
        if not ok or abs(w) > 1.0 + 1e-9:
            continue
        if any(abs(w - prev) <= dedup_tol for prev, _ in found):
            continue
        found.append((w, iterations))

    records = []
    for w, iterations in found:
        deriv = smap.partial_w(z, w)
        mod = abs(deriv)
        if mod > 1.0 + 1e-8:
            raise InconsistencyError(
                "slice derivative modulus %.6e at a fixed point exceeds 1; "
                "the map does not send the disk into itself" % mod
            )
        if abs(w) >= 1.0 - 1e-8:
            classification = CLASS_BOUNDARY
        elif mod <= 1.0 - deriv_tol:
            classification = CLASS_INTERIOR
        else:
            classification = CLASS_AUTOMORPHISM
        residual = abs(smap(z, w) - w)
        records.append(
            FixedPointRecord(
                z=tuple(complex(v) for v in z),
                w=complex(w),
                derivative=complex(deriv),
                classification=classification,
                residual=float(residual),
                iterations=int(iterations),
            )
        )

    interior = [r for r in records if r.classification == CLASS_INTERIOR]
    for i in range(len(interior)):
        for j in range(i + 1, len(interior)):
            if abs(interior[i].w - interior[j].w) > 1e-6:
                raise InconsistencyError(
                    "two distinct interior fixed points on one slice; a "
                    "Schur-class slice admits at most one"
                )
    records.sort(key=lambda r: (round(r.w.real, 9), round(r.w.imag, 9)))
    return records


def detect_w_automorphism(smap, z_center=None, tol=1e-8, check_slices=20, seed=307):
    """Moebius form of the w-slices, or None.

    If the slice at the base point is a disk automorphism, every other
    slice must be the same automorphism; a holomorphic family cannot leave
    the automorphism group at one parameter and match it at another.  A
    mismatch therefore raises InconsistencyError rather than returning a
    partial answer.
    """
    if z_center is None:
        z_center = np.zeros(smap.n, dtype=complex)
    z_center = np.asarray(z_center, dtype=complex).reshape(smap.n)
    phi = detect_automorphism(lambda w: smap(z_center, w), tol=tol)
    if phi is None:
        return None
    rng = np.random.default_rng(seed)
    bases = random_polydisk(rng, check_slices, smap.n, 0.8)
    probes = disk_points(12, 0.85)
    expected = phi(probes)
    for base in bases:
        values = smap(base, probes)
        if np.max(np.abs(values - expected)) > max(10.0 * tol, 1e-7):
            raise InconsistencyError(
                "the w-slice at one base point is a disk automorphism but "
                "another slice differs from it"
            )
    return phi


@dataclass
class GraphFunction:
    """Graph w = f(z) stored on a grid, with residuals and provenance.

    axes holds one node array per z variable; values and residuals are
    arrays over the Cartesian product of the axes.  Evaluation at new
    points either delegates to an attached evaluator, a callable on (N, k)
    rows, or reruns Newton seeded from each row's nearest grid node.
    """

    axes: tuple
    values: np.ndarray
    residuals: np.ndarray
    provenance: dict = field(default_factory=dict)
    smap: SchurMap | None = None
    evaluator: object | None = None

    @property
    def max_residual(self):
        arr = np.asarray(self.residuals, dtype=float)
        if arr.size == 0:
            return 0.0
        return float(np.max(arr))

    def evaluate(self, z):
        """f at one point (k,), as a complex, or at the rows of (N, k), as (N,).

        An attached evaluator gets the rows; otherwise each row reruns
        Newton from its nearest grid node, all rows in one sweep.
        """
        z = np.asarray(z, dtype=complex)
        rows = z if z.ndim == 2 else z.reshape(1, -1)
        if self.evaluator is not None:
            values = np.asarray(self.evaluator(rows), dtype=complex)
        else:
            if self.smap is None:
                raise InconsistencyError("graph has no evaluator and no map attached")
            if rows.shape[1] != len(self.axes):
                raise ValueError("point dimension does not match the graph axes")
            nearest = tuple(
                np.argmin(np.abs(ax[None, :] - rows[:, i, None]), axis=1)
                for i, ax in enumerate(self.axes)
            )
            values, _, ok = _newton(self.smap, rows, np.asarray(self.values)[nearest])
            if not ok.all():
                raise DegenerateContinuationError(
                    "fixed-point refinement failed at a query point",
                    location=tuple(complex(v) for v in rows[np.argmin(ok)]),
                )
        return values if z.ndim == 2 else complex(values[0])

    def to_json(self):
        return {
            "axes": [[complex_to_pair(v) for v in ax] for ax in self.axes],
            "values": matrix_to_pairs(self.values),
            "residuals": np.asarray(self.residuals, dtype=float).tolist(),
            "provenance": dict(self.provenance),
        }


def local_graph(smap, record, points, tol=1e-12):
    """Fixed-point values at z points, all by one Newton sweep from record.w.

    A slice that is not an automorphism has at most one interior fixed
    point (Schwarz lemma), so Newton from the anchor value has no other
    branch to land on and the points need no path between them.
    Returns (values, residuals) aligned with the input points.
    """
    if record.classification != CLASS_INTERIOR:
        raise InconsistencyError(
            "graph continuation needs an interior fixed point, got %r"
            % record.classification
        )
    if abs(1.0 - smap.partial_w(record.z, record.w)) < 1e-8:
        raise DegenerateContinuationError(
            "slice derivative pins the fixed-point equation at the anchor "
            "(|1 - dF/dw| < 1e-8)",
            location=tuple(complex(v) for v in record.z),
        )
    pts = np.asarray(points, dtype=complex).reshape(-1, smap.n)
    values, _, ok = _newton(smap, pts, np.full(len(pts), complex(record.w)), tol=tol)
    if not ok.all():
        raise DegenerateContinuationError(
            "Newton from the anchor value failed to converge at a point",
            location=tuple(complex(v) for v in pts[np.argmin(ok)]),
        )
    residuals = np.abs(smap._rows(pts, values) - values)
    return values, residuals


def continue_graph(
    smap,
    record,
    radius=0.9,
    grid=20,
    axes=None,
    tol=1e-12,
    seed=1914,
    pick_slices=4,
    pick_nodes=8,
):
    """Continue an interior fixed point into a graph over a product grid.

    Solves every grid node at once by damped Newton from the anchor value,
    then validates the result: residuals at every node, the slice
    derivative bound max |dF/dw|, and a Pick matrix test on a few w-slices
    for Schur-class positivity.  All diagnostics land in the returned
    GraphFunction's provenance.  The default axes are disk_points(grid,
    radius) for every z variable.
    """
    phi = detect_w_automorphism(smap, z_center=record.z)
    if phi is not None:
        raise InconsistencyError(
            "the anchor w-slice is a disk automorphism; its fixed point does "
            "not continue to a unique graph"
        )
    if axes is None:
        axes = tuple(disk_points(grid, radius) for _ in range(smap.n))
    else:
        axes = tuple(np.asarray(ax, dtype=complex).ravel() for ax in axes)
        if len(axes) != smap.n:
            raise ValueError("need one axis per z variable")
    shape = tuple(len(ax) for ax in axes)
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, smap.n)
    values, residuals = local_graph(smap, record, nodes, tol)
    max_deriv = float(np.max(np.abs(smap._rows(nodes, values, smap.n))))
    max_modulus = float(np.max(np.abs(values)))

    anchor_z = np.asarray(record.z, dtype=complex).reshape(smap.n)
    rng = np.random.default_rng(seed)
    flat_indices = rng.choice(len(nodes), size=min(pick_slices, len(nodes)), replace=False)
    w_nodes = disk_points(pick_nodes, 0.7)
    pick_min_eig = np.inf
    for base in [anchor_z, *nodes[flat_indices]]:
        eigs, _ = eig_hermitian(pick_matrix(w_nodes, smap(base, w_nodes)))
        pick_min_eig = min(pick_min_eig, float(eigs[0]))

    provenance = {
        "method": "continuation",
        "radius": float(radius),
        "grid": [int(s) for s in shape],
        "anchor_z": [complex_to_pair(v) for v in anchor_z],
        "anchor_w": complex_to_pair(record.w),
        "max_w_derivative": max_deriv,
        "max_value_modulus": max_modulus,
        "max_residual": float(np.max(residuals)),
        "slice_pick_min_eig": float(pick_min_eig),
        "slice_pick_nodes": int(pick_nodes),
        "tol": float(tol),
        "seed": int(seed),
    }
    return GraphFunction(
        axes=axes,
        values=values.reshape(shape),
        residuals=residuals.reshape(shape),
        provenance=provenance,
        smap=smap,
    )


def uniqueness_check(smap, samples=10, seed=2024, radius=0.8, tol=1e-10):
    """Trichotomy for the fixed-point structure of the w-slices.

    Returns "identity" when F(z, w) = w identically, "unique_graph" when
    every sampled slice carries an attracting interior fixed point, and
    "no_fixed_points" when some slice has none (the attractor sits on the
    boundary or the slice is an automorphism).
    """
    rng = np.random.default_rng(seed)
    zs = random_polydisk(rng, samples, smap.n, radius)
    identity = True
    for z in zs:
        probes = random_disk(rng, 4, radius)
        if any(abs(smap(z, complex(w)) - complex(w)) > tol for w in probes):
            identity = False
            break
    if identity:
        return IDENTITY_IN_W
    for z in zs:
        records = find_fixed_w(smap, z)
        if not any(r.classification == CLASS_INTERIOR for r in records):
            return NO_FIXED_POINTS
    return UNIQUE_GRAPH
