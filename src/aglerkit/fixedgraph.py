"""Fixed points in the last variable of a Schur-class map, and their graphs.

A map F(z, w) sending the polydisk (z in D^n, w in D) into the closed disk
has, for each frozen z, a distinguished fixed point in w whenever the slice
w -> F(z, w) is not a disk automorphism.  This module finds those fixed
points with Newton iteration, classifies them by the slice derivative,
and solves for the graph w = f(z) over a grid, recording slice
positivity diagnostics along the way.  One rule, _classify, calls a fixed
point interior (|w| < 1 - 1e-8 and |dF/dw| <= 1 - _DERIV_TOL); it labels
find_fixed_w's records and is the graph anchor's test.  An anchor slice
with |dF/dw| < 1 has at most one interior fixed point (Schwarz lemma), so
all grid nodes, and every point the graph evaluates later, are solved by
damped Newton from the anchor value; the stored grid is output only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateContinuationError, InconsistencyError
from .multipoly import MultiPoly, RationalMap, _QuotientRule
from .pick import pick_matrix
from .sampling import disk_points, random_disk, random_polydisk
from .serialize import complex_to_pair, matrix_to_pairs

CLASS_INTERIOR = "interior"
CLASS_AUTOMORPHISM = "automorphism"
CLASS_BOUNDARY = "boundary"

_SCHUR_RADIUS = 0.95  # polydisk radius of the sampled |F| <= 1 check
_SCHUR_TOL = 1e-9
_DEDUP_TOL = 1e-8  # Newton solutions this close count as one fixed point
_DERIV_TOL = 1e-6  # |dF/dw| within this of 1 classifies as an automorphism
_PICK_SLICES = 4  # random grid nodes whose w-slice gets a Pick test
_PICK_NODES = 8


class SchurMap:
    """Map F(z, w) with z in the polydisk D^n and w in the disk.

    The map is exact: ``rational`` is a RationalMap in n + 1 variables
    (w last), else TypeError.  F and its exact dF/dw at a set of rows come
    from one table of num, den, d num/dw and d den/dw, by multipoly's
    quotient rule.
    """

    def __init__(self, n, rational, name=None):
        self.n = int(n)
        if self.n < 1:
            raise ValueError("the map needs at least one z variable")
        if not isinstance(rational, RationalMap):
            raise TypeError("rational must be a RationalMap")
        if rational.nvars != self.n + 1:
            raise ValueError(
                "rational map must use %d variables (z..., w)" % (self.n + 1)
            )
        self.rational = rational
        self.name = name
        self._rule = _QuotientRule([(rational.numerator, rational.denominator)], rational._pole_tol, [self.n],
                                   range(self.n + 1))

    def _rows(self, Z, W, dw=False):
        """F at each row pair, or the pair (F, dF/dw) when ``dw`` is set.

        W has shape (N,) and Z shape (N, n), or (n,) for one z shared by
        every row.  The map is evaluated by one call on the rows.
        """
        pts = np.empty((len(W), self.n + 1), dtype=complex)
        pts[:, : self.n] = Z
        pts[:, self.n] = W
        f, df = self._rule(pts)
        return (f[:, 0], df[:, 0, 0]) if dw else f[:, 0]

    def _at(self, z, w, dw=False):
        """_rows at one z point and a scalar or array of w values (dF/dw if dw)."""
        z = np.asarray(z, dtype=complex).reshape(self.n)
        warr = np.asarray(w, dtype=complex)
        values = self._rows(z, warr.reshape(-1), dw)
        values = values[1] if dw else values
        if warr.ndim == 0:
            return complex(values[0])
        return values.reshape(warr.shape)

    def __call__(self, z, w):
        return self._at(z, w)

    def partial_w(self, z, w):
        """dF/dw at (z, w)."""
        return self._at(z, w, dw=True)

    def check_schur(self, samples=200, seed=11):
        """Sample |F| over the polydisk and report the worst modulus."""
        if samples < 1:
            raise ValueError("samples must be a positive integer")
        rng = np.random.default_rng(seed)
        zs = random_polydisk(rng, samples, self.n, _SCHUR_RADIUS)
        ws = random_disk(rng, samples, _SCHUR_RADIUS)
        moduli = np.abs(self._rows(zs, ws))
        worst = float(moduli.max(initial=0.0))
        report = {
            "max_modulus": worst,
            "samples": int(samples),
            "radius": _SCHUR_RADIUS,
            "tol": _SCHUR_TOL,
            "passed": bool(worst <= 1.0 + _SCHUR_TOL),
        }
        if worst > 0.0:
            i = int(np.argmax(moduli))
            report["witness"] = {
                "z": [complex_to_pair(v) for v in zs[i]],
                "w": complex_to_pair(ws[i]),
            }
        return report

    def to_json(self):
        payload = {"n": self.n}
        payload.update(self.rational.to_json())
        if self.name:
            payload["name"] = str(self.name)
        return payload

    @classmethod
    def from_json(cls, payload):
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


def _newton(smap, Z, W, tol=1e-12, max_iter=50):
    """Damped Newton on G = F(z, w) - w at every row pair of (Z, W) at once.

    W holds one unknown per row, (N,) or (N, 1), or g > 1, (N, g), which
    smap._rows gets as (N,) or (N, g), giving F in that shape and dF/dw as
    (N,) or (N, g, g).  A row stops once max |G| <= tol and fails if
    |det dG/dw| < 1e-14.  Each iteration evaluates F and dF/dw once at the
    live rows, drops the converged ones and steps by G / dG/dw (a g x g
    solve).  A step leaving the polydisk is halved, at most 14 times, and
    a coordinate still outside is pulled just inside.  Zero rows return at
    once.  Returns the values in W's shape, per-row iteration counts,
    convergence flags, and F and dF/dw from smap._rows at each converged
    row's value (zero elsewhere).  Row masks are tested with
    np.count_nonzero rather than .any(), a third of the cost on one row.
    """
    z = Z = np.asarray(Z, dtype=complex).reshape(-1, smap.n)
    values = np.array(W, dtype=complex)
    joint = values.ndim == 2 and values.shape[1] > 1
    w = W = values if joint else values.reshape(-1)
    eye, size = (np.eye(W.shape[1]), lambda a: np.abs(a).max(axis=1)) if joint else (1.0, np.abs)
    iterations = np.full(len(W), max_iter)
    converged = np.zeros(len(W), dtype=bool)
    f_at, df_at = np.zeros_like(W), np.zeros(W.shape + W.shape[1:], dtype=complex)
    live = np.arange(len(W))
    if not live.size:
        return values, iterations, converged, f_at, df_at
    for iteration in range(1, max_iter + 2):  # the last pass checks the last step only
        f, df = smap._rows(z, w, dw=True)
        g = f - w
        done = size(g) <= tol
        if np.count_nonzero(done):
            rows = live[done]
            converged[rows] = True
            iterations[rows] = min(iteration, max_iter)
            f_at[rows], df_at[rows] = f[done], df[done]
            keep = ~done
            live = live[keep]
            if not live.size:
                break
            z, w, g, df = z[keep], w[keep], g[keep], df[keep]
        if iteration > max_iter:
            break
        dg = df - eye
        stuck = np.abs(np.linalg.det(dg) if joint else dg) < 1e-14
        if np.count_nonzero(stuck):
            iterations[live[stuck]] = iteration
            keep = ~stuck
            live, z, w, g, dg = live[keep], z[keep], w[keep], g[keep], dg[keep]
        step = np.linalg.solve(dg, g[..., None])[..., 0] if joint else g / dg
        new = w - step
        out = size(new) >= 1.0
        if np.count_nonzero(out):
            scale = np.ones((len(w), 1) if joint else len(w))
            for _ in range(14):
                scale[out] *= 0.5
                new[out] = w[out] - scale[out] * step[out]
                out = size(new) >= 1.0
                if not np.count_nonzero(out):
                    break
            outside = np.abs(new) >= 1.0
            new[outside] = new[outside] / np.abs(new[outside]) * 0.999999
        W[live] = w = new
    return values, iterations, converged, f_at, df_at


def _classify(w, mod):
    """The interior rule, for a fixed point w with slice derivative modulus mod.

    Boundary when |w| >= 1 - 1e-8; else interior (attracting) when
    mod <= 1 - _DERIV_TOL, and the automorphism case when mod is within
    _DERIV_TOL of 1.
    """
    if abs(w) >= 1.0 - 1e-8:
        return CLASS_BOUNDARY
    return CLASS_INTERIOR if mod <= 1.0 - _DERIV_TOL else CLASS_AUTOMORPHISM


def find_fixed_w(smap, z, seeds=None, tol=1e-12):
    """All fixed points of w -> F(z, w) found from a spread of seeds.

    Each converged solution is classified by _classify.  A slice
    derivative modulus above 1 + 1e-8 is impossible for a disk self-map
    and raises InconsistencyError, as do two distinct interior fixed
    points on one slice.
    """
    z = np.asarray(z, dtype=complex).reshape(smap.n)
    if seeds is None:
        seeds = np.concatenate([np.zeros(1, dtype=complex), disk_points(12, 0.9)])
    seeds = np.asarray(seeds, dtype=complex).reshape(-1)
    ws, counts, oks, _, _ = _newton(smap, np.broadcast_to(z, (seeds.size, smap.n)), seeds, tol)
    found = []
    for w, iterations, ok in zip(ws, counts, oks):
        if not ok or abs(w) > 1.0 + 1e-9:
            continue
        if any(abs(w - prev) <= _DEDUP_TOL for prev, _ in found):
            continue
        found.append((w, iterations))

    values, derivs = smap._rows(z, np.array([w for w, _ in found], dtype=complex), dw=True)
    records = []
    for (w, iterations), value, deriv in zip(found, values, derivs):
        mod = abs(deriv)
        if mod > 1.0 + 1e-8:
            raise InconsistencyError(
                "slice derivative modulus %.6e at a fixed point exceeds 1; "
                "the map does not send the disk into itself" % mod
            )
        records.append(
            FixedPointRecord(
                z=tuple(complex(v) for v in z),
                w=complex(w),
                derivative=complex(deriv),
                classification=_classify(w, mod),
                residual=float(abs(value - w)),
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


def _slices(smap, bases, ws):
    """F on the w-slice of every base point, one call: (len(bases), len(ws))."""
    values = smap._rows(np.repeat(bases, len(ws), axis=0), np.tile(ws, len(bases)))
    return values.reshape(len(bases), len(ws))


@dataclass
class GraphFunction:
    """Graph w = f(z) stored on a grid, with residuals and provenance.

    axes holds one node array per z variable; values and residuals are
    arrays over the Cartesian product of the axes.  evaluator computes f
    at new points: a callable taking (N, k) rows to (N,) values.
    """

    axes: tuple
    values: np.ndarray
    residuals: np.ndarray
    evaluator: object
    provenance: dict = field(default_factory=dict)

    @property
    def max_residual(self):
        # residuals are moduli, at least 0, so the initial 0 moves only an empty grid's maximum
        return float(np.max(np.asarray(self.residuals, dtype=float), initial=0.0))

    def evaluate(self, z):
        """f at one point (k,), as a complex, or at the rows of (N, k), as (N,)."""
        z = np.asarray(z, dtype=complex)
        rows = z if z.ndim == 2 else z.reshape(1, -1)
        if rows.shape[1] != len(self.axes):
            raise ValueError("point dimension does not match the graph axes")
        values = np.asarray(self.evaluator(rows), dtype=complex)
        return values if z.ndim == 2 else complex(values[0])

    def to_json(self):
        return {
            "axes": [[complex_to_pair(v) for v in ax] for ax in self.axes],
            "values": matrix_to_pairs(self.values),
            "residuals": np.asarray(self.residuals, dtype=float).tolist(),
            "provenance": dict(self.provenance),
        }


def _solve_rows(smap, rows, anchor, tol=1e-12,
                failure="fixed-point refinement failed at a query point"):
    """Newton at each row from ``anchor``, a value or a (g,) array shared by every
    row: the values, iteration counts, F and dF/dw; a failed row raises with its location."""
    start = np.full((len(rows),) + np.shape(anchor), anchor)
    values, iterations, ok, f, df = _newton(smap, rows, start, tol=tol)
    if not ok.all():
        raise DegenerateContinuationError(
            failure, location=tuple(complex(v) for v in rows[np.argmin(ok)])
        )
    return values, iterations, f, df


def continue_graph(smap, record, radius=0.9, grid=20, tol=1e-12, seed=1914):
    """Continue an interior fixed point into a graph over a product grid.

    The anchor is tested once, on the map: _classify must call (record.z,
    record.w) interior by its dF/dw there, else InconsistencyError.  A
    slice that passes is no automorphism (Schwarz lemma) and has at most
    one interior fixed point, so every grid node is solved at once by
    damped Newton from the anchor value, with no path between nodes.  The
    result is validated: residuals at every node, the slice derivative
    bound max |dF/dw|, and a Pick matrix test on a few w-slices for
    Schur-class positivity.  All diagnostics land in the returned
    GraphFunction's provenance.  The axes are disk_points(grid, radius) for
    every z variable; a radius outside (0, 1] raises ValueError, as F is
    Schur-class only on the closed polydisk.  The graph evaluates new
    points by the same Newton from the anchor value, at ``tol``; its grid
    is output only, read by no solve.
    """
    if not 0.0 < radius <= 1.0:
        raise ValueError("grid radius must lie in (0, 1]")
    deriv = abs(smap.partial_w(record.z, record.w))
    if _classify(record.w, deriv) != CLASS_INTERIOR:
        raise InconsistencyError(
            "graph continuation needs an interior anchor with |dF/dw| <= 1 - %g; "
            "got |w| = %.6e, |dF/dw| = %.6e" % (_DERIV_TOL, abs(record.w), deriv)
        )
    axes = tuple(disk_points(grid, radius) for _ in range(smap.n))
    shape = tuple(len(ax) for ax in axes)
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, smap.n)
    values, _, f, df = _solve_rows(
        smap, nodes, complex(record.w), tol,
        "Newton from the anchor value failed to converge at a point",
    )
    residuals = np.abs(f - values)
    grid_values = values.reshape(shape)
    max_deriv = float(np.max(np.abs(df)))
    max_modulus = float(np.max(np.abs(values)))

    anchor_z = np.asarray(record.z, dtype=complex).reshape(smap.n)
    rng = np.random.default_rng(seed)
    flat_indices = rng.choice(len(nodes), size=min(_PICK_SLICES, len(nodes)), replace=False)
    w_nodes = disk_points(_PICK_NODES, 0.7)
    targets = _slices(smap, np.vstack([anchor_z, nodes[flat_indices]]), w_nodes)
    pick_min_eig = np.min(np.linalg.eigh(pick_matrix(w_nodes, targets))[0][:, 0])

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
        "slice_pick_nodes": _PICK_NODES,
        "tol": float(tol),
        "seed": int(seed),
    }

    return GraphFunction(
        axes=axes,
        values=grid_values,
        residuals=residuals.reshape(shape),
        evaluator=lambda rows: _solve_rows(smap, rows, complex(record.w), tol)[0],
        provenance=provenance,
    )

