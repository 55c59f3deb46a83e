"""Normal forms of holomorphic retracts of the polydisk.

A retract here is an idempotent holomorphic self-map rho of D^n.  Up to a
permutation of coordinates and a Moebius change of variable in each, such
a map is equivalent to one of the shape

    v  ->  (v_1, ..., v_k,  v_{e_1}, ..., v_{e_m},  f_1(v'), ..., f_r(v'))

with k free coordinates, m plain copies of free coordinates, and r graph
components (functions of the free block v' = (v_1, ..., v_k), constants
included).  This module verifies idempotence, classifies components,
peels off graph components one at a time through fixed-point reduction
in the last variable, and assembles the conjugation plus residual
diagnostics for the resulting normal form.  The conjugation is one
automorphism of D^n, a coordinate permutation followed by one disk
automorphism per coordinate: each level of the recursion composes its
permutation with the conjugation of the level below, and the bottom level
adds the inverse Moebius map of each twisted copy.

Evaluation works on whole arrays: the maps take (N, n) rows, and the
conjugation, image_point and the graph evaluators act on the last
axis, so (k,) gives (n,) and (N, k) gives (N, n).  A reduced map is the
exact, permuted map with its trailing coordinates peeled; every
evaluation solves all the peeled coordinates by one joint Newton call.
Its last column, the map of the next graph, is exact as well: dF/dw
comes from the joint Jacobian by implicit differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateContinuationError, DomainError, InconsistencyError
from .fixedgraph import (
    GraphFunction,
    SchurMap,
    _solve_rows,
    continue_graph,
    find_fixed_w,
)
from .moebius import MoebiusAutomorphism, detect_automorphism
from .multipoly import MultiPoly, RationalMap
from .sampling import disk_points, random_polydisk

ROLE_IDENTITY = "identity"
ROLE_COPY = "copy"
ROLE_CONSTANT = "constant"
ROLE_GENERIC = "generic"

_SCAN_SAMPLES = 60  # polydisk points at which classify_components compares columns


class RetractMap:
    """Self-map of D^n given componentwise.

    Each component is exact, a MultiPoly or a RationalMap in n variables,
    so the map serializes; anything else raises TypeError.
    """

    def __init__(self, n, components, name=None):
        self.n = int(n)
        if self.n < 1:
            raise ValueError("the map needs at least one variable")
        components = tuple(components)
        if len(components) != self.n:
            raise ValueError("need exactly one component per coordinate")
        for comp in components:
            if not isinstance(comp, (MultiPoly, RationalMap)):
                raise TypeError("a component must be a MultiPoly or a RationalMap")
            if comp.nvars != self.n:
                raise ValueError("component variable count does not match the map")
        self.components = components
        # with exact partials, built once for every reduced map over this one
        self._rationals = tuple(RationalMap(c) if isinstance(c, MultiPoly) else c for c in components)
        self.name = name

    @classmethod
    def identity(cls, n):
        return cls(n, tuple(MultiPoly.variable(n, i) for i in range(n)))

    def _columns(self, pts, cols):
        """Components ``cols`` at the rows of an (N, n) array, as (N, len(cols))."""
        return np.stack([self.components[j].evaluate(pts) for j in cols], axis=1)

    def __call__(self, z):
        return self.evaluate_batch(np.reshape(z, (1, self.n)))[0]

    def evaluate_batch(self, points):
        pts = np.asarray(points, dtype=complex).reshape(-1, self.n)
        return self._columns(pts, range(self.n))

    def to_json(self):
        comps = [
            {"type": "polynomial" if isinstance(comp, MultiPoly) else "rational",
             "data": comp.to_json()}
            for comp in self.components
        ]
        payload = {"n": self.n, "components": comps}
        if self.name:
            payload["name"] = str(self.name)
        return payload

    @classmethod
    def from_json(cls, payload):
        comps = []
        for entry in payload["components"]:
            if "type" in entry:
                kind = entry["type"]
                if kind == "polynomial":
                    comps.append(MultiPoly.from_json(entry["data"]))
                elif kind == "rational":
                    comps.append(RationalMap.from_json(entry["data"]))
                else:
                    raise ValueError("unknown component type %r" % kind)
            elif "numerator" in entry:
                comps.append(RationalMap.from_json(entry))
            elif "terms" in entry:
                comps.append(MultiPoly.from_json(entry))
            else:
                raise ValueError("unrecognized component encoding")
        return cls(int(payload["n"]), tuple(comps), name=payload.get("name"))

    def __repr__(self):
        return "RetractMap(n=%d)" % self.n


class _ReducedMap(RetractMap):
    """z -> full_head(z, w(z)) for an exact map ``full`` with its last g
    coordinates peeled; it cannot be serialized.

    At head rows z of D^n the peeled equations w = full_tail(z, w) have one
    joint solution w(z) in D^g, as each peeled slice has one interior fixed
    point (Schwarz-Pick).  ``seeds`` pairs each peeled coordinate, left to
    right, with its graph and the columns of ``full`` that the graph reads.
    """

    def __init__(self, full, seeds):
        self.full, self.seeds, self.n = full, seeds, full.n - len(seeds)

    def _rows(self, Z, W, dw=False):
        """F = full[m:](Z, W) at (N, m) rows Z and, if dw, dF/dW, shaped like W:
        (N, g) and (N, g, g) for the last g = full.n - m variables, or (N,)."""
        (N, m), g = Z.shape, self.full.n - Z.shape[1]
        pts = np.concatenate([Z, W.reshape(N, g)], axis=1)
        f, df = np.empty((N, g), dtype=complex), np.empty((N, g, g), dtype=complex)
        for i, comp in enumerate(self.full._rationals[m:]):
            f[:, i], df[:, i] = comp.value_and_partial(pts, slice(m, None))
        f, df = f.reshape(W.shape), df.reshape(W.shape + W.shape[1:])
        return (f, df) if dw else f

    def _peel(self, head):
        """Peeled coordinates at (N, n) head rows, as (N, g): one joint Newton
        solve, seeded left to right from each graph's nearest grid value."""
        pts = np.empty((len(head), self.full.n), dtype=complex)
        pts[:, : self.n] = head
        for t, (graph, cols) in enumerate(self.seeds):
            pts[:, self.n + t] = graph._nearest(pts[:, cols])
        return _solve_rows(self, head, pts[:, self.n :])

    def _columns(self, pts, cols):
        return self.full._columns(np.concatenate([pts, self._peel(pts)], axis=1), cols)

    def to_json(self):
        raise ValueError("a reduced map cannot be serialized")


class _LastColumn(_ReducedMap):
    """A reduced map seen as its last column F(z, w), an exact map of
    ``nvars`` = n variables.  With the peeled coordinates p solved, the
    Jacobian [[a, b], [c, D]] of full's last g + 1 components in (w, p)
    gives dF/dw = a + b (I - D)^-1 c (implicit differentiation)."""

    nvars = property(lambda self: self.n)

    def evaluate(self, pts):
        return self._columns(pts, [self.n - 1])[:, 0]

    def value_and_partial(self, pts, index):
        """F and dF/dw at (N, n) rows; SchurMap asks only for w's partial."""
        head = self.n - 1
        joint = np.concatenate([pts[:, head:], self._peel(pts)], axis=1)
        f, jac = self._rows(pts[:, :head], joint, dw=True)
        dp = np.linalg.solve(np.eye(f.shape[1] - 1) - jac[:, 1:, 1:], jac[:, 1:, :1])
        return f[:, 0], jac[:, 0, 0] + (jac[:, :1, 1:] @ dp)[:, 0, 0]


def verify_idempotent(rho, samples=400, seed=7, radius=0.9, tol=1e-9):
    """Sample rho(rho(z)) - rho(z) over the polydisk and report the defect."""
    if samples < 1:
        raise ValueError("samples must be a positive integer")
    rng = np.random.default_rng(seed)
    pts = random_polydisk(rng, samples, rho.n, radius)
    first = rho.evaluate_batch(pts)
    max_modulus = float(np.max(np.abs(first))) if first.size else 0.0
    report = {
        "samples": int(samples),
        "radius": float(radius),
        "tol": float(tol),
        "max_modulus": max_modulus,
    }
    if max_modulus > 1.0 + tol:
        report["max_defect"] = float("inf")
        report["passed"] = False
        report["reason"] = "the map leaves the closed polydisk"
        return report
    second = rho.evaluate_batch(first)
    defect = float(np.max(np.abs(second - first))) if first.size else 0.0
    report["max_defect"] = defect
    report["passed"] = bool(defect <= tol)
    if not report["passed"]:
        report["reason"] = "rho(rho) differs from rho"
    return report


@dataclass
class ComponentRole:
    """Classification of one output component of a candidate retract."""

    kind: str
    source: int | None = None
    moebius: MoebiusAutomorphism | None = None
    value: complex | None = None


def _active_variables(rho, bases, tol=1e-9):
    """Boolean (n, n) array: entry (i, j) says variable i changes component j.

    Each variable in turn is set to two probe values at every base point,
    and all the probes go through the map in one batch.
    """
    probes = np.array([0.31 + 0.17j, -0.42 - 0.05j])
    n = rho.n
    trials = np.broadcast_to(bases[None, :, None, :], (n, len(bases), 2, n)).copy()
    trials[np.arange(n), :, :, np.arange(n)] = probes
    values = rho.evaluate_batch(np.concatenate([bases, trials.reshape(-1, n)]))
    ref, moved = values[: len(bases)], values[len(bases):].reshape(trials.shape)
    return (np.abs(moved - ref[None, :, None, :]) > tol).any(axis=(1, 2))


def classify_components(rho, seed=97, radius=0.85, tol=1e-9):
    """Role of each component: identity, copy of a variable, constant, generic.

    A copy is a component of the form phi(z_i) for a disk automorphism phi
    and a single input variable i.  Idempotence forces structure on these
    roles: a component that is an automorphism of its own variable must be
    the identity, and the source variable of any copy must itself be an
    identity coordinate.  Violations raise InconsistencyError.  A component
    that one variable alone moves is tested on its slice through the first
    base point, one batch for both the Moebius form and the single source.
    """
    rng = np.random.default_rng(seed)
    pts = random_polydisk(rng, _SCAN_SAMPLES, rho.n, radius)
    vals = rho.evaluate_batch(pts)
    bases = random_polydisk(rng, 3, rho.n, 0.8)

    roles = []
    active = None
    for j in range(rho.n):
        col = vals[:, j]
        mean = complex(col.mean())
        if np.max(np.abs(col - mean)) <= max(tol, 1e-9):
            if abs(mean) >= 1.0:
                raise DomainError(
                    "constant component %d lies outside the open disk" % j
                )
            roles.append(ComponentRole(ROLE_CONSTANT, value=mean))
            continue
        if np.max(np.abs(col - pts[:, j])) <= tol:
            roles.append(ComponentRole(ROLE_IDENTITY, source=j))
            continue
        if active is None:
            active = _active_variables(rho, bases, tol=tol)
        role = ComponentRole(ROLE_GENERIC)
        sources = np.flatnonzero(active[:, j])
        if len(sources) == 1:
            i = int(sources[0])

            def slice_fn(w, _j=j, _i=i):
                points = np.repeat(bases[:1], len(w), axis=0)
                points[:, _i] = w
                return rho._columns(points, [_j])[:, 0]

            phi = detect_automorphism(slice_fn)
            if phi is not None:
                if i == j:
                    if not phi.is_identity(1e-8):
                        raise InconsistencyError(
                            "component %d is a non-identity automorphism of "
                            "its own variable; no idempotent map does that"
                            % j
                        )
                    role = ComponentRole(ROLE_IDENTITY, source=j)
                else:
                    role = ComponentRole(ROLE_COPY, source=i, moebius=phi)
        roles.append(role)

    for j, role in enumerate(roles):
        if role.kind == ROLE_COPY and roles[role.source].kind != ROLE_IDENTITY:
            raise InconsistencyError(
                "component %d copies variable %d through a Moebius map, but "
                "component %d is not the identity; idempotence is violated"
                % (j, role.source, role.source)
            )
    return roles


@dataclass(frozen=True)
class Conjugation:
    """Automorphism of D^n: image position i is maps[i] applied to coordinate
    order[i], a None map standing for the identity.  Every automorphism of
    the polydisk is a coordinate permutation followed by one disk
    automorphism per coordinate (Rudin).

    apply and apply_inverse act on the last axis of (..., n) arrays.
    """

    order: tuple
    maps: tuple

    @classmethod
    def permuted(cls, order, below):
        """Permute by ``order``, then act by ``below`` on the leading positions."""
        m = len(below.order)
        return cls(tuple(order[i] for i in below.order) + tuple(order[m:]),
                   below.maps + (None,) * (len(order) - m))

    def apply(self, z):
        out = np.asarray(z, dtype=complex)[..., list(self.order)]
        for i, phi in enumerate(self.maps):
            if phi is not None:
                out[..., i] = phi(out[..., i])
        return out

    def apply_inverse(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.empty_like(z)
        out[..., list(self.order)] = z
        for i, phi in enumerate(self.maps):
            if phi is not None:
                out[..., self.order[i]] = phi.inverse()(z[..., i])
        return out

    def to_json(self):
        return {"order": [int(i) for i in self.order],
                "moebius": [None if phi is None else phi.to_json() for phi in self.maps]}


def _permute_map(rho, order):
    """P . rho . P^{-1}; a reduced map permutes its exact map and keeps its
    peeled coordinates last.  The identity order returns rho itself."""
    n = rho.n
    if list(order) == list(range(n)):
        return rho
    if isinstance(rho, _ReducedMap):
        order = list(order) + list(range(n, rho.full.n))
        seeds = [(graph, np.argsort(order)[cols]) for graph, cols in rho.seeds]
        return _ReducedMap(_permute_map(rho.full, order), seeds)
    inv = np.argsort(order)
    return RetractMap(n, tuple(
        comp.embed(n, inv) if isinstance(comp, MultiPoly)
        else RationalMap(comp.numerator.embed(n, inv), comp.denominator.embed(n, inv))
        for comp in (rho.components[j] for j in order)
    ))


def reduce_dimension(rho, grid=12, radius=0.85, seed=5005):
    """Split the last component off as a fixed-point graph.

    Returns (reduced, graph): the graph solves w = rho_last(z', w), and the
    reduced map z' -> rho_head(z', f(z')), an idempotent self-map of D^{n-1},
    is rho's exact map with one more coordinate peeled, each evaluation one
    joint Newton solve, and a reduced rho's last column is exact too.  The
    image of the origin under rho seeds the anchor, so no search is needed;
    continue_graph's anchor test refuses a seed that is not interior.
    """
    if rho.n < 2:
        raise ValueError("reduction needs at least two variables")
    head = rho.n - 1
    full, seeds = (rho.full, rho.seeds) if isinstance(rho, _ReducedMap) else (rho, [])
    smap = SchurMap(head, rational=_LastColumn(full, seeds) if seeds else rho._rationals[-1])
    q = rho(np.zeros(rho.n, dtype=complex))
    q_head = q[:-1]
    records = find_fixed_w(smap, q_head, seeds=[complex(q[-1])])
    if not records:
        raise DegenerateContinuationError(
            "could not refine the seed fixed point at the image of the origin",
            location=tuple(complex(v) for v in q_head),
        )
    graph = continue_graph(smap, records[0], radius=radius, grid=grid, seed=seed)
    return _ReducedMap(full, [(graph, np.arange(head))] + seeds), graph


@dataclass
class _CoreForm:
    """Normalization result; ``base``, the bottom map, peels the graphs (deepest first)."""

    k: int
    e_sources: list
    consts: list
    graphs: list
    chain: Conjugation
    base: RetractMap
    base_chain: Conjugation


def _image_rows(x, core):
    """Free coordinates (k,) or (N, k) -> points (n,) or (N, n), with every
    graph column from one joint solve of the bottom map's peeled coordinates."""
    x = np.asarray(x, dtype=complex)
    k = core.k
    if x.ndim not in (1, 2) or x.shape[-1] != k:
        raise ValueError("free coordinates need a trailing axis of length %d" % k)
    rows = x if x.ndim == 2 else x.reshape(1, k)
    m = len(core.e_sources)
    head = k + m + len(core.consts)
    out = np.empty((len(rows), head + len(core.graphs)), dtype=complex)
    out[:, :k] = rows
    out[:, k : k + m] = rows[:, list(core.e_sources)]
    out[:, k + m : head] = core.consts
    if core.graphs:
        out[:, head:] = core.base._peel(core.base_chain.apply_inverse(out[:, :head]))
    return out if x.ndim == 2 else out[0]


def _normalize(rho, opts, depth=0):
    d = rho.n
    roles = classify_components(
        rho,
        seed=opts["seed"] + 17 * depth,
        radius=opts["scan_radius"],
        tol=opts["role_tol"],
    )
    generic = [j for j, role in enumerate(roles) if role.kind == ROLE_GENERIC]

    if d == 1 and generic:
        raise InconsistencyError(
            "a one-variable idempotent self-map of the disk must be the "
            "identity or a point; this one is neither"
        )

    if generic:
        g = generic[0]
        order = tuple(list(range(g)) + list(range(g + 1, d)) + [g])
        reduced, graph = reduce_dimension(_permute_map(rho, order), grid=opts["grid"],
                                          radius=opts["radius"], seed=opts["seed"] + 29 * depth)
        core = _normalize(reduced, opts, depth + 1)
        chain = Conjugation.permuted(order, core.chain)
        return replace(core, graphs=core.graphs + [graph], chain=chain)

    ids = [j for j, role in enumerate(roles) if role.kind == ROLE_IDENTITY]
    copies = [j for j, role in enumerate(roles) if role.kind == ROLE_COPY]
    consts = [j for j, role in enumerate(roles) if role.kind == ROLE_CONSTANT]
    maps = [None] * d
    for pos, j in enumerate(copies, start=len(ids)):
        if not roles[j].moebius.is_identity(1e-9):
            maps[pos] = roles[j].moebius.inverse()
    rank = {src: pos for pos, src in enumerate(ids)}
    e_sources = [rank[roles[j].source] for j in copies]
    chain = Conjugation(tuple(ids + copies + consts), tuple(maps))
    return _CoreForm(len(ids), e_sources, [roles[j].value for j in consts], [], chain, rho, chain)


@dataclass
class NormalForm:
    """Normalized retract: free block, copy block, graph block.

    normalized_map is Phi . rho . Phi^{-1} for the stored conjugation Phi,
    on (..., n) arrays; on image points assembled by image_point it agrees
    with the identity up to the recorded residuals.  image_point and every
    f_components evaluator fill all graph columns by one joint Newton solve.
    """

    n: int
    k: int
    e_sources: tuple
    f_components: list
    conjugation: Conjugation
    normalized_map: object
    diagnostics: dict = field(default_factory=dict)
    _core: _CoreForm = field(default=None, init=False, repr=False)  # set by normal_form

    @property
    def copy_count(self):
        return len(self.e_sources)

    @property
    def graph_count(self):
        return len(self.f_components)

    def image_point(self, x):
        """Normalized image point of free coordinates: (k,) -> (n,), (N, k) -> (N, n)."""
        return _image_rows(x, self._core)

    def to_json(self):
        return {
            "n": int(self.n),
            "k": int(self.k),
            "e_sources": [int(s) for s in self.e_sources],
            "f_components": [comp.to_json() for comp in self.f_components],
            "conjugation": self.conjugation.to_json(),
            "diagnostics": dict(self.diagnostics),
        }


def normal_form(rho, tol=1e-9, grid=12, radius=0.85, seed=23, samples=400):
    """Normal form of an idempotent self-map of the polydisk.

    Verifies idempotence first (InconsistencyError on failure), classifies
    components, conjugates twisted copies to plain ones, peels generic
    components off as fixed-point graphs, and materializes every graph
    component over a grid on the free block together with the residual
    ||rho_norm(v) - v||_inf at each node.  A grid radius outside (0, 1],
    a grid of fewer than one node per axis or a tol that is not finite and
    positive raises ValueError.
    """
    if not 0.0 < radius <= 1.0:
        raise ValueError("grid radius must lie in (0, 1]")
    if int(grid) < 1:
        raise ValueError("grid must be a positive integer")
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")
    report = verify_idempotent(
        rho, samples=samples, seed=seed, radius=min(radius + 0.05, 0.95), tol=tol
    )
    if not report["passed"]:
        raise InconsistencyError(
            "map is not idempotent to tolerance %.1e (defect %.3e, max modulus %.6f)"
            % (report["tol"], report["max_defect"], report["max_modulus"])
        )

    opts = {
        "grid": int(grid),
        "radius": float(radius),
        "seed": int(seed),
        "scan_radius": min(float(radius), 0.85),
        "role_tol": max(float(tol), 1e-9),
    }
    core = _normalize(rho, opts)
    chain = core.chain

    def normalized_map(v, _rho=rho, _chain=chain):
        v = np.asarray(v, dtype=complex)
        return _chain.apply(_rho.evaluate_batch(_chain.apply_inverse(v)).reshape(v.shape))

    k = core.k
    m = len(core.e_sources)
    axes = tuple(disk_points(int(grid), float(radius)) for _ in range(k))
    shape = tuple(len(ax) for ax in axes)
    size = int(np.prod(shape))
    nodes = np.array(np.meshgrid(*axes, indexing="ij"), dtype=complex).reshape(k, size).T
    images = _image_rows(nodes, core)
    defect_grid = np.max(np.abs(normalized_map(images) - images), axis=1).reshape(shape)

    f_components = []
    for c, graph in enumerate([None] * len(core.consts) + core.graphs, start=k + m):
        prov = {"method": "constant", "position": c} if graph is None else {
            "method": "fixed_point_composition", "position": c, "source": dict(graph.provenance)}
        f_components.append(GraphFunction(
            axes=axes, values=images[:, c].reshape(shape), residuals=defect_grid.copy(),
            provenance=prov, evaluator=lambda rows, c=c: _image_rows(rows, core)[:, c]))

    diagnostics = {
        "idempotence": report,
        "normal_form_residual": float(np.max(defect_grid)) if defect_grid.size else 0.0,
        "free_count": int(k),
        "copy_count": int(m),
        "graph_count": len(f_components),
        "grid": int(grid),
        "radius": float(radius),
        "seed": int(seed),
    }
    form = NormalForm(
        n=rho.n,
        k=k,
        e_sources=tuple(core.e_sources),
        f_components=f_components,
        conjugation=chain,
        normalized_map=normalized_map,
        diagnostics=diagnostics,
    )
    form._core = core
    return form
