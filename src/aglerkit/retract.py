"""Normal forms of holomorphic retracts of the polydisk.

A retract here is an idempotent holomorphic self-map rho of D^n.  Up to a
permutation of coordinates and a Moebius change of variable in each, such
a map is equivalent to one of the shape

    v  ->  (v_1, ..., v_k,  v_{e_1}, ..., v_{e_m},  f_1(v'), ..., f_r(v'))

with k free coordinates, m plain copies of free coordinates, and r graph
components (functions of the free block v' = (v_1, ..., v_k), constants
included).  This module verifies idempotence, classifies components,
peels off graph components one at a time, each where it sits, and
assembles the conjugation plus residual diagnostics for the resulting
normal form.  An exact map's roles, and a polynomial map's idempotence,
are read off its terms: which variables each component's terms hold is one
(n, n) table of the map; a reduced map's roles are sampled.  The
conjugation is one automorphism of D^n, a coordinate permutation
followed by one disk automorphism per coordinate: the last level's free,
copy and constant coordinates by their indices in the top map, with the
inverse Moebius map of each twisted copy, then the graphs, deepest first.

A level is the top map ``full`` and two sets of its indices: the
``peeled`` variables, with their anchors, and the ``dropped`` ones; its
head is full's other variables, in order, so no level builds a map.  A
RetractMap is a level with full = itself and nothing peeled or dropped.
full(0), computed once per map, is a fixed point of full, so the head of
full(0) is one of the level's map.  A level is explicit when, by full's
table, no term of a component not yet dropped holds the peeled variable:
the graph is then its component itself (every retract is a graph over its
free coordinates, Heath-Suffridge), and the level solves nothing and
drops the variable.  Any other level is implicit: one joint Newton solve
of w with every peeled coordinate, at the head of full(0), refines its
anchor, and dF/dw = a + b (I - D)^-1 c comes from that solve's Jacobian
[[a, b], [c, D]] (implicit differentiation).  A level keeps only its
graph's anchor record.

Evaluation works on whole arrays: the maps take (N, n) rows, and the
conjugation, image_point and the graph evaluators act on the last axis,
so (k,) gives (n,) and (N, k) gives (N, n).  An image point's free and copy
columns are copies of v' and its constants are set.  When every free
coordinate is an identity component of rho itself, rho(v', 0) lies in
Fix(rho) with free block v', and rho's terms in the other variables vanish
there, so a normal form holds its graph columns as one exact kernel in the
k free variables: one table of it, and one division for the rational ones.
Any other map, such as the diagonal retract ((z1+z2)/2, (z1+z2)/2), where
rho(v, 0) = (v/2, v/2), fills its graph columns by one joint Newton solve
of every peeled coordinate of the top map, started from the anchors.  A
NormalForm is one object holding its layout, input map, conjugation and
that graph rule, which image_point and every graph evaluator read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import multipoly
from .errors import DomainError, InconsistencyError
from .fixedgraph import CLASS_INTERIOR, FixedPointRecord, GraphFunction, _DERIV_TOL, _classify, _solve_rows
from .moebius import MoebiusAutomorphism, detect_automorphism
from .multipoly import MultiPoly, RationalMap, _QuotientRule, _Stack
from .sampling import disk_points, random_polydisk

ROLE_IDENTITY = "identity"
ROLE_COPY = "copy"
ROLE_CONSTANT = "constant"
ROLE_GENERIC = "generic"

_SCAN_SAMPLES = 60  # polydisk points at which classify_components compares columns


class RetractMap:
    """Self-map of D^n given componentwise.

    Each component is exact, a MultiPoly or a RationalMap in n variables,
    so the map serializes; anything else raises TypeError.  As a level of
    a normal form it is its own exact map ``full``, with nothing peeled, so
    no ``anchors``, and nothing dropped.
    """

    anchors = peeled = dropped = ()
    full = property(lambda self: self)

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
        # every numerator and denominator (1 for a polynomial, which has no
        # pole), so one table gives every component
        one = MultiPoly.constant(self.n, 1.0)
        self._pairs = [(c.numerator, c.denominator) if isinstance(c, RationalMap) else (c, one)
                       for c in components]
        self._stack = _Stack([p for pair in self._pairs for p in pair])
        # _holds[i, j]: some numerator or denominator term of component j holds variable i
        self._holds = (self._stack._expo.T > 0) @ (self._stack._coef != 0).reshape(-1, self.n, 2).any(axis=2)
        self._pole_tols = np.array([c._pole_tol if isinstance(c, RationalMap) else 0.0 for c in components])
        self._rational = np.array([isinstance(c, RationalMap) for c in components])
        self.name = name

    @cached_property
    def _at_zero(self):
        """rho(0), a fixed point of the idempotent map: computed once, on first use."""
        return self(np.zeros(self.n, dtype=complex))

    @classmethod
    def identity(cls, n):
        return cls(n, tuple(MultiPoly.variable(n, i) for i in range(n)))

    def _columns(self, pts, cols):
        """Components ``cols`` at the rows of an (N, n) array, as (N, len(cols)), all
        from one table; only rational ones divide, and a pole of one raises DomainError."""
        cols = list(cols)
        pairs = self._stack(pts).reshape(len(pts), self.n, 2)[:, cols]
        out, rational = pairs[..., 0].copy(), self._rational[cols]
        if rational.any():
            out[:, rational] = multipoly._quotients(pairs[:, rational, 0], pairs[:, rational, 1],
                                                    self._pole_tols[cols][rational])
        return out

    def __call__(self, z):
        return self.evaluate_batch(np.reshape(z, (1, self.n)))[0]

    def evaluate_batch(self, points):
        """Every component at (..., n) points, as (N, n) rows."""
        pts = np.asarray(points, dtype=complex)
        if pts.ndim == 0 or pts.shape[-1] != self.n:
            raise ValueError("points must have a trailing axis of length %d" % self.n)
        return self._columns(pts.reshape(-1, self.n), range(self.n))

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
    """z -> full(z, w(z)) at the head variables for an exact map ``full`` with
    its variables ``peeled`` solved and its variables ``dropped`` at 0; it
    cannot be serialized.

    The head variables are full's other variables, in order; a point holds
    them in that order.  No term of a head or peeled component holds a
    dropped variable (see _reduce).  At head rows z of D^n the peeled
    equations w = full_peeled(z, w) have one joint solution w(z) in D^g, as
    each peeled slice has one interior fixed point (Schwarz-Pick).
    ``anchors`` holds the anchor value of each peeled variable's graph, in
    ``peeled``'s order.
    """

    def __init__(self, full, peeled, anchors, dropped=()):
        self._full, self.peeled, self.anchors, self.dropped = full, tuple(peeled), anchors, tuple(dropped)
        self._head = np.array([i for i in range(full.n) if i not in self.peeled + self.dropped], dtype=int)
        self.n = len(self._head)

    full = property(lambda self: self._full)

    @cached_property
    def _tail(self):
        """The quotient rule of the peeled components in the peeled variables, on
        rows [head, peeled]."""
        full = self.full
        return _QuotientRule([full._pairs[p] for p in self.peeled], full._pole_tols[list(self.peeled)],
                             self.peeled, [*self._head, *self.peeled])

    def _rows(self, Z, W, dw=False):
        """F = full_peeled(Z, W) at (N, n) rows Z and, if dw, dF/dW, shaped like W:
        (N, g) and (N, g, g) for the g peeled variables, or (N,); one table."""
        f, df = self._tail(np.concatenate([Z, W.reshape(len(Z), len(self.peeled))], axis=1))
        f, df = f.reshape(W.shape), df.reshape(W.shape + W.shape[1:])
        return (f, df) if dw else f

    def _peel(self, head):
        """Peeled coordinates at (N, n) head rows, as (N, g): one joint Newton
        solve, started at every row from the anchors."""
        return _solve_rows(self, head, self.anchors)[0]

    def _columns(self, pts, cols):
        rows = np.zeros((len(pts), self.full.n), dtype=complex)
        rows[:, self._head], rows[:, list(self.peeled)] = pts, self._peel(pts)
        return self.full._columns(rows, self._head[list(cols)])

    def to_json(self):
        raise ValueError("a reduced map cannot be serialized")


def verify_idempotent(rho, samples=400, seed=7, radius=0.9, tol=1e-9):
    """Check that rho maps into the closed polydisk and that rho(rho) = rho.

    A polynomial RetractMap's defect (``method`` "exact") is the largest l1
    norm of a component of rho(rho) - rho plus its rounding bound, so it bounds
    |rho(rho) - rho| on the closed polydisk, and its max_modulus the bound
    max_j sum |c_alpha| radius^|alpha| if that is at most 1 + tol.  Otherwise,
    and for a map that is rational or too large to compose (multipoly._compose),
    ``samples`` seeded points inside ``radius`` decide them ("sampled")."""
    if samples < 1:
        raise ValueError("samples must be a positive integer")
    polynomial = rho is rho.full and all(isinstance(c, MultiPoly) for c in rho.components)
    composed = multipoly._compose(rho.components, rho.components, rho.components) if polynomial else None
    exact = composed is not None  # else too large to compose, and sampled like a rational map
    stack = rho.full._stack  # a numerator's sum |c_alpha| radius^|alpha| bounds it at radius
    bound = np.max(radius ** stack._expo.sum(axis=1) @ np.abs(stack._coef[:, ::2])) if exact else np.inf
    report = {"samples": int(samples), "radius": float(radius), "tol": float(tol),
              "method": "exact" if exact else "sampled", "max_modulus": float(bound)}
    if report["max_modulus"] > 1.0 + tol:
        first = rho.evaluate_batch(random_polydisk(np.random.default_rng(seed), samples, rho.n, radius))
        report["max_modulus"] = float(np.max(np.abs(first)))
    if report["max_modulus"] > 1.0 + tol:
        return dict(report, max_defect=float("inf"), passed=False,
                    reason="the map leaves the closed polydisk")
    if exact:  # the l1 norm of rho(rho)_j - rho_j with its rounding bound, widened for the sum's own
        defect = max(sum(abs(value) + error for value, error in terms.values())
                     * (1 + multipoly._ROUND * (len(terms) + 1)) for terms in composed)
    else:
        defect = float(np.max(np.abs(rho.evaluate_batch(first) - first)))
    report.update(max_defect=defect, passed=bool(defect <= tol))
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

    A copy is phi(z_i) for a disk automorphism phi.  Idempotence forces an
    automorphism of a component's own variable to be the identity, and a copy's
    source to be an identity coordinate; violations raise InconsistencyError, a
    constant outside the open disk DomainError.  An exact map's roles are read
    off its terms, a reduced map's off samples."""
    roles = _sampled_roles(rho, seed, radius, tol) if rho is not rho.full else [
        _term_role(rho, j, tol) for j in range(rho.n)]
    for j, role in enumerate(roles):
        if role.kind == ROLE_COPY and role.source == j:
            if not role.moebius.is_identity():
                raise InconsistencyError("component %d is a non-identity automorphism of its "
                                         "own variable; no idempotent map does that" % j)
            roles[j] = ComponentRole(ROLE_IDENTITY, source=j)
    for j, role in enumerate(roles):
        if role.kind == ROLE_CONSTANT and abs(role.value) >= 1.0:
            raise DomainError("constant component %d lies outside the open disk" % j)
        if role.kind == ROLE_COPY and roles[role.source].kind != ROLE_IDENTITY:
            raise InconsistencyError("component %d copies variable %d through a Moebius map, but "
                                     "component %d is not the identity; idempotence is violated"
                                     % (j, role.source, role.source))
    return roles


def _term_role(rho, j, tol):
    """Component j of an exact map from its num/den terms: constant when no term holds
    a variable, identity when ||num - z_j den||_1 <= tol times den's largest coefficient,
    phi(z_i) when num and den are affine in z_i alone (phi from their four coefficients)."""
    (num, den), zero = rho._pairs[j], (0,) * rho.n
    active = np.flatnonzero(rho._holds[:, j])
    shifted = {e[:j] + (e[j] + 1,) + e[j + 1:]: c for e, c in den.terms.items()}
    if not len(active):
        return ComponentRole(ROLE_CONSTANT, value=num.terms.get(zero, 0j) / den.terms[zero])
    miss = sum(abs(num.terms.get(e, 0j) - shifted.get(e, 0j)) for e in set(num.terms) | set(shifted))
    if miss <= tol * den.coeff_norm():
        return ComponentRole(ROLE_IDENTITY, source=j)
    if len(active) == 1 and all(max(e) == 1 for p in (num, den) for e in p.terms if any(e)):
        unit = tuple(int(v == active[0]) for v in range(rho.n))
        phi = MoebiusAutomorphism.from_coefficients(*(p.terms.get(e, 0j) for p in (num, den)
                                                      for e in (unit, zero)))
        if phi is not None:
            return ComponentRole(ROLE_COPY, source=int(active[0]), moebius=phi)
    return ComponentRole(ROLE_GENERIC)


def _sampled_roles(rho, seed, radius, tol):
    """Roles from rho at _SCAN_SAMPLES seeded points inside ``radius``; a
    component that one variable alone moves is tested for a Moebius slice."""
    rng = np.random.default_rng(seed)
    pts = random_polydisk(rng, _SCAN_SAMPLES, rho.n, radius)
    vals = rho.evaluate_batch(pts)
    bases = random_polydisk(rng, 3, rho.n, 0.8)
    roles, active = [], None
    for j in range(rho.n):
        col = vals[:, j]
        mean = complex(col.mean())
        if np.max(np.abs(col - mean)) <= max(tol, 1e-9):
            roles.append(ComponentRole(ROLE_CONSTANT, value=mean))
        elif np.max(np.abs(col - pts[:, j])) <= tol:
            roles.append(ComponentRole(ROLE_IDENTITY, source=j))
        else:
            active = _active_variables(rho, bases, tol=tol) if active is None else active
            sources, phi = np.flatnonzero(active[:, j]), None
            if len(sources) == 1:  # the slice in that variable through the first base point
                phi = detect_automorphism(lambda w, i=sources[0], j=j: rho._columns(
                    np.where(np.arange(rho.n) == i, w[:, None], bases[:1]), [j])[:, 0])
            roles.append(ComponentRole(ROLE_GENERIC) if phi is None else
                         ComponentRole(ROLE_COPY, source=int(sources[0]), moebius=phi))
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


def _restrict(poly, keep):
    """A numerator or denominator at 0 in every variable outside ``keep``, in
    the variables ``keep``: the terms that hold another variable are dropped."""
    return MultiPoly(len(keep), {tuple(e[i] for i in keep): c for e, c in poly.terms.items()
                                 if sum(e) == sum(e[i] for i in keep)})


def _reduce(rho, g):
    """Split component g off, where it sits, as a fixed-point graph w = f(z').

    Returns the reduced map z' -> rho(z', f(z')) without component g, an
    idempotent self-map of D^{n-1}: the top map ``full`` of rho with one more
    index peeled or dropped.  The graph's anchor is a FixedPointRecord at the
    head z' of q = full(0), a fixed point of full whose head is one of rho,
    computed once per map.  When no numerator or denominator term of a
    component not yet dropped holds g's variable v (explicit, by full's
    ``_holds`` table), the anchor is q's own entry (full(q) = q
    for the idempotent full) with dF/dw = 0, and v is dropped.  Otherwise v
    joins the peeled variables, first, and one joint Newton solve at z' of
    every peeled coordinate, from q's entry and the anchors, refines the
    anchor.  The anchor must be interior by _classify, else InconsistencyError."""
    full, anchors, peeled, dropped = rho.full, rho.anchors, rho.peeled, rho.dropped
    head = [i for i in range(full.n) if i not in peeled + dropped]
    v = head[g]
    q = full._at_zero
    z = tuple(complex(q[i]) for i in head if i != v)
    if not full._holds[v, [j for j in range(full.n) if j not in dropped]].any():
        w = complex(q[v])
        anchor = FixedPointRecord(z, w, 0j, _classify(w, 0.0), 0.0, 0)
        reduced = _ReducedMap(full, peeled, anchors, dropped + (v,))
    else:
        reduced = _ReducedMap(full, (v,) + peeled, (complex(q[v]),) + anchors, dropped)
        values, iterations, f, jac = _solve_rows(
            reduced, np.array([z]), reduced.anchors,
            failure="could not refine the seed fixed point at the image of the origin")
        w, m = complex(values[0, 0]), len(anchors)
        jac = jac.reshape(1, m + 1, m + 1)
        derivative = jac[0, 0, 0]
        if m:  # dF/dw of the new column, with the other peeled coordinates solved
            dp = np.linalg.solve(np.eye(m) - jac[:, 1:, 1:], jac[:, 1:, :1])
            derivative = derivative + (jac[:, :1, 1:] @ dp)[0, 0, 0]
        anchor = FixedPointRecord(z, w, complex(derivative), _classify(w, abs(derivative)),
                                  float(abs(f.reshape(-1)[0] - w)), int(iterations[0]))
        reduced.anchors = (w,) + anchors  # the refined anchor replaces its seed
    if anchor.classification != CLASS_INTERIOR:
        raise InconsistencyError("a graph needs an interior anchor with |dF/dw| <= 1 - %g; got "
                                 "|w| = %.6e, |dF/dw| = %.6e"
                                 % (_DERIV_TOL, abs(anchor.w), abs(anchor.derivative)))
    return reduced, anchor


def _normalize(rho, seed, scan_radius, role_tol):
    """The normal form of the top map rho, with no components or diagnostics yet:
    each level peels its first generic component, where it sits (_reduce), until
    none is left.  ``roles`` are the level's, in head order, and a role's source
    is a top-map index: an explicit level leaves every head component the same
    function, so it keeps the roles above it, and any other level is classified
    afresh.  When every free coordinate is an identity component of rho, a graph
    column is rho's component at (x, 0), where a term in a variable outside the
    free block is 0, so the kernel holds each column exactly by its other terms."""
    def classify(level):  # sources are the level's positions; the seed moves by 17 a level
        return classify_components(level, seed=seed + 17 * len(graphs), radius=scan_radius, tol=role_tol)

    level, head, graphs, anchors = rho, list(range(rho.n)), [], []
    roles = top = classify(rho)
    generic = [g for g, role in enumerate(roles) if role.kind == ROLE_GENERIC]
    while generic:
        if len(head) == 1:
            raise InconsistencyError("a one-variable idempotent self-map of the disk must be the "
                                     "identity or a point; this one is neither")
        g = generic[0]
        level, anchor = _reduce(level, g)
        graphs.insert(0, head.pop(g))
        anchors.insert(0, anchor)
        if anchor.iterations:
            roles = [r if r.source is None else replace(r, source=head[r.source]) for r in classify(level)]
        else:
            roles = roles[:g] + roles[g + 1:]
        generic = [g for g, role in enumerate(roles) if role.kind == ROLE_GENERIC]

    ids = [i for i, role in zip(head, roles) if role.kind == ROLE_IDENTITY]
    copies = [(i, role) for i, role in zip(head, roles) if role.kind == ROLE_COPY]
    consts = [(i, role) for i, role in zip(head, roles) if role.kind == ROLE_CONSTANT]
    maps = [None if role.moebius.is_identity() else role.moebius.inverse() for _, role in copies]
    chain = Conjugation(tuple(ids + [i for i, _ in copies + consts] + graphs),
                        (None,) * len(ids) + tuple(maps) + (None,) * (len(consts) + len(graphs)))
    form = NormalForm(rho.n, len(ids), tuple(ids.index(role.source) for _, role in copies), chain,
                      rho, [role.value for _, role in consts], anchors)
    if graphs and all(top[i].kind == ROLE_IDENTITY for i in ids):
        form._rational = [c for c, j in enumerate(graphs) if rho._rational[j]]
        polys = [rho._pairs[j][0] for j in graphs] + [rho._pairs[graphs[c]][1] for c in form._rational]
        form._kernel = _Stack([_restrict(p, ids) for p in polys])
        form._pole_tols = rho._pole_tols[[graphs[c] for c in form._rational]]
    elif graphs:
        form._base = _ReducedMap(rho, graphs, tuple(a.w for a in anchors))
    return form


@dataclass
class NormalForm:
    """Normalized retract: free block, copy block, graph block, as one object.

    Its layout is k free coordinates, the copies' sources ``e_sources``, the
    constants ``_consts`` and the graphs' anchor records ``_anchors``, deepest
    first, after the conjugation Phi of the input map ``_rho``.  Its graph rule
    is ``_kernel``, if set: each graph's numerator in the free variables, then
    the denominators of its ``_rational`` columns, with their ``_pole_tols``;
    else ``_base``, if set: the top map with every graph peeled, which solves
    the graph columns at the head columns of the points that Phi^{-1} maps back
    to the top map.  image_point and every f_components evaluator read them.
    """

    n: int
    k: int
    e_sources: tuple
    conjugation: Conjugation
    _rho: RetractMap
    _consts: list
    _anchors: list
    f_components: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    _base: _ReducedMap | None = None
    _kernel: _Stack | None = None
    _rational: list = field(default_factory=list)
    _pole_tols: np.ndarray | None = None

    @property
    def copy_count(self):
        return len(self.e_sources)

    @property
    def graph_count(self):
        return len(self.f_components)

    def image_point(self, x):
        """Normalized image point of free coordinates, finite and in the closed unit
        polydisk: (k,) -> (n,), (N, k) -> (N, n).  Copies of x, the constants, and
        the graphs from one table of the kernel, dividing only the rational ones,
        or one joint solve."""
        x = np.asarray(x, dtype=complex)
        k, m = self.k, len(self.e_sources)
        if x.ndim not in (1, 2) or x.shape[-1] != k:
            raise ValueError("free coordinates need a trailing axis of length %d" % k)
        if not (np.abs(x) <= 1.0).all():
            raise ValueError("free coordinates must be finite and lie in the closed unit polydisk")
        rows = x if x.ndim == 2 else x.reshape(1, k)
        head = k + m + len(self._consts)
        out = np.empty((len(rows), self.n), dtype=complex)
        out[:, :k] = rows
        if m:
            out[:, k : k + m] = rows[:, list(self.e_sources)]
        if self._consts:
            out[:, k + m : head] = self._consts
        if self._kernel is not None and len(rows):
            table = self._kernel(rows)
            g = self.n - head
            if self._rational:
                table[:, self._rational] = multipoly._quotients(table[:, self._rational], table[:, g:],
                                                                self._pole_tols)
            out[:, head:] = table[:, :g]
        elif self._base is not None and len(rows):
            out[:, head:] = self._base._peel(self.conjugation.apply_inverse(out)[:, self._base._head])
        return out if x.ndim == 2 else out[0]

    def normalized_map(self, v):
        """Phi . rho . Phi^{-1} at (..., n) points; on image points, the identity up to the residuals."""
        v, chain = np.asarray(v, dtype=complex), self.conjugation
        return chain.apply(self._rho.evaluate_batch(chain.apply_inverse(v)).reshape(v.shape))

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
    components off as graphs (an explicit level solves nothing, an implicit
    one refines its anchor by Newton; a graph's provenance ``source`` is its
    level's anchor record), and materializes every graph over a grid on the
    free block with the residual ||rho_norm(v) - v||_inf at each node.  A
    grid radius outside (0, 1], a grid of fewer than one node per axis or a
    tol that is not finite and positive raises ValueError.
    """
    if not 0.0 < radius <= 1.0:
        raise ValueError("grid radius must lie in (0, 1]")
    if int(grid) < 1:
        raise ValueError("grid must be a positive integer")
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")
    report = verify_idempotent(rho, samples=samples, seed=seed, radius=min(radius + 0.05, 0.95), tol=tol)
    if not report["passed"]:
        raise InconsistencyError("map is not idempotent to tolerance %.1e (defect %.3e, max modulus "
                                 "%.6f)" % (report["tol"], report["max_defect"], report["max_modulus"]))

    form = _normalize(rho, int(seed), min(float(radius), 0.85), max(float(tol), 1e-9))
    k, m = form.k, form.copy_count
    axes = tuple(disk_points(int(grid), float(radius)) for _ in range(k))
    shape = tuple(len(ax) for ax in axes)
    size = int(np.prod(shape))
    nodes = np.array(np.meshgrid(*axes, indexing="ij"), dtype=complex).reshape(k, size).T
    images = form.image_point(nodes)
    defect_grid = np.max(np.abs(form.normalized_map(images) - images), axis=1).reshape(shape)

    for c, anchor in enumerate([None] * len(form._consts) + form._anchors, start=k + m):
        prov = {"method": "constant", "position": c} if anchor is None else {
            "method": "fixed_point_composition", "position": c, "source": anchor.to_json()}
        form.f_components.append(GraphFunction(
            axes=axes, values=images[:, c].reshape(shape), residuals=defect_grid.copy(),
            provenance=prov, evaluator=lambda rows, c=c: form.image_point(rows)[:, c]))

    form.diagnostics = {"idempotence": report,
                        "normal_form_residual": float(np.max(defect_grid)) if defect_grid.size else 0.0,
                        "free_count": int(k), "copy_count": int(m), "graph_count": form.graph_count,
                        "grid": int(grid), "radius": float(radius), "seed": int(seed)}
    return form
