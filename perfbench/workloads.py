"""Seeded inputs, ops and oracles of the benchmark workloads.

A workload turns the benchmark seed into passes over its inputs.  ``run``
takes one op through the library's public functions with the arguments the
CLI subcommands use, under a span named ``<layer>.<call>`` around every call
into a layer, and leaves what the oracle needs in ``out``.  ``check`` is the
oracle: it returns the layer of the first check the outputs fail, or None.
The ops never see the seed, only the inputs made from it.
"""

import json
from dataclasses import dataclass

import numpy as np

import aglerkit as ak
from aglerkit.multipoly import MultiPoly, RationalMap
from aglerkit.serialize import canonical_dumps

TOL = 1e-9

# ----------------------------------------------------------------------
# certification pipeline: stability -> sos -> serialize -> kernels
# ----------------------------------------------------------------------

_DEG33 = np.zeros((4, 4))
_DEG33[0, 0], _DEG33[1, 0], _DEG33[0, 1], _DEG33[1, 2], _DEG33[3, 3] = 8.0, -1.0, -2.0, -1.0, -1.0

# The acceptance corpus.  classic and product_22 vanish at (1, 1) on the
# torus, so their correct verdict is StableOpen; the others are strictly stable.
CORPUS = {
    "classic": ([[2.0, -1.0], [-1.0, 0.0]], ak.STABLE_OPEN),
    "wide_margin": ([[4.0, -1.0], [-1.0, 0.0]], ak.STABLE_CLOSED_STRICT),
    "product_22": ([[8.0, -6.0, 1.0], [-6.0, 2.0, 0.0], [1.0, 0.0, 0.0]], ak.STABLE_OPEN),
    "degree_12": ([[4.0, -1.0, -1.0], [-1.0, 0.0, 0.0]], ak.STABLE_CLOSED_STRICT),
    "degree_33": (_DEG33, ak.STABLE_CLOSED_STRICT),
}


def boundary_power(k):
    """(2 - z1 - z2)**k: zero only at (1, 1), so its verdict is StableOpen."""
    base = np.array([[2.0, -1.0], [-1.0, 0.0]])
    coeffs = np.ones((1, 1))
    for _ in range(k):
        product = np.zeros((coeffs.shape[0] + 1, coeffs.shape[1] + 1))
        for (i, j), b in np.ndenumerate(base):
            product[i:i + coeffs.shape[0], j:j + coeffs.shape[1]] += b * coeffs
        coeffs = product
    return coeffs


def random_strictly_stable(rng, degree):
    """p = 1 + c with c_00 = 0 and complex-normal c scaled to sum |c_ab| = 2/3.

    |c| <= 2/3 on the closed bidisk, so p has no zero there.
    """
    c = rng.standard_normal((degree + 1,) * 2) + 1j * rng.standard_normal((degree + 1,) * 2)
    c[0, 0] = 0.0
    c *= (2.0 / 3.0) / np.sum(np.abs(c))
    c[0, 0] = 1.0
    return c


@dataclass
class CertifyInput:
    name: str
    p: ak.BivariatePolynomial
    expected: str


def _certify_input(name, coeffs, expected):
    return CertifyInput(name, ak.BivariatePolynomial(np.asarray(coeffs, dtype=complex)), expected)


class Certify:
    """One op takes one polynomial through `stability`, `decompose` and `verify`."""

    def __init__(self, name, random_degrees, fixed):
        self.name = name
        self.random_degrees = random_degrees
        self.fixed = fixed
        self.pass_size = len(random_degrees) + len(fixed)

    def make_pass(self, rng):
        items = [
            _certify_input("random_%d%d" % (d, d), random_strictly_stable(rng, d),
                           ak.STABLE_CLOSED_STRICT)
            for d in self.random_degrees
        ]
        return items + [_certify_input(*entry) for entry in self.fixed]

    def warmup_input(self):
        # the first (2, 2) solve in a process is slow, even after a (1, 1) one
        return _certify_input("product_22", *CORPUS["product_22"])

    def run(self, item, tr, out):
        p = item.p
        out["layer"] = "stability"
        verdicts = []
        for torus_grid, disk_grid in ((512, 64), (128, 16)):  # `stability`, then the pre-gate
            tr.add("stability.calls", 1)
            with tr.span("stability.check_stability"):
                report = ak.check_stability(p, torus_grid=torus_grid, disk_grid=disk_grid, tol=TOL)
            verdicts.append(report.verdict)
        out["verdicts"] = tuple(verdicts)
        if verdicts[1] == ak.ZERO_FOUND:
            return  # `decompose` refuses the input here
        out["layer"] = "sos"
        tr.add("sos.calls", 1)
        with tr.span("sos.solve_gram"):
            cert = ak.solve_gram(p, tol=TOL, max_iter=200000, seed=42)
        tr.add("sos.iterations", cert.iterations)
        tr.add("sos.polish_iterations", cert.polish_iterations)
        out["layer"] = "serialize"
        with tr.span("serialize.canonical_dumps"):
            text = canonical_dumps(cert.to_json())
        with tr.span("serialize.from_json"):
            loaded = ak.SosCertificate.from_json(json.loads(text))
        tr.add("serialize.bytes", len(text))
        out["layer"] = "kernels"
        verification, bounds = self.kernel_checks(loaded, tr)
        out.update(cert=cert, text=text, loaded=loaded, verification=verification, bounds=bounds)

    @staticmethod
    def kernel_checks(cert, tr):
        """What `verify` does with a stored certificate: its two sampled reports."""
        with tr.span("kernels.from_certificate"):
            bundle = ak.KernelBundle.from_certificate(cert)
        with tr.span("kernels.verify_decomposition"):
            verification = ak.verify_decomposition(bundle, samples=500, seed=1234, tol=TOL)
        with tr.span("kernels.check_bounds"):
            bounds = ak.check_bounds(bundle, samples=500, seed=1235)
        return verification, bounds

    def check(self, item, out, tr):
        verdict, pre = out["verdicts"]
        if verdict != item.expected or pre == ak.ZERO_FOUND:
            return "stability"
        if not out["cert"].residual <= TOL:
            return "sos"
        text = out["text"]
        again = canonical_dumps(out["loaded"].to_json())
        # The reload drops the sign of zero (pairs_to_matrix adds re + 1j*im),
        # so the first re-serialisation differs from the original in the
        # bytes of -0.0 entries.  Counted here so the defect stays visible;
        # the checks below still need equal values and byte-stable reloads.
        if again != text:
            tr.add("serialize.roundtrip_byte_diffs", 1)
        if json.loads(again) != json.loads(text):
            return "serialize"
        if canonical_dumps(ak.SosCertificate.from_json(json.loads(again)).to_json()) != again:
            return "serialize"
        if not (out["verification"].passed and out["bounds"].passed):
            return "kernels"
        return None


# ----------------------------------------------------------------------
# fixed-point graphs
# ----------------------------------------------------------------------

_F0_EXPONENTS = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]


def random_f0(rng, bound=0.9):
    """Coefficients of a random bivariate f0 with sum |coefficients| = bound."""
    raw = rng.uniform(-1, 1, len(_F0_EXPONENTS)) + 1j * rng.uniform(-1, 1, len(_F0_EXPONENTS))
    return raw * (bound / np.sum(np.abs(raw)))


def average_map(f0):
    """F(z, w) = (f0(z) + w) / 2, whose fixed-point graph is w = f0(z)."""
    terms = {expo + (0,): 0.5 * coef for expo, coef in zip(_F0_EXPONENTS, f0)}
    terms[(0, 0, 1)] = 0.5
    return ak.SchurMap(2, rational=RationalMap(MultiPoly(3, terms)))


def eval_f0(f0, z1, z2):
    return sum(coef * z1 ** a * z2 ** b for (a, b), coef in zip(_F0_EXPONENTS, f0))


@dataclass
class GraphInput:
    f0: np.ndarray
    smap: ak.SchurMap


class GraphGrid:
    """One op: check_schur, find_fixed_w at the origin, continue_graph at two grids."""

    name = "graph_grid"
    grids = (20, 40)
    pass_size = 4

    def make_pass(self, rng):
        return [self._input(random_f0(rng)) for _ in range(self.pass_size)]

    def warmup_input(self):
        return self._input(random_f0(np.random.default_rng(808)))

    @staticmethod
    def _input(f0):
        return GraphInput(f0, average_map(f0))

    def run(self, item, tr, out):
        smap = item.smap
        out["layer"] = "fixedgraph"
        with tr.span("fixedgraph.check_schur"):
            out["schur"] = smap.check_schur(samples=200)
        with tr.span("fixedgraph.find_fixed_w"):
            records = ak.find_fixed_w(smap, [0.0, 0.0])
        anchor = next(r for r in records if r.classification == ak.CLASS_INTERIOR)
        out["graphs"] = []
        for grid in self.grids:
            with tr.span("fixedgraph.continue_graph"):
                graph = ak.continue_graph(smap, anchor, radius=0.9, grid=grid)
            tr.add("fixedgraph.nodes", graph.values.size)
            out["graphs"].append(graph)

    def check(self, item, out, tr):
        if not out["schur"]["passed"]:
            return "fixedgraph"
        for graph in out["graphs"]:
            z1, z2 = np.meshgrid(graph.axes[0], graph.axes[1], indexing="ij")
            if not np.max(np.abs(graph.values - eval_f0(item.f0, z1, z2))) <= 1e-8:
                return "fixedgraph"
            if not graph.provenance["slice_pick_min_eig"] >= -1e-8:
                return "fixedgraph"
            if not graph.provenance["max_w_derivative"] <= 1.0 + 1e-8:
                return "fixedgraph"
        return None


# ----------------------------------------------------------------------
# retract normal forms
# ----------------------------------------------------------------------


def _coordinate(n, exponent):
    return MultiPoly(n, {exponent: 1.0})


# name -> (map, expected (k, copies, graphs), image of x in the original coordinates)
RETRACTS = {
    "parabola": (
        ak.RetractMap(2, (_coordinate(2, (1, 0)), _coordinate(2, (2, 0)))),
        (1, 0, 1),
        lambda x: [x[0], x[0] ** 2],
    ),
    "triple_product": (
        ak.RetractMap(3, (_coordinate(3, (1, 0, 0)), _coordinate(3, (0, 1, 0)),
                          _coordinate(3, (1, 1, 0)))),
        (2, 0, 1),
        lambda x: [x[0], x[1], x[0] * x[1]],
    ),
    "cubic_curve": (
        ak.RetractMap(3, (_coordinate(3, (1, 0, 0)), _coordinate(3, (2, 0, 0)),
                          _coordinate(3, (3, 0, 0)))),
        (1, 0, 2),
        lambda x: [x[0], x[0] ** 2, x[0] ** 3],
    ),
}


@dataclass
class RetractInput:
    seed: int
    points: dict  # map name -> (queries, k) array of points with |x_i| <= 0.6


class RetractForms:
    """One op: normal_form on each map, then seeded image_point queries per form."""

    name = "retract_forms"
    # Queries per form in the ops of one pass: op costs spread over about 2x
    # in five levels, the same in every run, so that the median falls inside
    # the middle level and the tail inside the top one.
    queries = (8, 38, 68, 98, 128)
    pass_size = len(queries)

    def make_pass(self, rng):
        return [self._input(rng, count) for count in self.queries]

    def warmup_input(self):
        return self._input(np.random.default_rng(23), self.queries[2], seed=23)

    def _input(self, rng, count, seed=None):
        if seed is None:
            seed = int(rng.integers(1, 2 ** 31))
        points = {
            name: 0.6 * np.sqrt(rng.random((count, k))) * np.exp(2j * np.pi * rng.random((count, k)))
            for name, (_, (k, _, _), _) in RETRACTS.items()
        }
        return RetractInput(seed, points)

    def run(self, item, tr, out):
        out["layer"] = "retract"
        out["forms"] = {}
        for name, (rho, _, _) in RETRACTS.items():
            with tr.span("retract.normal_form"):
                form = ak.normal_form(rho, seed=item.seed)
            tr.add("retract.graph_components", form.graph_count)
            images = []
            for x in item.points[name]:
                with tr.span("retract.image_point"):
                    images.append(form.image_point(x))
            tr.add("retract.queries", len(images))
            out["forms"][name] = (form, images)

    def check(self, item, out, tr):
        for name, (form, images) in out["forms"].items():
            _, shape, closed_form = RETRACTS[name]
            if (form.k, form.copy_count, form.graph_count) != shape:
                return "retract"
            if not form.diagnostics["normal_form_residual"] <= 1e-8:
                return "retract"
            for x, image in zip(item.points[name], images):
                original = form.conjugation.apply_inverse(image)
                if not np.max(np.abs(original - np.array(closed_form(x)))) <= 1e-8:
                    return "retract"
        return None


# ----------------------------------------------------------------------

_FIXED_LADDER = [(name, coeffs, expected) for name, (coeffs, expected) in CORPUS.items()]

WORKLOADS = {
    w.name: w
    for w in (
        # Op cost has tiers: (1, 1)-like inputs, random (2, 2), and
        # product_22 and degree_33 with the (3, 3) inputs.  Over four passes
        # the median falls inside the (2, 2) tier, and the top tier holds 20
        # ops with the tail (10 ops from the top) in their middle, away from
        # tier edges.
        Certify("certify_ladder", (1, 2, 2, 2, 2, 3, 3, 3), _FIXED_LADDER),
        Certify("certify_scaling", (4, 5), [
            ("boundary_cube", boundary_power(3), ak.STABLE_OPEN),
            ("boundary_square", boundary_power(2), ak.STABLE_OPEN),
        ]),
        GraphGrid(),
        RetractForms(),
    )
}

# Seconds of --seconds that buy one pass.  A run makes round(seconds /
# PASS_SECONDS) passes, so its op count depends only on --seconds, and p50 and
# the tail land on the same ranks in every run.  At the reference host speed
# (run.CALIBRATION_REF_S) a pass takes about 7.5, 1.5 and 1.0 s on
# certify_ladder, graph_grid and retract_forms, and up to 1.7x that while the
# shared host is slow.  The ladder gets four passes in 25 s so that its tail
# sits inside the top cost tier; the other two get fewer passes than would
# fit, as their metrics are steady with 32 and 70 ops, to keep runs short.
PASS_SECONDS = {
    "certify_ladder": 6.25,
    "certify_scaling": 9.5,
    "graph_grid": 3.1,
    "retract_forms": 1.75,
}


def pass_count(workload, seconds):
    """Passes in a run of about `seconds`, with at least 11 ops so a tail exists."""
    least = -(-11 // WORKLOADS[workload].pass_size)
    return max(least, round(seconds / PASS_SECONDS[workload]))


def make_ops(workload, seed, passes):
    rng = np.random.default_rng(seed)
    return [item for _ in range(passes) for item in WORKLOADS[workload].make_pass(rng)]


def cli_inputs():
    """Small fixed inputs for one run of each CLI subcommand (verify reads decompose's output)."""
    nodes = 0.6 * np.exp(2j * np.pi * np.arange(5) / 5) * (0.5 + 0.1 * np.arange(5))
    a = 0.3 + 0.2j
    targets = nodes * (nodes - a) / (1 - np.conj(a) * nodes)  # a degree-2 Blaschke product
    return {
        "stability": {"polynomial": _certify_input("classic", *CORPUS["classic"]).p.to_json()},
        "decompose": {"polynomial": _certify_input("product_22", *CORPUS["product_22"]).p.to_json()},
        "pick": ak.PickProblem(list(nodes), list(targets)).to_json(),
        "fixedgraph": average_map(random_f0(np.random.default_rng(808))).to_json(),
        "retract": RETRACTS["parabola"][0].to_json(),
    }
