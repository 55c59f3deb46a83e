"""Acceptance gate: the eight shipping criteria, each at its stated tolerance.

Every test prints exactly one PASS/FAIL line on the real stdout so the
acceptance status is visible in the terminal regardless of pytest capture
settings, then asserts the same condition.
"""

import json
import sys
import time

import numpy as np
import pytest

from aglerkit.cli import EXIT_OK
from aglerkit.cli import main as cli_main
from aglerkit.errors import InconsistencyError, NotSolvableError
from aglerkit.fixedgraph import CLASS_INTERIOR, SchurMap, continue_graph, find_fixed_w
from aglerkit.kernels import KernelBundle, check_bounds, verify_decomposition
from aglerkit.multipoly import MultiPoly, RationalMap
from aglerkit.pick import NOT_SOLVABLE, PickProblem, is_solvable, pick_matrix, solve
from aglerkit.poly2 import BivariatePolynomial
from aglerkit.retract import RetractMap, normal_form, verify_idempotent
from aglerkit.sampling import random_polydisk
from aglerkit.serialize import canonical_dumps
from aglerkit.sos import SosCertificate, solve_gram, sos_residual

CLASSIC = BivariatePolynomial([[2.0, -1.0], [-1.0, 0.0]])

_DEG33 = np.zeros((4, 4))
_DEG33[0, 0] = 8.0
_DEG33[1, 0] = -1.0
_DEG33[0, 1] = -2.0
_DEG33[1, 2] = -1.0
_DEG33[3, 3] = -1.0

CORPUS = [
    ("classic", CLASSIC),
    ("wide_margin", BivariatePolynomial([[4.0, -1.0], [-1.0, 0.0]])),
    (
        "product_22",
        BivariatePolynomial(
            [[8.0, -6.0, 1.0], [-6.0, 2.0, 0.0], [1.0, 0.0, 0.0]]
        ),
    ),
    ("degree_12", BivariatePolynomial([[4.0, -1.0, -1.0], [-1.0, 0.0, 0.0]])),
    ("degree_33", BivariatePolynomial(_DEG33)),
]


def _finish(criterion, ok, detail):
    line = "ACCEPTANCE %d: %s  %s" % (criterion, "PASS" if ok else "FAIL", detail)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, "criterion %d failed: %s" % (criterion, detail)


@pytest.fixture(scope="module")
def corpus_bundles():
    out = []
    for name, p in CORPUS:
        cert = solve_gram(p)
        out.append((name, p, cert, KernelBundle.from_certificate(cert)))
    return out


def classic_input_payload():
    return {
        "polynomial": {
            "bidegree": [1, 1],
            "coeffs": [[[2.0, 0.0], [-1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]],
        }
    }


def hand_certificate():
    """The closed-form feasible point for the classic polynomial."""
    s = np.sqrt(2.0)
    hand_a = BivariatePolynomial(np.array([[s, -s]], dtype=complex))
    hand_b = BivariatePolynomial(np.array([[s], [-s]], dtype=complex))
    gram = np.array([[2.0, -2.0], [-2.0, 2.0]], dtype=complex)
    return SosCertificate(
        p=CLASSIC,
        p_tilde=CLASSIC.reflect(),
        gram_a=gram.copy(),
        gram_b=gram.copy(),
        a_polys=[hand_a],
        b_polys=[hand_b],
        residual=float(sos_residual(CLASSIC, [hand_a], [hand_b])),
        iterations=0,
        seed=0,
        tol=1e-12,
    )


def random_average_map(rng, bound):
    """F(z, w) = (f0(z) + w)/2 with a random bivariate f0, coeff sum = bound."""
    exponents = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    raw = rng.uniform(-1, 1, len(exponents)) + 1j * rng.uniform(-1, 1, len(exponents))
    raw = raw * (bound / np.sum(np.abs(raw)))
    f0 = MultiPoly(2, dict(zip(exponents, raw)))
    terms = {expo + (0,): 0.5 * coef for expo, coef in f0.terms.items()}
    terms[(0, 0, 1)] = 0.5
    return SchurMap(2, rational=RationalMap(MultiPoly(3, terms))), f0


def random_blaschke(rng, degree):
    zeros = 0.6 * (rng.uniform(-1, 1, degree) + 1j * rng.uniform(-1, 1, degree)) / np.sqrt(2)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))

    def f(z):
        z = np.asarray(z, dtype=complex)
        out = np.full(z.shape, phase, dtype=complex)
        for a in zeros:
            out = out * (z - a) / (1 - np.conj(a) * z)
        return out

    return f


def separated_nodes(rng, count=5, radius=0.65, min_sep=0.2):
    nodes = []
    while len(nodes) < count:
        cand = radius * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / np.sqrt(2)
        if all(abs(cand - n) >= min_sep for n in nodes):
            nodes.append(cand)
    return np.array(nodes)


def test_criterion_1_classic_end_to_end():
    t0 = time.perf_counter()
    cert = solve_gram(CLASSIC)
    bundle = KernelBundle.from_certificate(cert)
    report = verify_decomposition(bundle, samples=500, seed=1234)
    elapsed = time.perf_counter() - t0

    hand = verify_decomposition(
        KernelBundle.from_certificate(hand_certificate()),
        samples=500,
        seed=1234,
        tol=1e-12,
    )

    ok = (
        cert.residual <= 1e-8
        and report.identity1_max <= 1e-6
        and report.identity2_max <= 1e-6
        and report.cs_max_violation <= 1e-8
        and hand.identity1_max <= 1e-12
        and hand.identity2_max <= 1e-12
        and hand.cs_max_violation <= 1e-12
        and elapsed < 30.0
    )
    _finish(
        1,
        ok,
        "classic end-to-end: residual=%.2e id=%.2e cs=%.2e hand_id=%.2e "
        "hand_cs=%.2e time=%.2fs"
        % (
            cert.residual,
            max(report.identity1_max, report.identity2_max),
            report.cs_max_violation,
            max(hand.identity1_max, hand.identity2_max),
            hand.cs_max_violation,
            elapsed,
        ),
    )


def test_criterion_2_telescoping_oracle(raw_bundle):
    one = BivariatePolynomial(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
    a = BivariatePolynomial(np.array([[1.0, 0.0]], dtype=complex))
    b = BivariatePolynomial(np.array([[0.0], [1.0]], dtype=complex))
    g_a = np.zeros((2, 2), dtype=complex)
    g_a[0, 0] = 1.0
    g_b = np.zeros((2, 2), dtype=complex)
    g_b[1, 1] = 1.0
    cert = SosCertificate(
        p=one,
        p_tilde=one.reflect(),
        gram_a=g_a,
        gram_b=g_b,
        a_polys=[a],
        b_polys=[b],
        residual=float(sos_residual(one, [a], [b])),
        iterations=0,
        seed=0,
        tol=1e-12,
    )
    raw = raw_bundle(cert)

    rng = np.random.default_rng(211)
    zs = random_polydisk(rng, 200, 2, 0.9)
    ws = random_polydisk(rng, 200, 2, 0.9)
    z = (zs[:, 0], zs[:, 1])
    w = (ws[:, 0], ws[:, 1])
    k1_err = float(np.max(np.abs(raw.K(1, z, w) - 1.0)))
    k2_err = float(np.max(np.abs(raw.K(2, z, w) - z[0] * np.conj(w[0]))))
    report = verify_decomposition(
        KernelBundle.from_certificate(cert), samples=500, seed=1234, tol=1e-10
    )

    ok = k1_err <= 1e-10 and k2_err <= 1e-10 and report.passed
    _finish(
        2,
        ok,
        "telescoping oracle: |K1-1|=%.2e |K2-z1*conj(w1)|=%.2e verified=%s"
        % (k1_err, k2_err, report.passed),
    )


def test_criterion_3_inequality_suite(corpus_bundles):
    worst_cs = -np.inf
    worst_fd = 0.0
    rng = np.random.default_rng(333)
    step = 1e-5
    for name, p, cert, bundle in corpus_bundles:
        report = verify_decomposition(bundle, samples=500, seed=777)
        worst_cs = max(worst_cs, report.cs_max_violation)
        pts = random_polydisk(rng, 20, 2, 0.6)
        z = (pts[:, 0], pts[:, 1])
        l1 = bundle.L(1, z, z)
        l2 = bundle.L(2, z, z)
        fd1 = (bundle.eval_f(z[0] + step, z[1]) - bundle.eval_f(z[0] - step, z[1])) / (2 * step)
        fd2 = (bundle.eval_f(z[0], z[1] + step) - bundle.eval_f(z[0], z[1] - step)) / (2 * step)
        worst_fd = max(
            worst_fd,
            float(np.max(np.abs(l1 - fd1))),
            float(np.max(np.abs(l2 - fd2))),
        )
    ok = worst_cs <= 1e-8 and worst_fd <= 1e-5
    _finish(
        3,
        ok,
        "inequality suite (%d polynomials): cs_violation=%.2e derivative_gap=%.2e"
        % (len(corpus_bundles), worst_cs, worst_fd),
    )


def test_criterion_4_kernel_bound_suite(corpus_bundles):
    worst_margin = np.inf
    for name, p, cert, bundle in corpus_bundles:
        report = check_bounds(bundle, samples=1000, seed=99)
        worst_margin = min(worst_margin, report.bound_margin)
    ok = worst_margin >= -1e-9
    _finish(
        4,
        ok,
        "kernel growth bound at 1000 points per certificate: min margin=%.2e"
        % worst_margin,
    )


def test_criterion_5_pick_module():
    rng = np.random.default_rng(2025)
    min_eig = np.inf
    worst_defect = 0.0
    for _ in range(100):
        degree = int(rng.integers(1, 4))
        f = random_blaschke(rng, degree)
        nodes = separated_nodes(rng)
        targets = f(nodes)
        eigs = np.linalg.eigvalsh(pick_matrix(nodes, targets))
        min_eig = min(min_eig, float(eigs[0]))
        interpolant = solve(PickProblem(list(nodes), list(targets)))
        defect = max(abs(interpolant(n) - t) for n, t in zip(nodes, targets))
        worst_defect = max(worst_defect, float(defect))

    bad = PickProblem([0.0, 0.5], [0.0, 0.9])
    verdict, neg_eig = is_solvable(bad)
    raised = False
    try:
        solve(bad)
    except NotSolvableError:
        raised = True

    ok = (
        min_eig >= -1e-10
        and worst_defect <= 1e-8
        and verdict == NOT_SOLVABLE
        and raised
    )
    _finish(
        5,
        ok,
        "pick: 100 Blaschke problems min_eig=%.2e defect=%.2e; "
        "schwarz-violating case verdict=%s" % (min_eig, worst_defect, verdict),
    )


def test_criterion_6_fixed_graph_oracle_family():
    rng = np.random.default_rng(808)
    worst_gap = 0.0
    worst_eig = np.inf
    worst_deriv = 0.0
    for _ in range(20):
        smap, f0 = random_average_map(rng, bound=0.9)
        records = find_fixed_w(smap, [0.0, 0.0])
        for rec in records:
            worst_deriv = max(worst_deriv, abs(rec.derivative))
        anchor = [r for r in records if r.classification == CLASS_INTERIOR][0]
        graph = continue_graph(smap, anchor, radius=0.9, grid=20)
        mesh = np.stack(
            np.meshgrid(graph.axes[0], graph.axes[1], indexing="ij"), axis=-1
        )
        worst_gap = max(
            worst_gap, float(np.max(np.abs(graph.values - f0.evaluate(mesh))))
        )
        worst_eig = min(worst_eig, graph.provenance["slice_pick_min_eig"])
        worst_deriv = max(worst_deriv, graph.provenance["max_w_derivative"])
    ok = worst_gap <= 1e-8 and worst_eig >= -1e-8 and worst_deriv <= 1.0 + 1e-8
    _finish(
        6,
        ok,
        "fixed-graph family: 20 maps on 20x20 grids, graph gap=%.2e "
        "slice_pick_min_eig=%.2e max|dF/dw|=%.6f" % (worst_gap, worst_eig, worst_deriv),
    )


def test_criterion_7_retract_suite():
    const = 0.3 - 0.2j
    z1_of2 = MultiPoly(2, {(1, 0): 1.0})
    cases = [
        ("identity", RetractMap.identity(2), 2, 0, 0, None),
        ("duplicate", RetractMap(2, (z1_of2, z1_of2)), 1, 1, 0, None),
        (
            "twisted_copy",
            RetractMap(2, (MultiPoly(2, {(0, 1): -1.0}), MultiPoly(2, {(0, 1): 1.0}))),
            1,
            1,
            0,
            None,
        ),
        (
            "parabola",
            RetractMap(2, (z1_of2, MultiPoly(2, {(2, 0): 1.0}))),
            1,
            0,
            1,
            lambda x: x[0] ** 2,
        ),
        (
            "triple_product",
            RetractMap(
                3,
                (
                    MultiPoly(3, {(1, 0, 0): 1.0}),
                    MultiPoly(3, {(0, 1, 0): 1.0}),
                    MultiPoly(3, {(1, 1, 0): 1.0}),
                ),
            ),
            2,
            0,
            1,
            lambda x: x[0] * x[1],
        ),
        (
            "constant",
            RetractMap(2, (z1_of2, MultiPoly(2, {(0, 0): const}))),
            1,
            0,
            1,
            lambda x: const,
        ),
    ]

    worst_resid = 0.0
    shape_ok = True
    rng = np.random.default_rng(117)
    for name, rho, k, copies, graphs, f_expected in cases:
        nf = normal_form(rho)
        if (nf.k, nf.copy_count, nf.graph_count) != (k, copies, graphs):
            shape_ok = False
        worst_resid = max(worst_resid, nf.diagnostics["normal_form_residual"])
        for comp in nf.f_components:
            worst_resid = max(worst_resid, comp.max_residual)
        if f_expected is not None:
            for _ in range(5):
                x = 0.6 * (rng.uniform(-1, 1, nf.k) + 1j * rng.uniform(-1, 1, nf.k)) / np.sqrt(2)
                gap = abs(nf.f_components[-1].evaluate(x) - f_expected(x))
                if gap > 1e-8:
                    shape_ok = False

    swap_rejected = False
    try:
        normal_form(
            RetractMap(
                2, (MultiPoly(2, {(0, 1): 1.0}), MultiPoly(2, {(1, 0): 1.0}))
            )
        )
    except InconsistencyError:
        swap_rejected = True

    # one-variable rigidity: idempotent candidates collapse to identity or
    # a point; everything else is rejected at the idempotence gate
    rigidity_ok = True
    rng1 = np.random.default_rng(909)
    for trial in range(8):
        kind = trial % 4
        if kind == 0:
            c = 0.85 * complex(rng1.uniform(-1, 1), rng1.uniform(-1, 1)) / np.sqrt(2)
            rho1 = RetractMap(1, (MultiPoly(1, {(0,): c}),))
            nf1 = normal_form(rho1)
            if (nf1.k, nf1.graph_count) != (0, 1):
                rigidity_ok = False
        elif kind == 1:
            nf1 = normal_form(RetractMap.identity(1))
            if (nf1.k, nf1.graph_count) != (1, 0):
                rigidity_ok = False
        elif kind == 2:
            a = 0.3 + 0.4 * rng1.random()
            rho1 = RetractMap(1, (MultiPoly(1, {(1,): a}),))
            if verify_idempotent(rho1)["passed"]:
                rigidity_ok = False
            try:
                normal_form(rho1)
                rigidity_ok = False
            except InconsistencyError:
                pass
        else:
            a = 0.5 * complex(rng1.uniform(-1, 1), rng1.uniform(-1, 1)) / np.sqrt(2)
            num = MultiPoly(1, {(0,): a, (1,): -1.0})
            den = MultiPoly(1, {(0,): 1.0, (1,): -np.conj(a)})
            rho1 = RetractMap(1, (RationalMap(num, den),))
            try:
                normal_form(rho1)
                rigidity_ok = False
            except InconsistencyError:
                pass

    ok = shape_ok and worst_resid <= 1e-8 and swap_rejected and rigidity_ok
    _finish(
        7,
        ok,
        "retract suite: six normal forms (max residual=%.2e) shapes=%s "
        "swap_rejected=%s one_variable_rigidity=%s"
        % (worst_resid, shape_ok, swap_rejected, rigidity_ok),
    )


def test_criterion_8_determinism(tmp_path):
    lib_first = canonical_dumps(solve_gram(CLASSIC).to_json())
    lib_second = canonical_dumps(solve_gram(CLASSIC).to_json())
    lib_ok = lib_first == lib_second

    inp = tmp_path / "classic.json"
    inp.write_text(json.dumps(classic_input_payload()))
    cert_bytes = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = cli_main(["decompose", "--input", str(inp), "--output", str(out)])
        assert code == EXIT_OK
        cert_bytes.append(out.read_bytes())
    decompose_ok = cert_bytes[0] == cert_bytes[1]

    verify_bytes = []
    for name in ("va.json", "vb.json"):
        out = tmp_path / name
        code = cli_main(
            ["verify", "--input", str(tmp_path / "a.json"), "--output", str(out)]
        )
        assert code == EXIT_OK
        verify_bytes.append(out.read_bytes())
    verify_ok = verify_bytes[0] == verify_bytes[1]

    ok = lib_ok and decompose_ok and verify_ok
    _finish(
        8,
        ok,
        "determinism: solver dumps identical=%s decompose files identical=%s "
        "verify files identical=%s" % (lib_ok, decompose_ok, verify_ok),
    )
