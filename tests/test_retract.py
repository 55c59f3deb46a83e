"""Tests for idempotent self-maps of the polydisk and their normal forms."""

import numpy as np
import pytest

from aglerkit import fixedgraph, multipoly, retract
from aglerkit.errors import InconsistencyError
from aglerkit.moebius import MoebiusAutomorphism
from aglerkit.multipoly import MultiPoly, RationalMap
from aglerkit.retract import (
    ROLE_CONSTANT,
    ROLE_COPY,
    ROLE_GENERIC,
    ROLE_IDENTITY,
    Conjugation,
    RetractMap,
    classify_components,
    normal_form,
    reduce_dimension,
    verify_idempotent,
)
from aglerkit.sampling import random_polydisk
from aglerkit.serialize import canonical_dumps

CONST = 0.3 - 0.2j


def duplicate_map():
    # (z1, z2) -> (z1, z1)
    z1 = MultiPoly(2, {(1, 0): 1.0})
    return RetractMap(2, (z1, z1))


def twisted_copy_map():
    # (z1, z2) -> (-z2, z2)
    return RetractMap(
        2, (MultiPoly(2, {(0, 1): -1.0}), MultiPoly(2, {(0, 1): 1.0}))
    )


def parabola_map():
    # (z1, z2) -> (z1, z1^2)
    return RetractMap(
        2, (MultiPoly(2, {(1, 0): 1.0}), MultiPoly(2, {(2, 0): 1.0}))
    )


def triple_product_map():
    # (z1, z2, z3) -> (z1, z2, z1 z2)
    return RetractMap(
        3,
        (
            MultiPoly(3, {(1, 0, 0): 1.0}),
            MultiPoly(3, {(0, 1, 0): 1.0}),
            MultiPoly(3, {(1, 1, 0): 1.0}),
        ),
    )


def cubic_curve_map():
    # (z1, z2, z3) -> (z1, z1^2, z1^3): two graphs, peeled off at depths 0 and 1
    return RetractMap(
        3,
        (
            MultiPoly(3, {(1, 0, 0): 1.0}),
            MultiPoly(3, {(2, 0, 0): 1.0}),
            MultiPoly(3, {(3, 0, 0): 1.0}),
        ),
    )


def averaging_map(n):
    # every component is m = (z1 + ... + zn) / n: n - 1 graphs, each peeled
    # slice with dF/dw = 1/n or more, so the joint Jacobian is full
    m = MultiPoly(n, {tuple(int(i == j) for i in range(n)): 1.0 / n for j in range(n)})
    return RetractMap(n, (m,) * n)


def constant_second_map():
    # (z1, z2) -> (z1, c)
    return RetractMap(
        2, (MultiPoly(2, {(1, 0): 1.0}), MultiPoly(2, {(0, 0): CONST}))
    )


def swap_map():
    return RetractMap(
        2, (MultiPoly(2, {(0, 1): 1.0}), MultiPoly(2, {(1, 0): 1.0}))
    )


class TestRetractMap:
    def test_identity_evaluates_to_input(self):
        rho = RetractMap.identity(3)
        z = np.array([0.2, -0.4j, 0.1 + 0.1j])
        assert np.max(np.abs(rho(z) - z)) == 0.0

    def test_component_count_must_match(self):
        with pytest.raises(ValueError):
            RetractMap(2, (MultiPoly(2, {(1, 0): 1.0}),))

    def test_component_variable_count_must_match(self):
        with pytest.raises(ValueError):
            RetractMap(2, (MultiPoly(1, {(1,): 1.0}), MultiPoly(2, {(0, 1): 1.0})))

    def test_callable_components_raise_type_error(self):
        with pytest.raises(TypeError):
            RetractMap(2, (MultiPoly(2, {(1, 0): 1.0}), lambda z: z[0] * z[0]))

    def test_evaluate_batch_shape(self):
        rho = parabola_map()
        pts = random_polydisk(np.random.default_rng(3), 7, 2, 0.8)
        out = rho.evaluate_batch(pts)
        assert out.shape == (7, 2)
        assert np.max(np.abs(out[:, 1] - pts[:, 0] ** 2)) <= 1e-14

    def test_serialization_round_trip(self):
        num = MultiPoly(2, {(1, 0): 1.0})
        den = MultiPoly(2, {(0, 0): 1.0, (1, 0): -0.25})
        rho = RetractMap(2, (RationalMap(num, den), MultiPoly(2, {(0, 0): 0.1})))
        clone = RetractMap.from_json(rho.to_json())
        assert canonical_dumps(clone.to_json()) == canonical_dumps(rho.to_json())
        z = np.array([0.3, -0.2j])
        assert np.max(np.abs(clone(z) - rho(z))) <= 1e-15

    def test_reduced_map_refuses_serialization(self):
        reduced, _ = reduce_dimension(parabola_map())
        with pytest.raises(ValueError):
            reduced.to_json()


class TestVerifyIdempotent:
    def test_duplicate_passes_exactly(self):
        report = verify_idempotent(duplicate_map())
        assert report["passed"] is True
        assert report["max_defect"] <= 1e-15

    def test_parabola_passes(self):
        report = verify_idempotent(parabola_map())
        assert report["passed"] is True
        assert report["max_defect"] <= 1e-12

    def test_swap_fails(self):
        report = verify_idempotent(swap_map())
        assert report["passed"] is False
        assert report["max_defect"] > 0.5
        assert "reason" in report

    def test_map_leaving_polydisk_fails(self):
        rho = RetractMap(
            2, (MultiPoly(2, {(1, 0): 2.0}), MultiPoly(2, {(0, 1): 1.0}))
        )
        report = verify_idempotent(rho)
        assert report["passed"] is False
        assert report["reason"] == "the map leaves the closed polydisk"

    def test_report_fields(self):
        report = verify_idempotent(duplicate_map(), samples=50, seed=3, radius=0.7)
        assert report["samples"] == 50
        assert report["radius"] == 0.7
        assert report["max_modulus"] <= 0.7 + 1e-12

    def test_zero_samples_is_rejected(self):
        with pytest.raises(ValueError):
            verify_idempotent(swap_map(), samples=0)


class TestClassifyComponents:
    def test_duplicate_is_identity_plus_copy(self):
        roles = classify_components(duplicate_map())
        assert roles[0].kind == ROLE_IDENTITY
        assert roles[1].kind == ROLE_COPY
        assert roles[1].source == 0
        assert roles[1].moebius.is_identity()

    def test_twisted_copy_reports_the_moebius_map(self):
        roles = classify_components(twisted_copy_map())
        assert roles[1].kind == ROLE_IDENTITY
        assert roles[0].kind == ROLE_COPY
        assert roles[0].source == 1
        assert abs(roles[0].moebius(0.3) + 0.3) <= 1e-9

    def test_parabola_second_component_is_generic(self):
        roles = classify_components(parabola_map())
        assert roles[0].kind == ROLE_IDENTITY
        assert roles[1].kind == ROLE_GENERIC

    def test_constant_component_detected_with_value(self):
        roles = classify_components(constant_second_map())
        assert roles[1].kind == ROLE_CONSTANT
        assert abs(roles[1].value - CONST) <= 1e-12

    def test_triple_product_roles(self):
        roles = classify_components(triple_product_map())
        assert [r.kind for r in roles] == [ROLE_IDENTITY, ROLE_IDENTITY, ROLE_GENERIC]

    def test_automorphism_of_own_variable_raises(self):
        # (-z1, z2) negates its own coordinate, impossible for an idempotent
        rho = RetractMap(
            2, (MultiPoly(2, {(1, 0): -1.0}), MultiPoly(2, {(0, 1): 1.0}))
        )
        with pytest.raises(InconsistencyError):
            classify_components(rho)

    def test_copy_of_non_identity_source_raises(self):
        # (z1^2, z1): the copy in slot 2 points at a non-identity slot 1
        rho = RetractMap(
            2, (MultiPoly(2, {(2, 0): 1.0}), MultiPoly(2, {(1, 0): 1.0}))
        )
        with pytest.raises(InconsistencyError):
            classify_components(rho)


class TestConjugation:
    def test_permutation_apply_and_invert(self):
        conj = Conjugation((1, 0), (None, None))
        assert np.array_equal(conj.apply([1.0, 2.0]), [2.0, 1.0])
        assert np.array_equal(conj.apply_inverse(conj.apply([1.0, 2.0])), [1.0, 2.0])

    def test_moebius_map_touches_one_coordinate(self):
        phi = MoebiusAutomorphism(1.0, 0.0)  # w -> -w
        conj = Conjugation((0, 1), (None, phi))
        out = conj.apply([0.5, 0.25])
        assert abs(out[0] - 0.5) <= 1e-15
        assert abs(out[1] + 0.25) <= 1e-15
        back = conj.apply_inverse(out)
        assert np.max(np.abs(back - np.array([0.5, 0.25]))) <= 1e-15

    def test_inverse_undoes_apply(self):
        conj = Conjugation((1, 0), (MoebiusAutomorphism(1.0, 0.0), None))
        z = np.array([0.3 - 0.1j, 0.2 + 0.4j])
        assert np.max(np.abs(conj.apply_inverse(conj.apply(z)) - z)) <= 1e-15
        assert np.max(np.abs(conj.apply(conj.apply_inverse(z)) - z)) <= 1e-15

    def test_rows_act_like_single_points(self):
        conj = Conjugation(
            (2, 0, 1),
            (MoebiusAutomorphism(np.exp(0.4j), 0.2 - 0.3j), None,
             MoebiusAutomorphism(-1.0, 0.1j)),
        )
        rows = random_polydisk(np.random.default_rng(41), 9, 3, 0.8)
        for method in (conj.apply, conj.apply_inverse):
            batch = method(rows)
            assert batch.shape == rows.shape
            single = np.array([method(z) for z in rows])
            assert np.max(np.abs(batch - single)) <= 1e-12
        assert np.max(np.abs(conj.apply_inverse(conj.apply(rows)) - rows)) <= 1e-12

    def test_permuted_keeps_the_tail_fixed(self):
        conj = Conjugation.permuted((1, 0, 2), Conjugation((0, 1), (None, None)))
        assert np.array_equal(conj.apply([1.0, 2.0, 3.0]), [2.0, 1.0, 3.0])

    def test_permuted_is_the_permutation_then_the_level_below(self):
        below = Conjugation(
            (2, 0, 1),
            (None, MoebiusAutomorphism(np.exp(1.1j), -0.4 + 0.25j),
             MoebiusAutomorphism(np.exp(-0.3j), 0.5j)),
        )
        order = (3, 1, 4, 0, 2)
        conj = Conjugation.permuted(order, below)
        rows = random_polydisk(np.random.default_rng(43), 11, 5, 0.8)
        step = rows[:, list(order)]
        expected = np.concatenate([below.apply(step[:, :3]), step[:, 3:]], axis=1)
        assert np.max(np.abs(conj.apply(rows) - expected)) <= 1e-15
        assert np.max(np.abs(conj.apply_inverse(expected) - rows)) <= 1e-15


class TestReduceDimension:
    def test_parabola_splits_into_square_graph(self):
        reduced, graph = reduce_dimension(parabola_map())
        axis = graph.axes[0]
        assert np.max(np.abs(graph.values - axis**2)) <= 1e-10
        assert graph.max_residual <= 1e-10
        assert reduced.n == 1
        assert abs(reduced([0.4])[0] - 0.4) <= 1e-10
        assert verify_idempotent(reduced)["passed"] is True

    def test_triple_product_splits_into_product_graph(self):
        reduced, graph = reduce_dimension(triple_product_map())
        target = graph.axes[0][:, None] * graph.axes[1][None, :]
        assert np.max(np.abs(graph.values - target)) <= 1e-10
        assert reduced.n == 2
        z = np.array([0.3, -0.2j])
        assert np.max(np.abs(reduced(z) - z)) <= 1e-10
        assert verify_idempotent(reduced, samples=100)["passed"] is True

    def test_constant_component_gives_constant_graph(self):
        reduced, graph = reduce_dimension(constant_second_map())
        assert np.max(np.abs(graph.values - CONST)) <= 1e-12
        assert abs(reduced([0.7])[0] - 0.7) <= 1e-12

    def test_reduced_map_rows_match_single_points(self):
        reduced, _ = reduce_dimension(triple_product_map())
        pts = random_polydisk(np.random.default_rng(43), 12, 2, 0.8)
        batch = reduced.evaluate_batch(pts)
        single = np.array([reduced(z) for z in pts])
        assert batch.shape == (12, 2)
        assert np.max(np.abs(batch - single)) <= 1e-12

    def test_twice_reduced_map_rows_match_single_points(self):
        # (z1, z1^2, z1^3) -> (z1, z1^2) -> (z1): every Newton step of the
        # second graph's grid solve is one joint solve of the first graph
        once, _ = reduce_dimension(cubic_curve_map())
        twice, graph = reduce_dimension(once)
        assert np.max(np.abs(graph.values - graph.axes[0] ** 2)) <= 1e-10
        pts = random_polydisk(np.random.default_rng(47), 10, 1, 0.8)
        batch = twice.evaluate_batch(pts)
        single = np.array([twice(z) for z in pts])
        assert np.max(np.abs(batch - single)) <= 1e-12
        assert np.max(np.abs(batch - pts)) <= 1e-10

    def test_single_variable_map_is_rejected(self):
        rho = RetractMap(1, (MultiPoly(1, {(1,): 1.0}),))
        with pytest.raises(ValueError):
            reduce_dimension(rho)

    def test_identity_last_component_is_flagged(self):
        # the w-slice of the last component is the identity automorphism
        with pytest.raises(InconsistencyError):
            reduce_dimension(RetractMap.identity(2))


class TestNormalForm:
    def test_identity_map(self):
        nf = normal_form(RetractMap.identity(2))
        assert (nf.n, nf.k) == (2, 2)
        assert nf.e_sources == ()
        assert nf.graph_count == 0
        assert nf.diagnostics["normal_form_residual"] <= 1e-9
        x = np.array([0.2, -0.3j])
        assert np.max(np.abs(nf.image_point(x) - x)) <= 1e-12

    def test_duplicate_map(self):
        nf = normal_form(duplicate_map())
        assert (nf.k, nf.copy_count, nf.graph_count) == (1, 1, 0)
        assert nf.e_sources == (0,)
        assert np.max(np.abs(nf.image_point([0.5]) - np.array([0.5, 0.5]))) <= 1e-12
        assert nf.diagnostics["normal_form_residual"] <= 1e-9

    def test_twisted_copy_map_uses_a_moebius_step(self):
        nf = normal_form(twisted_copy_map())
        assert (nf.k, nf.copy_count, nf.graph_count) == (1, 1, 0)
        assert nf.e_sources == (0,)
        assert nf.conjugation.maps[1] is not None
        v = nf.image_point([0.4 - 0.1j])
        assert np.max(np.abs(nf.normalized_map(v) - v)) <= 1e-9

    def test_parabola_map_has_square_graph(self):
        nf = normal_form(parabola_map())
        assert (nf.k, nf.copy_count, nf.graph_count) == (1, 0, 1)
        comp = nf.f_components[0]
        assert abs(comp.evaluate([0.3]) - 0.09) <= 1e-10
        axis = comp.axes[0]
        assert np.max(np.abs(comp.values - axis**2)) <= 1e-9
        assert comp.max_residual <= 1e-9
        assert comp.provenance["method"] == "fixed_point_composition"

    def test_triple_product_map(self):
        nf = normal_form(triple_product_map())
        assert (nf.k, nf.copy_count, nf.graph_count) == (2, 0, 1)
        a, b = 0.31 - 0.05j, -0.22 + 0.4j
        point = nf.image_point([a, b])
        assert abs(point[2] - a * b) <= 1e-9

    def test_free_coordinates_of_the_wrong_width_are_rejected(self):
        nf = normal_form(triple_product_map())
        for x in ([[0.3]], [0.3], [0.3, 0.2, 0.1], 0.3):
            with pytest.raises(ValueError):
                nf.image_point(x)
        with pytest.raises(ValueError):
            nf.f_components[0].evaluate([0.3])

    @pytest.mark.parametrize("radius", [0.0, -0.5, 1.5])
    def test_radius_outside_unit_interval_is_rejected(self, radius):
        with pytest.raises(ValueError):
            normal_form(parabola_map(), radius=radius)

    def test_cubic_curve_has_two_nested_graphs(self):
        nf = normal_form(cubic_curve_map())
        assert (nf.k, nf.copy_count, nf.graph_count) == (1, 0, 2)
        assert nf.diagnostics["normal_form_residual"] <= 1e-8
        rng = np.random.default_rng(53)
        for x in 0.6 * np.exp(2j * np.pi * rng.random((20, 1))) * np.sqrt(rng.random((20, 1))):
            original = nf.conjugation.apply_inverse(nf.image_point(x))
            assert np.max(np.abs(original - np.array([x[0], x[0] ** 2, x[0] ** 3]))) <= 1e-8

    def test_image_point_rows_match_single_points(self):
        rng = np.random.default_rng(59)
        for rho in (triple_product_map(), cubic_curve_map(), duplicate_map()):
            nf = normal_form(rho)
            xs = 0.6 * (rng.uniform(-1, 1, (15, nf.k)) + 1j * rng.uniform(-1, 1, (15, nf.k))) / np.sqrt(2)
            batch = nf.image_point(xs)
            assert batch.shape == (15, nf.n)
            single = np.array([nf.image_point(x) for x in xs])
            assert single.shape == (15, nf.n)
            assert np.max(np.abs(batch - single)) <= 1e-12

    def test_image_point_columns_are_the_component_values(self):
        rng = np.random.default_rng(61)
        for rho in (triple_product_map(), cubic_curve_map()):
            nf = normal_form(rho)
            k, m = nf.k, nf.copy_count
            xs = 0.6 * (rng.uniform(-1, 1, (12, k)) + 1j * rng.uniform(-1, 1, (12, k))) / np.sqrt(2)
            image = nf.image_point(xs)
            assert np.array_equal(image[:, :k], xs)
            assert np.array_equal(image[:, k : k + m], xs[:, list(nf.e_sources)])
            for t, comp in enumerate(nf.f_components):
                assert np.array_equal(image[:, k + m + t], comp.evaluate(xs))

    @pytest.mark.parametrize("rho", [cubic_curve_map(), averaging_map(3), averaging_map(4)],
                             ids=["cubic_curve", "averaging_3", "averaging_4"])
    def test_image_point_solves_each_graph_column_once(self, monkeypatch, rho):
        # every graph column of a query comes from one joint Newton solve
        # of all the peeled coordinates, whatever the recursion depth
        nf = normal_form(rho)
        calls = []
        newton = fixedgraph._newton

        def counted(*args, **kwargs):
            calls.append(1)
            return newton(*args, **kwargs)

        monkeypatch.setattr(fixedgraph, "_newton", counted)
        nf.image_point([0.3 - 0.1j])
        assert len(calls) == 1

    @pytest.mark.parametrize("rho", [cubic_curve_map(), averaging_map(4)],
                             ids=["cubic_curve", "averaging_4"])
    def test_empty_batch_evaluates_no_map(self, monkeypatch, rho):
        nf = normal_form(rho)
        calls = []
        stack_call = multipoly._Stack.__call__

        def counted(self, points):
            calls.append(len(points))
            return stack_call(self, points)

        monkeypatch.setattr(multipoly._Stack, "__call__", counted)
        assert nf.image_point(np.zeros((0, nf.k))).shape == (0, nf.n)
        assert calls == []

    @pytest.mark.parametrize("n", [3, 4])
    def test_averaging_retract_images_are_the_diagonal(self, n):
        # the peeled graphs depend on w (dF/dw = 1/2, 1/3, ...), so the joint
        # Jacobian has off-diagonal terms; the image of x is (x, ..., x)
        nf = normal_form(averaging_map(n))
        assert (nf.k, nf.copy_count, nf.graph_count) == (1, 0, n - 1)
        assert nf.diagnostics["normal_form_residual"] <= 1e-12
        rng = np.random.default_rng(67)
        xs = 0.6 * np.sqrt(rng.random((25, 1))) * np.exp(2j * np.pi * rng.random((25, 1)))
        original = nf.conjugation.apply_inverse(nf.image_point(xs))
        assert np.max(np.abs(original - xs)) <= 1e-12
        for x, row in zip(xs, original):
            assert np.max(np.abs(nf.conjugation.apply_inverse(nf.image_point(x)) - row)) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4])
    def test_averaging_graph_derivatives_are_exact(self, n):
        # graph t (deepest first) peels a slice (a + w) / (t + 2) with a free of w
        nf = normal_form(averaging_map(n))
        derivatives = [c.provenance["source"]["max_w_derivative"] for c in nf.f_components]
        assert np.max(np.abs(np.array(derivatives) - 1.0 / np.arange(2, n + 1))) <= 1e-15

    @pytest.mark.parametrize("rho, count", [(cubic_curve_map(), 1), (averaging_map(4), 2)],
                             ids=["cubic_curve", "averaging_4"])
    def test_reduced_last_column_differentiates_exactly(self, monkeypatch, rho, count):
        # the maps of the graphs at depth >= 1 are reduced maps' last columns:
        # dF/dw by implicit differentiation matches a central difference of F
        seen = []
        original = retract.continue_graph
        monkeypatch.setattr(retract, "continue_graph",
                            lambda smap, *args, **kwargs: seen.append(smap.rational)
                            or original(smap, *args, **kwargs))
        normal_form(rho)
        assert len(seen) == count + 1
        h = 1e-6
        for column in seen[1:]:
            pts = random_polydisk(np.random.default_rng(71), 20, column.nvars, 0.6)
            f, df = column.value_and_partial(pts, column.nvars - 1)
            assert np.max(np.abs(f - column.evaluate(pts))) <= 1e-15
            up, down = pts.copy(), pts.copy()
            up[:, -1] += h
            down[:, -1] -= h
            central = (column.evaluate(up) - column.evaluate(down)) / (2 * h)
            assert np.max(np.abs(df - central)) <= 1e-8
            empty = column.value_and_partial(np.zeros((0, column.nvars)), column.nvars - 1)
            assert [a.shape for a in empty] == [(0,), (0,)]

    def test_constant_component_map(self):
        nf = normal_form(constant_second_map())
        assert (nf.k, nf.copy_count, nf.graph_count) == (1, 0, 1)
        comp = nf.f_components[0]
        assert abs(comp.evaluate([0.5]) - CONST) <= 1e-12
        assert comp.provenance["method"] == "constant"

    def test_normalized_map_fixes_first_block(self):
        nf = normal_form(twisted_copy_map())
        w = nf.normalized_map(np.array([0.3, -0.4]))
        assert abs(w[0] - 0.3) <= 1e-9
        assert abs(w[1] - 0.3) <= 1e-9

    def test_swap_is_rejected(self):
        with pytest.raises(InconsistencyError):
            normal_form(swap_map())

    def test_one_variable_square_is_rejected(self):
        rho = RetractMap(1, (MultiPoly(1, {(2,): 1.0}),))
        with pytest.raises(InconsistencyError):
            normal_form(rho)

    def test_one_variable_rigidity_cases(self):
        nf_id = normal_form(RetractMap.identity(1))
        assert (nf_id.k, nf_id.graph_count) == (1, 0)
        nf_const = normal_form(RetractMap(1, (MultiPoly(1, {(0,): CONST}),)))
        assert (nf_const.k, nf_const.graph_count) == (0, 1)
        assert abs(nf_const.image_point([])[0] - CONST) <= 1e-12

    def test_range_consistency_on_samples(self):
        rho = parabola_map()
        nf = normal_form(rho)
        pts = random_polydisk(np.random.default_rng(29), 50, 2, 0.8)
        for z in pts:
            target = rho(z)
            rebuilt = nf.image_point(target[: nf.k])
            assert np.max(np.abs(rebuilt - target)) <= 1e-7

    def test_serialization_and_determinism(self):
        first = normal_form(parabola_map())
        second = normal_form(parabola_map())
        assert canonical_dumps(first.to_json()) == canonical_dumps(second.to_json())
        payload = first.to_json()
        assert payload["k"] == 1
        assert payload["e_sources"] == []
        assert len(payload["f_components"]) == 1
        assert payload["conjugation"] == {"order": [0, 1], "moebius": [None, None]}
        assert payload["diagnostics"]["idempotence"]["passed"] is True
