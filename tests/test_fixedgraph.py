"""Tests for fixed points of Schur maps in the last variable and their graphs."""

import numpy as np
import pytest

from aglerkit import fixedgraph, moebius, multipoly
from aglerkit.errors import DegenerateContinuationError, InconsistencyError
from aglerkit.fixedgraph import (
    CLASS_AUTOMORPHISM,
    CLASS_BOUNDARY,
    CLASS_INTERIOR,
    FixedPointRecord,
    GraphFunction,
    SchurMap,
    continue_graph,
    find_fixed_w,
)
from aglerkit.multipoly import MultiPoly, RationalMap
from aglerkit.pick import pick_matrix
from aglerkit.sampling import disk_points, random_polydisk
from aglerkit.serialize import canonical_dumps


def product_average_map():
    # F(z1, z2, w) = (z1 z2 + w) / 2, graph w = z1 z2
    num = MultiPoly(3, {(1, 1, 0): 0.5, (0, 0, 1): 0.5})
    return SchurMap(2, rational=RationalMap(num))


def identity_in_w_map():
    # F(z, w) = w for every z
    num = MultiPoly(2, {(0, 1): 1.0})
    return SchurMap(1, rational=RationalMap(num))


def scaling_map():
    # F(z, w) = z w, graph w = 0
    num = MultiPoly(2, {(1, 1): 1.0})
    return SchurMap(1, rational=RationalMap(num))


def quadratic_constant_map():
    # F(z, w) = (1 + w^2) / 4, independent of z; fixed points 2 +- sqrt(3)
    num = MultiPoly(2, {(0, 0): 0.25, (0, 2): 0.25})
    return SchurMap(1, rational=RationalMap(num))


def boundary_attractor_map():
    # F(z, w) = (1 + w) / 2, whose only fixed point is w = 1 on the circle
    num = MultiPoly(2, {(0, 0): 0.5, (0, 1): 0.5})
    return SchurMap(1, rational=RationalMap(num))


def nonlinear_rational_map():
    # F = (0.3 z1 + 0.2 z2 + w^2 + 0.1 z1 w) / (2 - 0.5 z1 z2 w), |F| <= 0.8
    num = MultiPoly(3, {(1, 0, 0): 0.3, (0, 1, 0): 0.2, (0, 0, 2): 1.0, (1, 0, 1): 0.1})
    den = MultiPoly(3, {(0, 0, 0): 2.0, (1, 1, 1): -0.5})
    return RationalMap(num, den)


def elliptic_slice_map():
    # F(z, w) = -w: every slice fixes 0 with |dF/dw| = 1, a disk automorphism
    return SchurMap(1, rational=RationalMap(MultiPoly(2, {(0, 1): -1.0})))


def w_map(terms):
    # F(z, w) = sum of c w^p over the terms {(0, p): c}, the same on every slice
    return SchurMap(1, rational=RationalMap(MultiPoly(2, terms)))


def escaping_graph_map():
    # F(z, w) = (z + w + z w) / 2, fixed point z / (1 - z); it leaves the
    # disk where Re z > 1/2
    num = MultiPoly(2, {(1, 0): 0.5, (0, 1): 0.5, (1, 1): 0.5})
    return SchurMap(1, rational=RationalMap(num))


def random_average_map(rng, nvars=2, max_power=2, bound=0.8):
    """F(z, w) = (f0(z) + w) / 2 for a random polynomial with coeff sum <= bound."""
    exponents = [
        (a, b)
        for a in range(max_power + 1)
        for b in range(max_power + 1)
        if (a, b) != (0, 0)
    ]
    raw = rng.uniform(-1, 1, len(exponents)) + 1j * rng.uniform(-1, 1, len(exponents))
    raw = raw * (bound / np.sum(np.abs(raw)))
    f0 = MultiPoly(nvars, dict(zip(exponents, raw)))
    terms = {expo + (0,): 0.5 * coef for expo, coef in f0.terms.items()}
    terms[(0,) * nvars + (1,)] = 0.5
    smap = SchurMap(nvars, rational=RationalMap(MultiPoly(nvars + 1, terms)))
    return smap, f0


def graph_at(smap, record, points):
    """continue_graph(smap, record) evaluated at the points, and |F - w| there."""
    points = np.asarray(points, dtype=complex)
    values = continue_graph(smap, record).evaluate(points)
    return values, np.abs(smap._rows(points, values) - values)


class TestSchurMap:
    def test_rational_evaluation_matches_formula(self):
        smap = product_average_map()
        z = np.array([0.3 + 0.1j, -0.2 + 0.4j])
        w = 0.25 - 0.15j
        assert abs(smap(z, w) - (z[0] * z[1] + w) / 2) <= 1e-15

    def test_vectorized_w_keeps_shape(self):
        smap = product_average_map()
        z = np.array([0.5, 0.5])
        ws = np.array([0.1, -0.2j, 0.3 + 0.3j])
        values = smap(z, ws)
        assert values.shape == (3,)
        assert np.max(np.abs(values - (0.25 + ws) / 2)) <= 1e-15

    def test_rational_partials_are_exact(self):
        smap = product_average_map()
        z = np.array([0.3 + 0.1j, -0.2 + 0.4j])
        w = 0.25 - 0.15j
        assert abs(smap.partial_w(z, w) - 0.5) <= 1e-15

    @pytest.mark.parametrize("make", [product_average_map, lambda: SchurMap(2, rational=nonlinear_rational_map())])
    def test_each_newton_iteration_evaluates_the_map_once(self, monkeypatch, make):
        # one table per iteration gives F and dF/dw together
        smap = make()
        calls = []
        stack_call = multipoly._Stack.__call__

        def counted(self, points):
            calls.append(len(points))
            return stack_call(self, points)

        monkeypatch.setattr(multipoly._Stack, "__call__", counted)
        zs = random_polydisk(np.random.default_rng(5), 6, 2, 0.8)
        _, iterations, converged, _, _ = fixedgraph._newton(smap, zs, np.zeros(6))
        assert converged.all()
        assert len(calls) == iterations.max()

    def test_rows_with_dw_are_one_table_of_four_polynomials(self, monkeypatch):
        # F and dF/dw come from num, den, d num/dw and d den/dw alone
        smap = SchurMap(2, rational=nonlinear_rational_map())
        widths = []
        stack_call = multipoly._Stack.__call__

        def counted(self, points):
            widths.append(self._coef.shape[1])
            return stack_call(self, points)

        monkeypatch.setattr(multipoly._Stack, "__call__", counted)
        zs = random_polydisk(np.random.default_rng(3), 5, 2, 0.8)
        f, df = smap._rows(zs, np.linspace(-0.5, 0.5, 5), dw=True)
        assert widths == [4] and f.shape == df.shape == (5,)

    def test_zero_rows_return_at_once_without_evaluating(self, monkeypatch):
        smap = product_average_map()
        calls = []
        stack_call = multipoly._Stack.__call__

        def counted(self, points):
            calls.append(len(points))
            return stack_call(self, points)

        monkeypatch.setattr(multipoly._Stack, "__call__", counted)
        values, iterations, converged, f, df = fixedgraph._newton(smap, np.zeros((0, 2)), np.zeros(0))
        assert (values.shape, iterations.shape, converged.shape) == ((0,), (0,), (0,))
        assert (f.shape, df.shape) == ((0,), (0,))
        assert calls == []

    def test_joint_unknowns_take_one_newton_step_on_a_linear_system(self):
        # w = A w + b(z) with A = [[0.2, 0.3], [0.1, 0.4]]: one step from any
        # start lands on the solution, whose Jacobian has off-diagonal terms
        A = np.array([[0.2, 0.3], [0.1, 0.4]])

        class Pair:
            n = 1

            def _rows(self, Z, W, dw=False):
                F = W @ A.T + Z * np.array([0.5, -0.25])
                return (F, np.broadcast_to(A, (len(W), 2, 2))) if dw else F

        zs = np.array([[0.3 + 0.1j], [-0.2j], [0.5]])
        values, iterations, converged, f, df = fixedgraph._newton(Pair(), zs, np.zeros((3, 2)))
        exact = np.linalg.solve(np.eye(2) - A, (zs * np.array([0.5, -0.25])).T).T
        assert converged.all() and (iterations == 2).all()
        assert np.max(np.abs(values - exact)) <= 1e-15
        # F and dF/dw come back as evaluated at the returned values
        assert np.array_equal(f, Pair()._rows(zs, values)) and np.array_equal(df, np.broadcast_to(A, (3, 2, 2)))

    def test_a_row_with_no_newton_step_stops_unconverged(self):
        # F = w^2 + 0.3 at w = 0.5: dF/dw = 1, so G = F - w = 0.05 has no step
        _, iterations, converged, _, _ = fixedgraph._newton(w_map({(0, 2): 1.0, (0, 0): 0.3}),
                                                            np.zeros((1, 1)), [0.5])
        assert iterations.tolist() == [1] and converged.tolist() == [False]

    def test_one_unknown_as_a_column_runs_the_flat_rows(self):
        # (N, 1) unknowns take the one-unknown step and keep their shape
        smap = SchurMap(2, rational=nonlinear_rational_map())
        zs = random_polydisk(np.random.default_rng(9), 8, 2, 0.8)
        flat = fixedgraph._newton(smap, zs, np.zeros(8))
        column = fixedgraph._newton(smap, zs, np.zeros((8, 1)))
        assert column[0].shape == (8, 1)
        assert np.array_equal(column[0][:, 0], flat[0])
        assert np.array_equal(column[1], flat[1]) and column[2].all()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SchurMap(0, rational=RationalMap(MultiPoly(1, {(1,): 1.0})))
        num = MultiPoly(3, {(0, 0, 1): 1.0})
        with pytest.raises(ValueError):
            SchurMap(1, rational=RationalMap(num))
        with pytest.raises(TypeError):
            SchurMap(1, evaluate=RationalMap(MultiPoly(2, {(0, 1): 0.5})).evaluate)
        with pytest.raises(TypeError):  # refused at once, not at the first Newton step
            SchurMap(1, rational=MultiPoly(2, {(0, 1): 0.5}))

    def test_check_schur_passes_for_average_map(self):
        report = product_average_map().check_schur()
        assert report["passed"] is True
        assert report["max_modulus"] <= 1.0
        assert report["samples"] == 200

    def test_check_schur_flags_expanding_map(self):
        smap = w_map({(0, 1): 2.0})
        report = smap.check_schur()
        assert report["passed"] is False
        assert report["max_modulus"] > 1.5
        assert "witness" in report

    def test_check_schur_needs_a_sample(self):
        with pytest.raises(ValueError):
            product_average_map().check_schur(samples=0)

    def test_serialization_round_trip(self):
        smap = product_average_map()
        clone = SchurMap.from_json(smap.to_json())
        assert canonical_dumps(clone.to_json()) == canonical_dumps(smap.to_json())
        z = np.array([0.4, -0.3j])
        assert abs(clone(z, 0.2) - smap(z, 0.2)) <= 1e-15


class TestFindFixedW:
    def test_product_average_fixed_point(self):
        records = find_fixed_w(product_average_map(), [0.5, 0.5])
        assert len(records) == 1
        rec = records[0]
        assert abs(rec.w - 0.25) <= 1e-10
        assert abs(rec.derivative - 0.5) <= 1e-12
        assert rec.classification == CLASS_INTERIOR
        assert rec.residual <= 1e-12

    def test_identity_in_w_fixes_every_seed(self):
        records = find_fixed_w(identity_in_w_map(), [0.3])
        assert len(records) >= 2
        assert all(r.classification == CLASS_AUTOMORPHISM for r in records)
        assert all(abs(r.derivative - 1.0) <= 1e-12 for r in records)

    def test_scaling_map_fixed_point_at_zero(self):
        records = find_fixed_w(scaling_map(), [0.5])
        assert len(records) == 1
        rec = records[0]
        assert abs(rec.w) <= 1e-12
        assert abs(rec.derivative - 0.5) <= 1e-12
        assert rec.classification == CLASS_INTERIOR

    def test_quadratic_constant_slice(self):
        records = find_fixed_w(quadratic_constant_map(), [0.1])
        assert len(records) == 1
        rec = records[0]
        target = 2.0 - np.sqrt(3.0)
        assert abs(rec.w - target) <= 1e-10
        assert abs(rec.derivative - target / 2.0) <= 1e-10
        assert rec.classification == CLASS_INTERIOR

    def test_boundary_attractor_yields_no_interior_point(self):
        records = find_fixed_w(boundary_attractor_map(), [0.2])
        assert all(r.classification == CLASS_BOUNDARY for r in records)
        for rec in records:
            assert abs(rec.w - 1.0) <= 1e-6

    def test_seeds_converging_together_are_deduplicated(self):
        records = find_fixed_w(
            product_average_map(), [0.5, 0.5], seeds=[0.0, 0.1, 0.2, 0.5j]
        )
        assert len(records) == 1

    def test_an_unconverged_seed_is_skipped(self):
        assert find_fixed_w(w_map({(0, 2): 1.0, (0, 0): 0.3}), [0.0], seeds=[0.5]) == []

    def test_derivative_above_one_raises(self):
        # 2 w^2 fixes w = 1/2 with slope 2, impossible for a disk self-map
        smap = w_map({(0, 2): 2.0})
        with pytest.raises(InconsistencyError):
            find_fixed_w(smap, [0.0])

    def test_two_interior_fixed_points_raise(self):
        # w (1.36 - w^2) fixes -0.6, 0, 0.6 with slope 0.28 at the outer pair
        smap = w_map({(0, 1): 1.36, (0, 3): -1.0})
        with pytest.raises(InconsistencyError):
            find_fixed_w(smap, [0.0], seeds=[-0.6, 0.6])

    def test_derivative_bound_holds_on_random_slices(self):
        rng = np.random.default_rng(404)
        smap, _ = random_average_map(rng)
        for z in random_polydisk(rng, 10, 2, 0.8):
            for rec in find_fixed_w(smap, z):
                assert abs(rec.derivative) <= 1.0 + 1e-8
                assert rec.residual <= 1e-11


class TestLocalGraph:
    """Graph values at points off the grid, from continue_graph and GraphFunction.evaluate."""

    def test_product_average_recovers_product(self):
        smap = product_average_map()
        record = find_fixed_w(smap, [0.0, 0.0])[0]
        rng = np.random.default_rng(71)
        points = random_polydisk(rng, 30, 2, 0.8)
        values, residuals = graph_at(smap, record, points)
        assert np.max(np.abs(values - points[:, 0] * points[:, 1])) <= 1e-10
        assert np.max(residuals) <= 1e-12

    def test_scaling_map_graph_is_zero(self):
        smap = scaling_map()
        record = find_fixed_w(smap, [0.5])[0]
        points = np.linspace(-0.8, 0.8, 9).reshape(-1, 1).astype(complex)
        values, residuals = graph_at(smap, record, points)
        assert np.max(np.abs(values)) <= 1e-12
        assert np.max(residuals) <= 1e-12

    def test_random_average_recovers_f0(self):
        rng = np.random.default_rng(505)
        smap, f0 = random_average_map(rng)
        record = find_fixed_w(smap, [0.0, 0.0])[0]
        points = random_polydisk(rng, 25, 2, 0.85)
        values, _ = graph_at(smap, record, points)
        assert np.max(np.abs(values - f0.evaluate(points))) <= 1e-10

    def test_an_empty_grid_has_residual_zero(self):
        empty = np.zeros(0)
        assert GraphFunction(axes=(empty,), values=empty, residuals=empty, evaluator=None).max_residual == 0.0

    def test_requires_interior_record(self):
        smap = identity_in_w_map()
        record = find_fixed_w(smap, [0.2])[0]
        with pytest.raises(InconsistencyError):
            graph_at(smap, record, [[0.1]])

    def test_grid_is_output_only(self):
        # every point is solved from the anchor value, so a graph whose
        # stored grid is overwritten evaluates to the same values
        smap = SchurMap(2, rational=nonlinear_rational_map())
        graph = continue_graph(smap, find_fixed_w(smap, [0.0, 0.0])[0], radius=0.85, grid=7)
        points = random_polydisk(np.random.default_rng(73), 20, 2, 0.85)
        before = graph.evaluate(points)
        graph.values[...] = np.nan
        assert np.array_equal(graph.evaluate(points), before)

    @pytest.mark.parametrize("point", [[0.1], [0.1, 0.2, 0.3], [[0.1, 0.2, 0.3]]])
    def test_points_of_the_wrong_width_are_rejected(self, point):
        smap = product_average_map()
        graph = continue_graph(smap, find_fixed_w(smap, [0.0, 0.0])[0], grid=5)
        with pytest.raises(ValueError, match="point dimension does not match the graph axes"):
            graph.evaluate(point)

    def test_matches_continue_graph_at_grid_points(self):
        smap = SchurMap(2, rational=nonlinear_rational_map())
        record = find_fixed_w(smap, [0.0, 0.0])[0]
        graph = continue_graph(smap, record, radius=0.85, grid=7)
        nodes = np.stack(np.meshgrid(*graph.axes, indexing="ij"), axis=-1).reshape(-1, 2)
        values = graph.evaluate(nodes)
        assert np.max(np.abs(values - graph.values.ravel())) <= 1e-14
        assert np.max(np.abs(smap._rows(nodes, values) - values)) <= 1e-12

    def test_degenerate_anchor_raises_with_location(self):
        # d/dw of (z + w + z w)/2 is (1 + z)/2, equal to 1 at z = 1
        smap = escaping_graph_map()
        record = FixedPointRecord(
            z=(1.0 - 1e-9,),
            w=0.5,
            derivative=0.5,
            classification=CLASS_INTERIOR,
            residual=0.0,
            iterations=1,
        )
        with pytest.raises(InconsistencyError):
            graph_at(smap, record, [[0.4]])


class TestContinueGraph:
    def test_product_average_full_grid(self):
        smap = product_average_map()
        record = find_fixed_w(smap, [0.0, 0.0])[0]
        graph = continue_graph(smap, record, radius=0.9, grid=20)
        assert graph.values.shape == (20, 20)
        target = graph.axes[0][:, None] * graph.axes[1][None, :]
        assert np.max(np.abs(graph.values - target)) <= 1e-9
        assert graph.max_residual <= 1e-9
        assert graph.provenance["slice_pick_min_eig"] >= -1e-9
        assert graph.provenance["max_w_derivative"] <= 1.0 + 1e-8
        assert graph.provenance["max_value_modulus"] < 1.0

    def test_scaling_map_graph_is_zero_everywhere(self):
        smap = scaling_map()
        record = find_fixed_w(smap, [0.5])[0]
        graph = continue_graph(smap, record, radius=0.9, grid=10)
        assert np.max(np.abs(graph.values)) <= 1e-12
        assert graph.max_residual <= 1e-12

    def test_quadratic_constant_graph(self):
        smap = quadratic_constant_map()
        record = find_fixed_w(smap, [0.0])[0]
        graph = continue_graph(smap, record, radius=0.8, grid=8)
        target = 2.0 - np.sqrt(3.0)
        assert np.max(np.abs(graph.values - target)) <= 1e-10

    def test_random_average_matches_f0_on_and_off_grid(self):
        rng = np.random.default_rng(606)
        smap, f0 = random_average_map(rng)
        record = find_fixed_w(smap, [0.0, 0.0])[0]
        graph = continue_graph(smap, record, radius=0.8, grid=10)
        zz = np.stack(np.meshgrid(graph.axes[0], graph.axes[1], indexing="ij"), axis=-1)
        assert np.max(np.abs(graph.values - f0.evaluate(zz))) <= 1e-10
        probe = np.array([0.33 + 0.21j, -0.4 + 0.05j])
        assert abs(graph.evaluate(probe) - complex(f0.evaluate(probe))) <= 1e-10

    def test_evaluate_rows_match_single_points(self):
        smap, _ = random_average_map(np.random.default_rng(606))
        graph = continue_graph(smap, find_fixed_w(smap, [0.0, 0.0])[0], radius=0.8, grid=10)
        rows = random_polydisk(np.random.default_rng(61), 25, 2, 0.85)
        batch = graph.evaluate(rows)
        assert batch.shape == (25,)
        single = [graph.evaluate(z) for z in rows]
        assert all(isinstance(v, complex) for v in single)
        assert np.max(np.abs(batch - np.array(single))) <= 1e-12

    def test_evaluate_solves_at_the_graph_tolerance(self, monkeypatch):
        smap = product_average_map()
        graph = continue_graph(smap, find_fixed_w(smap, [0.0, 0.0])[0], grid=6, tol=1e-10)
        seen = []
        newton = fixedgraph._newton

        def spy(smap, Z, W, tol=1e-12, max_iter=50):
            seen.append(tol)
            return newton(smap, Z, W, tol, max_iter)

        monkeypatch.setattr(fixedgraph, "_newton", spy)
        assert abs(graph.evaluate([0.3, -0.2j]) - 0.3 * -0.2j) <= 1e-10
        assert seen == [1e-10]

    def test_node_whose_fixed_point_leaves_the_disk_raises_with_location(self):
        smap = escaping_graph_map()
        record = find_fixed_w(smap, [0.0])[0]
        assert record.classification == CLASS_INTERIOR
        with pytest.raises(DegenerateContinuationError) as excinfo:
            continue_graph(smap, record, radius=0.9, grid=12)
        location = excinfo.value.location
        assert location is not None
        assert location[0].real > 0.5

    def test_identity_slice_is_refused(self):
        smap = identity_in_w_map()
        record = find_fixed_w(smap, [0.2])[0]
        # the record itself is not interior
        with pytest.raises(InconsistencyError):
            continue_graph(smap, record)
        # and even an interior-labeled record fails the anchor test, |dF/dw| = 1
        forged = FixedPointRecord(
            z=(0.2,),
            w=0.1,
            derivative=1.0,
            classification=CLASS_INTERIOR,
            residual=0.0,
            iterations=1,
        )
        with pytest.raises(InconsistencyError):
            continue_graph(smap, forged)

    @pytest.mark.parametrize("radius", [0.0, -0.5, 1.5, float("nan")])
    def test_radius_outside_unit_interval_is_rejected(self, radius):
        smap = product_average_map()
        record = find_fixed_w(smap, [0.0, 0.0])[0]
        with pytest.raises(ValueError):
            continue_graph(smap, record, radius=radius, grid=4)

    def test_unit_radius_is_accepted(self):
        smap = product_average_map()
        graph = continue_graph(smap, find_fixed_w(smap, [0.0, 0.0])[0], radius=1.0, grid=4)
        assert graph.provenance["radius"] == 1.0

    def test_reruns_are_byte_identical(self):
        smap = product_average_map()
        record = find_fixed_w(smap, [0.0, 0.0])[0]
        g1 = continue_graph(smap, record, radius=0.8, grid=6)
        g2 = continue_graph(smap, record, radius=0.8, grid=6)
        assert np.array_equal(g1.values, g2.values)
        assert canonical_dumps(g1.to_json()) == canonical_dumps(g2.to_json())

    @pytest.mark.parametrize("make", [
        lambda: random_average_map(np.random.default_rng(808))[0],
        lambda: SchurMap(2, rational=nonlinear_rational_map()),
    ], ids=["average", "nonlinear"])
    def test_map_is_evaluated_once_per_newton_iteration_and_twice_more(self, monkeypatch, make):
        # the anchor test, each Newton iteration (whose last F and dF/dw give the
        # residuals and derivative bound) and one Pick batch
        smap = make()
        record = find_fixed_w(smap, [0.0, 0.0])[0]
        axis = disk_points(9, 0.9)
        nodes = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        _, iterations, ok, f, df = fixedgraph._newton(smap, nodes, np.full(len(nodes), record.w))
        calls = []
        rows = SchurMap._rows

        def counted(self, Z, W, dw=False):
            calls.append(len(W))
            return rows(self, Z, W, dw)

        monkeypatch.setattr(SchurMap, "_rows", counted)
        graph = continue_graph(smap, record, radius=0.9, grid=9)
        assert ok.all() and len(calls) == iterations.max() + 2
        assert calls[0] == 1 and calls[-1] == 5 * 8
        assert graph.provenance["max_w_derivative"] == float(np.max(np.abs(df)))
        assert np.array_equal(graph.residuals.ravel(), np.abs(f - graph.values.ravel()))

    @pytest.mark.parametrize("seed", range(6))
    def test_stacked_pick_minimum_is_the_per_slice_loop(self, seed):
        # graph_grid's maps: (f0(z) + w) / 2, grids 20 and 40
        smap, _ = random_average_map(np.random.default_rng(seed), bound=0.9)
        record = find_fixed_w(smap, [0.0, 0.0])[0]
        for grid in (20, 40):
            graph = continue_graph(smap, record, radius=0.9, grid=grid)
            axis = disk_points(grid, 0.9)
            nodes = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
            picked = np.random.default_rng(1914).choice(len(nodes), size=4, replace=False)
            w_nodes = disk_points(8, 0.7)
            bases = np.vstack([np.zeros(2), nodes[picked]])
            loop = min(float(np.linalg.eigh(pick_matrix(w_nodes, targets))[0][0])
                       for targets in fixedgraph._slices(smap, bases, w_nodes))
            assert graph.provenance["slice_pick_min_eig"] == loop

    def test_provenance_and_serialization(self):
        smap = scaling_map()
        record = find_fixed_w(smap, [0.3])[0]
        graph = continue_graph(smap, record, radius=0.7, grid=5, seed=99)
        prov = graph.provenance
        for key in (
            "method",
            "radius",
            "grid",
            "anchor_z",
            "anchor_w",
            "max_w_derivative",
            "max_residual",
            "slice_pick_min_eig",
            "seed",
            "tol",
        ):
            assert key in prov
        assert prov["method"] == "continuation"
        assert prov["seed"] == 99
        payload = graph.to_json()
        assert len(payload["axes"]) == 1
        assert len(payload["values"]) == 5
        assert len(payload["residuals"]) == 5


class TestGraphAnchor:
    """continue_graph tests the anchor once, on the map, by find_fixed_w's interior rule."""

    @pytest.mark.parametrize(
        "smap",
        [product_average_map(), SchurMap(2, rational=nonlinear_rational_map())],
        ids=["product_average", "nonlinear"],
    )
    def test_graphs_fit_no_moebius_map(self, monkeypatch, smap):
        record = find_fixed_w(smap, [0.0, 0.0])[0]
        calls = []
        monkeypatch.setattr(moebius, "detect_automorphism", lambda *args, **kw: calls.append(args))
        graph = continue_graph(smap, record, radius=0.8, grid=5)
        z = np.array([0.1, 0.2j])
        value = graph.evaluate(z)
        assert graph.max_residual <= 1e-12
        assert abs(smap(z, value) - value) <= 1e-12
        assert calls == []

    @staticmethod
    def refused_records():
        forged = FixedPointRecord(
            z=(0.3,), w=0.0, derivative=-1.0, classification=CLASS_INTERIOR,
            residual=0.0, iterations=1,
        )
        (automorphism,) = find_fixed_w(elliptic_slice_map(), [0.3])
        (boundary,) = find_fixed_w(boundary_attractor_map(), [0.2])
        assert automorphism.classification == CLASS_AUTOMORPHISM
        assert boundary.classification == CLASS_BOUNDARY
        return [
            (elliptic_slice_map(), forged),
            (elliptic_slice_map(), automorphism),
            (boundary_attractor_map(), boundary),
        ]

    @pytest.mark.parametrize("case", [0, 1, 2], ids=["forged_interior", "automorphism", "boundary"])
    def test_refused_anchor_raises_inconsistency(self, case):
        smap, record = self.refused_records()[case]
        with pytest.raises(InconsistencyError):
            continue_graph(smap, record, grid=4)

