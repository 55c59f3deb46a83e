"""Tests for Nevanlinna-Pick interpolation on the disk."""

import numpy as np
import pytest

from aglerkit.errors import NotSolvableError
from aglerkit.pick import (
    NOT_SOLVABLE,
    SOLVABLE,
    SOLVABLE_UNIQUE,
    PickProblem,
    # SchurInterpolant imported below through solve results
    is_solvable,
    pick_matrix,
    solve,
)
from aglerkit.pick import SchurInterpolant


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


class TestPickMatrix:
    def test_single_zero_node(self):
        assert np.allclose(pick_matrix([0.0], [0.0]), [[1.0]])

    def test_identity_data_gives_all_ones(self):
        mat = pick_matrix([0.0, 0.5], [0.0, 0.5])
        assert np.allclose(mat, np.ones((2, 2)))
        w = np.linalg.eigvalsh(mat)
        assert np.allclose(w, [0.0, 2.0])

    def test_swapped_data_is_singular(self):
        mat = pick_matrix([0.0, 0.5], [0.5, 0.0])
        assert np.allclose(mat, [[0.75, 1.0], [1.0, 4.0 / 3.0]])
        assert abs(np.linalg.det(mat)) <= 1e-12

    def test_matrix_is_hermitian_for_complex_data(self):
        rng = np.random.default_rng(301)
        nodes = 0.7 * (rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)) / np.sqrt(2)
        targets = 0.7 * (rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)) / np.sqrt(2)
        mat = pick_matrix(nodes, targets)
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-14


class TestSolvability:
    def test_identity_data_is_uniquely_solvable(self):
        verdict, min_eig = is_solvable(PickProblem([0.0, 0.5], [0.0, 0.5]))
        assert verdict == SOLVABLE_UNIQUE
        assert abs(min_eig) <= 1e-9

    def test_schwarz_violation_is_not_solvable(self):
        # the Schwarz lemma forces |f(1/2)| <= 1/2 when f(0) = 0
        verdict, min_eig = is_solvable(PickProblem([0.0, 0.5], [0.0, 0.9]))
        assert verdict == NOT_SOLVABLE
        assert min_eig < -1e-9

    def test_single_interior_target_is_solvable(self):
        verdict, min_eig = is_solvable(PickProblem([0.0], [0.3]))
        assert verdict == SOLVABLE
        assert min_eig > 0

    def test_samples_of_schur_functions_are_solvable(self):
        rng = np.random.default_rng(303)
        for _ in range(25):
            f = random_blaschke(rng, int(rng.integers(1, 4)))
            count = int(rng.integers(2, 7))
            nodes = 0.65 * (rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count)) / np.sqrt(2)
            problem = PickProblem(nodes, f(nodes))
            mat = pick_matrix(problem.nodes, problem.targets)
            assert np.linalg.eigvalsh(mat)[0] >= -1e-10
            verdict, _ = is_solvable(problem)
            assert verdict in (SOLVABLE, SOLVABLE_UNIQUE)

    def test_moebius_invariance_of_verdict(self):
        # composing nodes and targets with disk automorphisms rescales the
        # Pick matrix by a diagonal congruence, preserving the verdict
        rng = np.random.default_rng(305)
        for _ in range(10):
            nodes = 0.6 * (rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)) / np.sqrt(2)
            targets = 0.8 * (rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)) / np.sqrt(2)
            a = 0.4 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
            b = 0.4 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
            moved_nodes = (nodes - a) / (1 - np.conj(a) * nodes)
            moved_targets = (targets - b) / (1 - np.conj(b) * targets)
            v1, _ = is_solvable(PickProblem(nodes, targets))
            v2, _ = is_solvable(PickProblem(moved_nodes, moved_targets))
            assert v1 == v2


class TestSolve:
    def test_unique_case_returns_the_identity(self):
        interp = solve(PickProblem([0.0, 0.5], [0.0, 0.5]))
        rng = np.random.default_rng(307)
        for _ in range(10):
            z = 0.8 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / np.sqrt(2)
            assert interp(z) == pytest.approx(z, abs=1e-10)

    def test_swap_case_returns_the_blaschke_factor(self):
        interp = solve(PickProblem([0.0, 0.5], [0.5, 0.0]))
        assert interp(0.0) == pytest.approx(0.5)
        assert interp(0.5) == pytest.approx(0.0, abs=1e-12)
        rng = np.random.default_rng(309)
        for _ in range(10):
            z = 0.8 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / np.sqrt(2)
            assert interp(z) == pytest.approx((0.5 - z) / (1 - 0.5 * z), abs=1e-10)

    def test_single_zero_target_admits_zero_function(self):
        interp = solve(PickProblem([0.0], [0.0]))
        assert interp(0.0) == pytest.approx(0.0)
        assert abs(interp(0.37 + 0.2j)) <= 1.0

    def test_interpolant_is_schur_class(self):
        interp = solve(PickProblem([0.0, 0.5], [0.5, 0.0]))
        rng = np.random.default_rng(311)
        pts = rng.uniform(-1, 1, (1000, 2))
        z = 0.999 * (pts[:, 0] + 1j * pts[:, 1]) / np.sqrt(2)
        assert np.max(np.abs(interp(z))) <= 1.0 + 1e-10

    def test_round_trip_against_random_blaschke_samples(self):
        rng = np.random.default_rng(313)
        for _ in range(20):
            f = random_blaschke(rng, int(rng.integers(1, 4)))
            nodes = 0.6 * (rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)) / np.sqrt(2)
            targets = f(nodes)
            interp = solve(PickProblem(nodes, targets))
            defect = np.max(np.abs(interp(nodes) - targets))
            assert defect <= 1e-8

    def test_not_solvable_data_raises(self):
        with pytest.raises(NotSolvableError):
            solve(PickProblem([0.0, 0.5], [0.0, 0.9]))

    def test_unimodular_degenerate_reduction(self):
        # f(0) = 0.5, f(0.3) chosen so the reduced target is unimodular:
        # the recursion must terminate with a constant rather than divide
        lam, par = 0.0, 0.5
        mu = 0.3
        # choose w with (w - par)/(1 - conj(par) w) = b(mu) exactly
        b_mu = (mu - lam) / (1 - np.conj(lam) * mu)
        w = (par + b_mu) / (1 + np.conj(par) * b_mu)
        interp = solve(PickProblem([lam, mu], [par, w]))
        assert interp(lam) == pytest.approx(par)
        assert interp(mu) == pytest.approx(w)

    def test_interpolant_serialization_round_trip(self):
        interp = solve(PickProblem([0.0, 0.5], [0.5, 0.0]))
        back = SchurInterpolant.from_json(interp.to_json())
        rng = np.random.default_rng(315)
        for _ in range(10):
            z = 0.7 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / np.sqrt(2)
            assert back(z) == pytest.approx(interp(z))

    def test_degree_counts_reduction_stages(self):
        # the singular swap problem bottoms out on a unimodular constant
        # after a single stage; a strictly solvable problem uses both
        swap = solve(PickProblem([0.0, 0.5], [0.5, 0.0]))
        assert swap.degree == 1
        assert abs(abs(swap.terminal) - 1.0) <= 1e-12
        generic = solve(PickProblem([0.0, 0.5], [0.1, 0.2]))
        assert generic.degree == 2
        assert generic.terminal == 0.0


class TestProblemValidation:
    def test_duplicate_nodes_are_rejected(self):
        with pytest.raises(ValueError):
            PickProblem([0.3, 0.3], [0.1, 0.2])

    def test_nodes_outside_disk_are_rejected(self):
        with pytest.raises(ValueError):
            PickProblem([1.0], [0.0])

    def test_mismatched_lengths_are_rejected(self):
        with pytest.raises(ValueError):
            PickProblem([0.0, 0.5], [0.1])

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
    def test_tol_not_finite_and_positive_is_rejected(self, tol):
        with pytest.raises(ValueError):
            PickProblem([0.0, 0.5], [0.1, 0.2], tol=tol)
        with pytest.raises(ValueError):
            PickProblem.from_json({"nodes": [[0.0, 0.0]], "targets": [[0.1, 0.0]], "tol": tol})

    def test_json_round_trip(self):
        problem = PickProblem([0.0, 0.5j], [0.2, -0.1 + 0.4j], tol=1e-8)
        back = PickProblem.from_json(problem.to_json())
        assert np.allclose(back.nodes, problem.nodes)
        assert np.allclose(back.targets, problem.targets)
        assert back.tol == problem.tol
