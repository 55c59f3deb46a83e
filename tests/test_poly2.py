"""Tests for bivariate polynomial arithmetic, evaluation, and reflection."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aglerkit
from aglerkit.poly2 import BivariatePolynomial


CLASSIC = BivariatePolynomial(np.array([[2.0, -1.0], [-1.0, 0.0]]))  # 2 - z1 - z2


def random_poly(rng, n, m):
    c = rng.standard_normal((n + 1, m + 1)) + 1j * rng.standard_normal((n + 1, m + 1))
    return BivariatePolynomial(c)


class TestConstruction:
    def test_scalar_and_vector_inputs_are_promoted_to_grids(self):
        assert BivariatePolynomial(3.0).coeffs.shape == (1, 1)
        assert BivariatePolynomial([1.0, 2.0]).coeffs.shape == (1, 2)

    def test_nonfinite_coefficients_are_rejected(self):
        with pytest.raises(ValueError):
            BivariatePolynomial([[np.nan, 0.0]])
        with pytest.raises(ValueError):
            BivariatePolynomial([[1.0, np.inf]])

    def test_empty_grid_is_rejected(self):
        with pytest.raises(ValueError):
            BivariatePolynomial(np.zeros((0, 2)))

    def test_coefficient_grid_is_immutable(self):
        p = BivariatePolynomial([[1.0, 2.0]])
        with pytest.raises(ValueError):
            p.coeffs[0, 0] = 5.0

    def test_one_term_grid(self):
        p = BivariatePolynomial([[0.0, 0.0], [0.0, 0.0], [0.0, -3.0]])  # -3 z1^2 z2
        assert p.bidegree == (2, 1)
        assert p(0.5, 2.0) == pytest.approx(-3.0 * 0.25 * 2.0)

    def test_declared_bidegree_survives_zero_padding(self):
        one = BivariatePolynomial.constant(1.0, bidegree=(1, 1))
        assert one.bidegree == (1, 1)
        assert one.actual_bidegree() == (0, 0)


class TestEvaluation:
    def test_classic_polynomial_at_origin(self):
        assert CLASSIC(0.0, 0.0) == pytest.approx(2.0)

    def test_classic_polynomial_vanishes_at_corner(self):
        assert CLASSIC(1.0, 1.0) == pytest.approx(0.0)

    def test_padded_constant_evaluates_to_its_value(self):
        one = BivariatePolynomial.constant(1.0, bidegree=(1, 1))
        rng = np.random.default_rng(7)
        for _ in range(20):
            z1, z2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert one(z1, z2) == pytest.approx(1.0)

    def test_evaluation_broadcasts_over_arrays(self):
        z = np.linspace(-1, 1, 5)
        vals = CLASSIC(z, z)
        assert vals.shape == (5,)
        assert np.allclose(vals, 2.0 - 2.0 * z)


class TestReflection:
    def test_classic_reflection_coefficients(self):
        # 2 - z1 - z2 reflects to 2 z1 z2 - z2 - z1 at bidegree (1, 1)
        expected = np.array([[0.0, -1.0], [-1.0, 2.0]])
        assert np.allclose(CLASSIC.reflect().coeffs, expected)

    def test_constant_one_reflects_to_full_monomial(self):
        one = BivariatePolynomial.constant(1.0, bidegree=(1, 1))
        assert np.allclose(one.reflect().coeffs, [[0.0, 0.0], [0.0, 1.0]])

    def test_reflection_is_an_involution(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n, m = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            p = random_poly(rng, n, m)
            back = p.reflect().reflect()
            assert np.allclose(back.coeffs, p.coeffs)

    def test_reflection_preserves_modulus_on_torus(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            p = random_poly(rng, 3, 2)
            q = p.reflect()
            theta = rng.uniform(0, 2 * np.pi, size=(50, 2))
            z1, z2 = np.exp(1j * theta[:, 0]), np.exp(1j * theta[:, 1])
            scale = np.abs(p(z1, z2))
            assert np.max(np.abs(np.abs(q(z1, z2)) - scale)) <= 1e-12 * (1 + scale.max())

    def test_reflection_matches_inversion_formula_off_origin(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n, m = 2, 3
            p = random_poly(rng, n, m)
            q = p.reflect()
            z1 = 0.3 + 0.4j
            z2 = -0.7 + 0.2j
            direct = q(z1, z2)
            via_inversion = z1**n * z2**m * np.conj(p(1 / np.conj(z1), 1 / np.conj(z2)))
            assert direct == pytest.approx(via_inversion)

    def test_reflection_at_larger_bidegree(self):
        p = BivariatePolynomial([[1.0]])
        assert np.allclose(p.reflect((2, 1)).coeffs, [[0, 0], [0, 0], [0, 1]])

    def test_reflection_below_actual_degree_is_rejected(self):
        p = BivariatePolynomial([[0, 0, 0], [0, 0, 0], [0, 0, 1]])  # z1^2 z2^2
        with pytest.raises(ValueError):
            p.reflect((1, 1))


class TestArithmetic:
    def test_product_of_variables(self):
        z1 = BivariatePolynomial([[0], [1]])
        z2 = BivariatePolynomial([[0, 1]])
        prod = z1 * z2
        assert prod.bidegree == (1, 1)
        assert np.allclose(prod.coeffs, [[0, 0], [0, 1]])

    def test_additive_cancellation(self):
        rng = np.random.default_rng(19)
        p = random_poly(rng, 2, 2)
        zero = p + (-1.0) * p
        assert np.max(np.abs(zero.coeffs)) == 0.0

    def test_difference_of_squares(self):
        one_minus = BivariatePolynomial([[1.0], [-1.0]])
        one_plus = BivariatePolynomial([[1.0], [1.0]])
        prod = one_minus * one_plus
        assert np.allclose(prod.coeffs, [[1.0], [0.0], [-1.0]])

    def test_scalar_operations_and_subtraction(self):
        p = CLASSIC
        q = 2.0 - p  # = z1 + z2
        assert q(0.25, 0.5) == pytest.approx(0.75)
        assert np.array_equal((p - q).coeffs, [[2.0, -2.0], [-2.0, 0.0]])
        assert (p * 0.5)(0.0, 0.0) == pytest.approx(1.0)
        assert p.scale(1j)(0.0, 0.0) == pytest.approx(2j)

    def test_product_matches_pointwise_product(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            p = random_poly(rng, 2, 1)
            q = random_poly(rng, 1, 3)
            prod = p * q
            assert prod.bidegree == (3, 4)
            z1, z2 = rng.standard_normal(2) * 0.5 + 1j * rng.standard_normal(2) * 0.5
            assert prod(z1, z2) == pytest.approx(p(z1, z2) * q(z1, z2))

    @pytest.mark.parametrize("left,right", [((2, 1), (1, 3)), ((0, 4), (3, 0)), ((3, 3), (0, 0))])
    def test_product_matches_coefficient_double_sum(self, left, right):
        rng = np.random.default_rng(29)
        p, q = random_poly(rng, *left), random_poly(rng, *right)
        ref = np.zeros((left[0] + right[0] + 1, left[1] + right[1] + 1), dtype=complex)
        for (a, b), x in np.ndenumerate(p.coeffs):
            for (c, d), y in np.ndenumerate(q.coeffs):
                ref[a + c, b + d] += x * y
        # each coefficient sums at most 16 products, in another order than the reference
        bound = 64 * np.finfo(float).eps * np.abs(p.coeffs).max() * np.abs(q.coeffs).max()
        for prod in (p * q, q * p):
            assert prod.coeffs.shape == ref.shape
            assert np.max(np.abs(prod.coeffs - ref)) <= bound

    def test_unsupported_operand_type_is_rejected(self):
        with pytest.raises(TypeError):
            CLASSIC + "nope"


class TestDerivative:
    def test_first_variable_of_classic(self):
        d = CLASSIC.derivative(1)
        assert np.allclose(d.coeffs, [[-1.0, 0.0]])

    def test_second_variable_of_cross_term(self):
        p = BivariatePolynomial([[0, 0], [0, 1]])  # z1 z2
        d = p.derivative(2)
        assert np.allclose(d.coeffs, [[0.0], [1.0]])

    def test_derivative_of_constant_is_zero(self):
        c = BivariatePolynomial.constant(5.0)
        assert np.max(np.abs(c.derivative(1).coeffs)) == 0.0
        assert np.max(np.abs(c.derivative(2).coeffs)) == 0.0

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(29)
        h = 1e-6
        for _ in range(10):
            p = random_poly(rng, 3, 3)
            z1, z2 = 0.3 - 0.2j, 0.1 + 0.5j
            fd1 = (p(z1 + h, z2) - p(z1 - h, z2)) / (2 * h)
            fd2 = (p(z1, z2 + h) - p(z1, z2 - h)) / (2 * h)
            assert abs(p.derivative(1)(z1, z2) - fd1) < 1e-6
            assert abs(p.derivative(2)(z1, z2) - fd2) < 1e-6

    def test_invalid_variable_index(self):
        with pytest.raises(ValueError):
            CLASSIC.derivative(3)


class TestSerialization:
    def test_round_trip_preserves_coefficients(self):
        rng = np.random.default_rng(31)
        p = random_poly(rng, 2, 3)
        q = BivariatePolynomial.from_json(p.to_json())
        assert np.allclose(q.coeffs, p.coeffs)
        assert q.bidegree == p.bidegree

    def test_json_schema_fields(self):
        obj = CLASSIC.to_json()
        assert obj["bidegree"] == [1, 1]
        assert obj["coeffs"][0][0] == [2.0, 0.0]
        assert obj["coeffs"][1][0] == [-1.0, 0.0]

    def test_mismatched_bidegree_is_rejected(self):
        obj = CLASSIC.to_json()
        obj["bidegree"] = [2, 1]
        with pytest.raises(ValueError):
            BivariatePolynomial.from_json(obj)


class TestUtility:
    def test_padded_extends_but_never_shrinks(self):
        p = CLASSIC.padded((2, 2))
        assert p.bidegree == (2, 2)
        assert p.actual_bidegree() == (1, 0) or p.actual_bidegree() == (1, 1)
        with pytest.raises(ValueError):
            CLASSIC.padded((0, 0))

    def test_coeff_norm(self):
        p = BivariatePolynomial([[3.0, 4.0]])
        assert p.coeff_norm() == pytest.approx(5.0)


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs about a second of start-up and no code path needs it
    code = "import sys, aglerkit; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(Path(aglerkit.__file__).parents[1])})
    assert out.stdout.strip() == "False"


def test_import_leaves_every_scipy_module_unloaded():
    # the Gram solver's outer factor is numpy only, so no code path needs scipy
    code = "import sys, aglerkit; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(Path(aglerkit.__file__).parents[1])})
    assert out.stdout.strip() == "[]"
