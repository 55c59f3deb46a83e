"""Tests for the sum-of-squares Gram certificate solver.

The hand-checked feasible point for 2 - z1 - z2 comes first: every later
test trusts the solver only because this identity was verified by direct
coefficient expansion.
"""

import numpy as np
import pytest

from aglerkit.errors import InfeasibleError
from aglerkit.poly2 import BivariatePolynomial
from aglerkit.serialize import canonical_dumps
from aglerkit.sos import (
    SosCertificate,
    build_constraints,
    factors_from_gram,
    gram_from_factors,
    gram_pair_tensor,
    herm_to_vec,
    solve_gram,
    sos_residual,
    sos_target_tensor,
    symmetrize,
    vec_to_herm,
)

CLASSIC = BivariatePolynomial([[2.0, -1.0], [-1.0, 0.0]])  # 2 - z1 - z2
SQRT2 = np.sqrt(2.0)

# hand feasible point for the classic polynomial
HAND_A = BivariatePolynomial([[SQRT2, -SQRT2]])  # sqrt(2) (1 - z2), basis degrees (0, 1)
HAND_B = BivariatePolynomial([[SQRT2], [-SQRT2]])  # sqrt(2) (1 - z1), basis degrees (1, 0)


class TestHandOracle:
    """Frozen ground truth established before the solver existed."""

    def test_hand_factor_pair_satisfies_the_coefficient_identity(self):
        assert sos_residual(CLASSIC, [HAND_A], [HAND_B]) <= 1e-12

    def test_hand_gram_matrices(self):
        g_a = gram_from_factors([HAND_A], 0, 1)
        g_b = gram_from_factors([HAND_B], 1, 0)
        assert np.allclose(g_a, [[2.0, -2.0], [-2.0, 2.0]])
        assert np.allclose(g_b, [[2.0, -2.0], [-2.0, 2.0]])

    def test_hand_pair_satisfies_the_affine_constraint_system(self):
        e_mat, d_vec, par = build_constraints(CLASSIC)
        packed = par.pack(
            gram_from_factors([HAND_A], 0, 1), gram_from_factors([HAND_B], 1, 0)
        )
        assert np.max(np.abs(e_mat @ packed - d_vec)) <= 1e-12

    def test_diagonal_identity_of_hand_point(self):
        # |p|^2 - |p~|^2 = (1 - |z1|^2) |A1|^2 + (1 - |z2|^2) |B1|^2
        rng = np.random.default_rng(101)
        p_tilde = CLASSIC.reflect()
        for _ in range(100):
            z1, z2 = 0.95 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) / SQRT2
            lhs = abs(CLASSIC(z1, z2)) ** 2 - abs(p_tilde(z1, z2)) ** 2
            rhs = (1 - abs(z1) ** 2) * abs(HAND_A(z1, z2)) ** 2 + (
                1 - abs(z2) ** 2
            ) * abs(HAND_B(z1, z2)) ** 2
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestTargetTensor:
    def test_constant_pair_entry_of_classic(self):
        # coefficient of 1 (x) conj(1): |p(0,0)|^2 - |p~(0,0)|^2 = 4 - 0
        t = sos_target_tensor(CLASSIC)
        assert t[0, 0, 0, 0] == pytest.approx(4.0)

    def test_padded_constant_has_rank_two_tensor(self):
        one = BivariatePolynomial.constant(1.0, bidegree=(1, 1))
        t = sos_target_tensor(one)
        expected = np.zeros((2, 2, 2, 2), dtype=complex)
        expected[0, 0, 0, 0] = 1.0
        expected[1, 1, 1, 1] = -1.0
        assert np.allclose(t, expected)

    def test_tensor_is_hermitian(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        t = sos_target_tensor(BivariatePolynomial(c))
        assert np.max(np.abs(t - np.conj(np.transpose(t, (2, 3, 0, 1))))) <= 1e-13

    def test_telescoping_gram_pair_matches_target_exactly(self):
        # G_A = <constant>, G_B = <z1> reproduces the tensor of the padded constant
        one = BivariatePolynomial.constant(1.0, bidegree=(1, 1))
        g_a = np.zeros((2, 2), dtype=complex)
        g_a[0, 0] = 1.0  # basis {1, z2}
        g_b = np.zeros((2, 2), dtype=complex)
        g_b[1, 1] = 1.0  # basis {1, z1}
        diff = gram_pair_tensor(g_a, g_b, 1, 1) - sos_target_tensor(one)
        assert np.max(np.abs(diff)) == 0.0

    def test_constant_pair_constraint_equation(self):
        # the (1, 1-bar) equation forces G_A[0,0] + G_B[0,0] = 4 for the classic
        g_a = gram_from_factors([HAND_A], 0, 1)
        g_b = gram_from_factors([HAND_B], 1, 0)
        rhs = gram_pair_tensor(g_a, g_b, 1, 1)
        assert rhs[0, 0, 0, 0] == pytest.approx(g_a[0, 0] + g_b[0, 0])
        assert g_a[0, 0] + g_b[0, 0] == pytest.approx(4.0)


class TestParametrization:
    def test_herm_vec_round_trip_is_isometric(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            order = int(rng.integers(1, 9))
            raw = rng.standard_normal((order, order)) + 1j * rng.standard_normal(
                (order, order)
            )
            mat = 0.5 * (raw + raw.conj().T)
            vec = herm_to_vec(mat)
            assert vec.dtype == np.float64
            assert np.linalg.norm(vec) == pytest.approx(np.linalg.norm(mat))
            assert np.allclose(vec_to_herm(vec, order), mat)

    def test_factors_from_gram_round_trip(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            half = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            gram = half @ half.conj().T
            polys = factors_from_gram(gram, (1, 1))
            assert len(polys) <= 4
            back = gram_from_factors(polys, 1, 1)
            assert np.max(np.abs(back - gram)) <= 1e-10 * (1 + np.abs(gram).max())

    def test_factors_from_gram_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            factors_from_gram(np.eye(3), (1, 1))

    def test_factors_from_gram_drops_negative_part(self):
        polys = factors_from_gram(np.diag([-1.0, 4.0]), (1, 0))
        back = gram_from_factors(polys, 1, 0)
        assert np.allclose(back, np.diag([0.0, 4.0]))


class TestSolveGram:
    def test_classic_certificate_reaches_tight_residual(self):
        cert = solve_gram(CLASSIC, tol=1e-8, seed=42)
        assert cert.residual <= 1e-8
        assert sos_residual(CLASSIC, cert.a_polys, cert.b_polys) <= 1e-8

    def test_classic_gram_pair_is_the_hand_point(self):
        # the affine constraints leave a one-parameter line, but positivity
        # pins its intersection with the cone to the single hand-checked
        # point; the contact is tangential, so the Gram error scales like
        # sqrt(identity residual) rather than the residual itself
        cert = solve_gram(CLASSIC, tol=1e-8, seed=42)
        gram_err = max(
            np.max(np.abs(cert.gram_a - np.array([[2, -2], [-2, 2]]))),
            np.max(np.abs(cert.gram_b - np.array([[2, -2], [-2, 2]]))),
        )
        abs_residual = cert.residual * CLASSIC.coeff_norm() ** 2
        assert gram_err <= 1e-4
        assert gram_err <= 10.0 * np.sqrt(abs_residual)

    def test_certificate_gram_matrices_are_psd(self):
        cert = solve_gram(CLASSIC, tol=1e-8, seed=42)
        for gram in (cert.gram_a, cert.gram_b):
            w = np.linalg.eigvalsh(gram)
            assert w[0] >= -1e-9 * (1 + w[-1])

    def test_padded_constant_solves_to_telescoping_point(self):
        one = BivariatePolynomial.constant(1.0, bidegree=(1, 1))
        cert = solve_gram(one, tol=1e-10, seed=42)
        assert cert.residual <= 1e-10
        # the feasible set is a one-parameter family; any member satisfies
        # the identity, so assert feasibility rather than a specific point
        assert sos_residual(one, cert.a_polys, cert.b_polys) <= 1e-9

    def test_factor_degrees_respect_basis_bounds(self):
        p = CLASSIC * BivariatePolynomial([[4.0, -1.0], [-1.0, 0.0]])
        cert = solve_gram(p, tol=1e-8, seed=42)
        n, m = p.bidegree
        for q in cert.a_polys:
            an, am = q.actual_bidegree()
            assert an <= n - 1 and am <= m
        for q in cert.b_polys:
            bn, bm = q.actual_bidegree()
            assert bn <= n and bm <= m - 1

    def test_diagonal_identity_on_solver_output(self):
        rng = np.random.default_rng(103)
        p = BivariatePolynomial([[4.0, -1.0, -1.0], [-1.0, 0.0, 0.0]])  # 4 - z2 - z2^2 - z1
        cert = solve_gram(p, tol=1e-8, seed=42)
        p_tilde = p.reflect()
        scale = p.coeff_norm() ** 2
        for _ in range(200):
            z1, z2 = 0.95 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) / SQRT2
            lhs = abs(p(z1, z2)) ** 2 - abs(p_tilde(z1, z2)) ** 2
            rhs = (1 - abs(z1) ** 2) * sum(
                abs(q(z1, z2)) ** 2 for q in cert.a_polys
            ) + (1 - abs(z2) ** 2) * sum(abs(q(z1, z2)) ** 2 for q in cert.b_polys)
            assert abs(lhs - rhs) <= 1e-6 * scale

    def test_residual_trace_is_monotone_within_slack(self):
        cert = solve_gram(CLASSIC, tol=1e-8, seed=42)
        trace = cert.residual_trace
        assert trace is not None and trace.size >= 1
        drops = np.diff(trace)
        assert np.all(drops <= 1e-12 + 0.0 * drops) or np.max(drops) <= 1e-12

    def test_same_seed_reproduces_certificate_exactly(self):
        a = solve_gram(CLASSIC, tol=1e-8, seed=42)
        b = solve_gram(CLASSIC, tol=1e-8, seed=42)
        assert canonical_dumps(a.to_json()) == canonical_dumps(b.to_json())

    def test_different_seed_still_converges(self):
        cert = solve_gram(CLASSIC, tol=1e-8, seed=7)
        assert cert.residual <= 1e-8

    def test_unstable_polynomial_is_infeasible(self):
        # 1 - 2 z1 vanishes at z1 = 1/2; the only Gram solution is negative
        p = BivariatePolynomial([[1.0], [-2.0]])
        with pytest.raises(InfeasibleError):
            solve_gram(p, tol=1e-9, max_iter=500, seed=42)

    def test_zero_polynomial_is_rejected(self):
        with pytest.raises(ValueError):
            solve_gram(BivariatePolynomial.zero((1, 1)))

    def test_scaling_invariance_of_relative_residual(self):
        cert = solve_gram(CLASSIC.scale(250.0), tol=1e-8, seed=42)
        assert cert.residual <= 1e-8
        # gram matrices scale with the square of the coefficient scale
        assert np.max(np.abs(cert.gram_a - np.array([[2, -2], [-2, 2]]) * 250.0**2)) \
            <= 1e-4 * 250.0**2


class TestSymmetrize:
    def test_symmetrized_lists_double_the_rank(self):
        cert = solve_gram(CLASSIC, tol=1e-8, seed=42)
        vecs = symmetrize(cert)
        assert len(vecs.a) == 2 * cert.rank_a
        assert len(vecs.b) == 2 * cert.rank_b

    def test_vector_norm_equals_reflected_vector_norm(self):
        cert = solve_gram(CLASSIC, tol=1e-8, seed=42)
        vecs = symmetrize(cert)
        refl_a = vecs.a_reflected()
        rng = np.random.default_rng(105)
        for _ in range(100):
            z1, z2 = 0.9 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) / SQRT2
            norm_a = sum(abs(q(z1, z2)) ** 2 for q in vecs.a)
            norm_refl = sum(abs(q(z1, z2)) ** 2 for q in refl_a)
            assert norm_a == pytest.approx(norm_refl, abs=1e-10)

    def test_symmetrized_identity_residual_matches_original(self):
        cert = solve_gram(CLASSIC, tol=1e-8, seed=42)
        vecs = symmetrize(cert)
        original = sos_residual(CLASSIC, cert.a_polys, cert.b_polys)
        averaged = sos_residual(CLASSIC, vecs.a, vecs.b)
        assert averaged <= original + 1e-12

    def test_symmetrize_refuses_bad_certificates(self):
        cert = solve_gram(CLASSIC, tol=1e-8, seed=42)
        cert.residual = 1.0
        with pytest.raises(ValueError):
            symmetrize(cert)


class TestCertificateSerialization:
    def test_json_round_trip(self):
        cert = solve_gram(CLASSIC, tol=1e-8, seed=42)
        back = SosCertificate.from_json(cert.to_json())
        assert np.allclose(back.gram_a, cert.gram_a)
        assert np.allclose(back.gram_b, cert.gram_b)
        assert back.residual == cert.residual
        assert back.seed == cert.seed
        assert len(back.a_polys) == len(cert.a_polys)

    def test_json_round_trip_is_byte_identical(self):
        cert = solve_gram(CLASSIC, tol=1e-8, seed=42)
        text = canonical_dumps(cert.to_json())
        assert "-0.0" in text
        back = SosCertificate.from_json(cert.to_json())
        assert canonical_dumps(back.to_json()) == text

    def test_schema_has_format_tag_and_gram_fields(self):
        cert = solve_gram(CLASSIC, tol=1e-8, seed=42)
        obj = cert.to_json()
        assert obj["format"] == "aglerkit/1"
        for key in ("p", "p_tilde", "G_A", "G_B", "A_polys", "B_polys", "residual"):
            assert key in obj
