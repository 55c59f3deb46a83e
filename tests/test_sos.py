"""Tests for the sum-of-squares Gram certificate solver.

The hand-checked feasible point for 2 - z1 - z2 comes first: every later
test trusts the solver only because this identity was verified by direct
coefficient expansion.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aglerkit.errors import InfeasibleError
from aglerkit.kernels import KernelBundle, check_bounds, verify_decomposition
from aglerkit.poly2 import BivariatePolynomial
from aglerkit.serialize import canonical_dumps
from aglerkit.sos import (
    DisplacementProjector,
    SosCertificate,
    _factor_jacobian,
    displacement_class_sums,
    factors_from_gram,
    gram_from_factors,
    gram_pair_tensor,
    solve_gram,
    sos_residual,
    sos_target_tensor,
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
        # a pair on the affine set is its own projection
        g_a = gram_from_factors([HAND_A], 0, 1)
        g_b = gram_from_factors([HAND_B], 1, 0)
        proj = DisplacementProjector(sos_target_tensor(CLASSIC))
        assert np.max(np.abs(proj.residual(g_a, g_b))) <= 1e-12
        out_a, out_b = proj.project(g_a, g_b)
        assert np.max(np.abs(out_a - g_a)) <= 1e-12
        assert np.max(np.abs(out_b - g_b)) <= 1e-12

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


class TestClosedFormProjection:
    """The per-class projection against a dense least-squares reference."""

    BIDEGREES = [(0, 2), (1, 0), (1, 1), (1, 3), (3, 2), (3, 3)]

    @staticmethod
    def random_polynomial(rng, n, m):
        c = rng.standard_normal((n + 1, m + 1)) + 1j * rng.standard_normal((n + 1, m + 1))
        p = BivariatePolynomial(c)
        return p.scale(1.0 / p.coeff_norm())

    @staticmethod
    def random_hermitian(rng, order):
        raw = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
        return 0.5 * (raw + raw.conj().T)

    @staticmethod
    def hermitian_basis(order):
        """Frobenius-orthonormal real basis of the order x order Hermitian matrices."""
        basis = []
        for i in range(order):
            for j in range(i, order):
                unit = np.zeros((order, order), dtype=complex)
                if i == j:
                    unit[i, i] = 1.0
                    basis.append(unit)
                    continue
                unit[i, j] = unit[j, i] = 1.0 / np.sqrt(2.0)
                basis.append(unit)
                skew = np.zeros((order, order), dtype=complex)
                skew[i, j], skew[j, i] = 1j / np.sqrt(2.0), -1j / np.sqrt(2.0)
                basis.append(skew)
        return np.array(basis, dtype=complex).reshape(order * order, order, order)

    def reference_projection(self, target, gram_a, gram_b):
        """Least-squares projection onto L(G) = T in basis coordinates, L probed column by column."""
        n, m = target.shape[0] - 1, target.shape[1] - 1
        basis_a = self.hermitian_basis(n * (m + 1))
        basis_b = self.hermitian_basis((n + 1) * m)
        none = np.zeros((0, 0), dtype=complex)
        images = np.concatenate([
            gram_pair_tensor(basis_a, none, n, m),
            gram_pair_tensor(none, basis_b, n, m),
        ]).reshape(len(basis_a) + len(basis_b), -1)
        e_mat = np.concatenate([images.real, images.imag], axis=1).T
        d_vec = np.concatenate([target.real.ravel(), target.imag.ravel()])

        def coords(basis, gram):
            return np.einsum("kij,ij->k", basis.conj(), gram).real

        theta = np.concatenate([coords(basis_a, gram_a), coords(basis_b, gram_b)])
        step = np.linalg.lstsq(e_mat, e_mat @ theta - d_vec, rcond=1e-10)[0]
        theta = theta - step
        split = len(basis_a)
        return (
            np.einsum("k,kij->ij", theta[:split], basis_a),
            np.einsum("k,kij->ij", theta[split:], basis_b),
        )

    @pytest.mark.parametrize("n,m", BIDEGREES)
    def test_projection_matches_least_squares_reference(self, n, m):
        rng = np.random.default_rng(200 + 10 * n + m)
        target = sos_target_tensor(self.random_polynomial(rng, n, m))
        proj = DisplacementProjector(target)
        gram_a = self.random_hermitian(rng, n * (m + 1))
        gram_b = self.random_hermitian(rng, (n + 1) * m)
        ref_a, ref_b = self.reference_projection(target, gram_a, gram_b)
        out_a, out_b = proj.project(gram_a, gram_b)
        assert np.max(np.abs(out_a - ref_a), initial=0.0) <= 1e-12
        assert np.max(np.abs(out_b - ref_b), initial=0.0) <= 1e-12

    @pytest.mark.parametrize("n,m", BIDEGREES)
    def test_projection_is_feasible_hermitian_and_idempotent(self, n, m):
        rng = np.random.default_rng(300 + 10 * n + m)
        proj = DisplacementProjector(sos_target_tensor(self.random_polynomial(rng, n, m)))
        out_a, out_b = proj.project(
            self.random_hermitian(rng, n * (m + 1)), self.random_hermitian(rng, (n + 1) * m)
        )
        assert np.max(np.abs(proj.residual(out_a, out_b))) <= 1e-12
        for gram in (out_a, out_b):
            assert np.array_equal(gram, gram.conj().T)
        again_a, again_b = proj.project(out_a, out_b)
        assert np.max(np.abs(again_a - out_a), initial=0.0) <= 1e-12
        assert np.max(np.abs(again_b - out_b), initial=0.0) <= 1e-12

    def test_target_class_sums_vanish_for_unstable_p(self):
        # |p|^2 - |p~|^2 is zero on the torus for every p, stable or not
        rng = np.random.default_rng(11)
        for n, m in self.BIDEGREES + [(4, 4), (6, 5)]:
            p = self.random_polynomial(rng, n, m)
            assert np.max(np.abs(displacement_class_sums(sos_target_tensor(p)))) <= 1e-14
        # the sums do see a tensor off the constraint range
        generic = rng.standard_normal((3, 3, 3, 3))
        assert np.max(np.abs(displacement_class_sums(generic))) > 0.1

    def test_batched_jacobian_equals_per_column_reference(self):
        rng = np.random.default_rng(13)
        n, m = 2, 3
        proj = DisplacementProjector(sos_target_tensor(self.random_polynomial(rng, n, m)))
        x_fac = rng.standard_normal((n * (m + 1), 3)) + 1j * rng.standard_normal((n * (m + 1), 3))
        y_fac = rng.standard_normal(((n + 1) * m, 2)) + 1j * rng.standard_normal(((n + 1) * m, 2))
        columns = []
        for fac, is_a in ((x_fac, True), (y_fac, False)):
            rows, rank = fac.shape
            for j in range(rank):
                for u in range(rows):
                    for direction in (1.0, 1.0j):
                        unit = np.zeros((rows, rank), dtype=complex)
                        unit[u, j] = direction
                        dg = unit @ fac.conj().T + fac @ unit.conj().T
                        zero = np.zeros((0, 0), dtype=complex)
                        tens = gram_pair_tensor(dg, zero, n, m) if is_a \
                            else gram_pair_tensor(zero, dg, n, m)
                        columns.append(np.concatenate([tens.real.ravel(), tens.imag.ravel()]))
        np.testing.assert_array_equal(_factor_jacobian(proj, x_fac, y_fac), np.stack(columns, axis=1))


class TestParametrization:
    """Gram matrices and their spectral factor polynomials."""

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
    """Reflection closing in KernelBundle.from_certificate(symmetrized=True)."""

    @pytest.fixture(scope="class")
    def bundles(self):
        cert = solve_gram(CLASSIC, tol=1e-8, seed=42)
        return (
            KernelBundle.from_certificate(cert, symmetrized=False),
            KernelBundle.from_certificate(cert, symmetrized=True),
        )

    def test_symmetrized_lists_double_the_rank(self, bundles):
        raw, sym = bundles
        assert len(sym.a_vec) == 2 * len(raw.a_vec)
        assert len(sym.b_vec) == 2 * len(raw.b_vec)

    def test_vector_norm_equals_reflected_vector_norm(self, bundles):
        _, sym = bundles
        rng = np.random.default_rng(105)
        for _ in range(100):
            z1, z2 = 0.9 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) / SQRT2
            for vec, degrees in ((sym.a_vec, (0, 1)), (sym.b_vec, (1, 0))):
                norm = sum(abs(q(z1, z2)) ** 2 for q in vec)
                norm_refl = sum(abs(q.reflect(degrees)(z1, z2)) ** 2 for q in vec)
                assert norm == pytest.approx(norm_refl, abs=1e-10)

    def test_symmetrized_identity_residual_matches_original(self, bundles):
        raw, sym = bundles
        original = sos_residual(CLASSIC, raw.a_vec, raw.b_vec)
        averaged = sos_residual(CLASSIC, sym.a_vec, sym.b_vec)
        assert averaged <= original + 1e-12


def strictly_stable(coeffs, margin=2.0 / 3.0):
    """p = 1 + c with c_00 = 0 and sum |c_ab| = margin < 1, so p has no zero on the closed bidisk."""
    c = np.array(coeffs, dtype=complex)
    c[0, 0] = 0.0
    total = np.sum(np.abs(c))
    if total > 0.0:
        c *= margin / total
    c[0, 0] = 1.0
    return BivariatePolynomial(c)


def assert_certifies(p):
    cert = solve_gram(p)
    assert cert.residual <= cert.tol
    bundle = KernelBundle.from_certificate(cert)
    assert verify_decomposition(bundle).passed
    assert check_bounds(bundle).passed


class TestStrictlyStableSweep:
    """Every strictly stable p certifies (the dense projector refused (4, 4) and up)."""

    def test_random_strictly_stable_44_certifies(self):
        rng = np.random.default_rng(4)
        assert_certifies(strictly_stable(
            rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        ))

    @pytest.mark.parametrize("bidegree", [(1, 2), (2, 1)])
    def test_padded_constant_that_only_just_meets_tol_certifies(self, bidegree):
        # Dykstra stops here with a residual just under tol; without a polish
        # the sampled identity check at the same tol failed
        assert_certifies(BivariatePolynomial.constant(1.0, bidegree=bidegree))

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(0, 3), m=st.integers(0, 3),
           margin=st.floats(0.1, 0.8))
    def test_random_strictly_stable_up_to_33_certifies(self, data, n, m, margin):
        unit = st.floats(-1.0, 1.0, allow_subnormal=False)
        size = (n + 1) * (m + 1)
        re = data.draw(st.lists(unit, min_size=size, max_size=size))
        im = data.draw(st.lists(unit, min_size=size, max_size=size))
        coeffs = (np.array(re) + 1j * np.array(im)).reshape(n + 1, m + 1)
        assert_certifies(strictly_stable(coeffs, margin))


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
