"""Tests for the sum-of-squares Gram certificate solver.

The hand-checked feasible point for 2 - z1 - z2 comes first: every later
test trusts the solver only because this identity was verified by direct
coefficient expansion.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aglerkit.errors import InfeasibleError
from aglerkit.kernels import KernelBundle, check_bounds, verify_decomposition
from aglerkit.poly2 import BivariatePolynomial
from aglerkit.serialize import canonical_dumps
from aglerkit.sos import (
    _RADII,
    _STEP_RCOND,
    SosCertificate,
    _factor_jacobian,
    _gauss_newton,
    _gauss_newton_step,
    _fejer_riesz_factors,
    _half_rows,
    _riccati_doubling,
    _schur_cohn_moments,
    factors_from_gram,
    gram_from_factors,
    gram_pair_tensor,
    hermitize,
    solve_gram,
    sos_residual,
    sos_target_tensor,
)

CLASSIC = BivariatePolynomial([[2.0, -1.0], [-1.0, 0.0]])  # 2 - z1 - z2
SQUARE = CLASSIC * CLASSIC  # its double zero at (1, 1) leaves no outer factor
STEEP = BivariatePolynomial([[3.0, -2.0], [-1.0, 0.0]])  # 3 - z1 - 2 z2, also zero at (1, 1)
SQRT2 = np.sqrt(2.0)

# hand feasible point for the classic polynomial
HAND_A = BivariatePolynomial([[SQRT2, -SQRT2]])  # sqrt(2) (1 - z2), basis degrees (0, 1)
HAND_B = BivariatePolynomial([[SQRT2], [-SQRT2]])  # sqrt(2) (1 - z1), basis degrees (1, 0)


def displacement_class_sums(tensor: np.ndarray) -> np.ndarray:
    """Sums of T[a, b, c, d] over each class (a - c, b - d), indexed by offset.

    For the target tensor these are the Fourier coefficients of
    |p|^2 - |p~|^2 on the torus, where |p~| = |p|, so they vanish.
    """
    n1, m1 = tensor.shape[:2]
    a, b, c, d = np.indices(tensor.shape)
    sums = np.zeros((2 * n1 - 1, 2 * m1 - 1), dtype=complex)
    np.add.at(sums, (a - c + n1 - 1, b - d + m1 - 1), tensor)
    return sums


def exact_identity_residual(p, gram_a, gram_b):
    """Max |L(G_A, G_B) - T| over coefficients in rational arithmetic, for integer p."""
    n, m = p.bidegree
    exact = np.vectorize(Fraction, otypes=[object])
    parts = []
    for part, target in ((np.real, sos_target_tensor(p).real), (np.imag, 0.0)):
        a4 = exact(part(gram_a)).reshape(n, m + 1, n, m + 1)
        b4 = exact(part(gram_b)).reshape(n + 1, m, n + 1, m)
        diff = exact(-np.broadcast_to(target, (n + 1, m + 1, n + 1, m + 1)))
        diff[:n, :, :n, :] += a4
        diff[1:, :, 1:, :] -= a4
        diff[:, :m, :, :m] += b4
        diff[:, 1:, :, 1:] -= b4
        parts.append(diff.ravel())
    return float(max(re * re + im * im for re, im in zip(*parts))) ** 0.5


def random_polynomial(rng, n, m):
    """Random complex p of bidegree (n, m), unit coefficient norm, stable or not."""
    c = rng.standard_normal((n + 1, m + 1)) + 1j * rng.standard_normal((n + 1, m + 1))
    p = BivariatePolynomial(c)
    return p.scale(1.0 / p.coeff_norm())


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
        g_a = gram_from_factors([HAND_A], 0, 1)
        g_b = gram_from_factors([HAND_B], 1, 0)
        residual = gram_pair_tensor(g_a, g_b, 1, 1) - sos_target_tensor(CLASSIC)
        assert np.max(np.abs(residual)) <= 1e-12

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

    def test_hermitize_produces_zero_defect(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        mat = hermitize(raw)
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-15

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

    def test_target_class_sums_vanish_for_unstable_p(self):
        # |p|^2 - |p~|^2 is zero on the torus for every p, stable or not
        rng = np.random.default_rng(11)
        for n, m in [(0, 2), (1, 0), (1, 1), (1, 3), (3, 2), (3, 3), (4, 4), (6, 5)]:
            p = random_polynomial(rng, n, m)
            assert np.max(np.abs(displacement_class_sums(sos_target_tensor(p)))) <= 1e-14
        # the sums do see a tensor off the constraint range
        generic = rng.standard_normal((3, 3, 3, 3))
        assert np.max(np.abs(displacement_class_sums(generic))) > 0.1


class TestGaussNewtonPolish:
    """The factor Jacobian and the steps of the polish, against dense references."""

    @staticmethod
    def full_row_jacobian(n, m, x_fac, y_fac):
        """Real Jacobian over every Re and Im entry of the residual, probed column by column."""
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
        return np.stack(columns, axis=1)

    @staticmethod
    def random_factor(rng, rows, rank):
        return rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))

    def test_batched_jacobian_equals_per_column_reference(self):
        rng = np.random.default_rng(13)
        n, m = 2, 3
        target = sos_target_tensor(random_polynomial(rng, n, m))
        x_fac = self.random_factor(rng, n * (m + 1), 3)
        y_fac = self.random_factor(rng, (n + 1) * m, 2)
        upper, strict, _ = rows = _half_rows(target)
        full = self.full_row_jacobian(n, m, x_fac, y_fac)
        reference = np.concatenate([full[upper], full[target.size + strict]])
        np.testing.assert_array_equal(_factor_jacobian(target, rows, x_fac, y_fac), reference)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (2, 3), (3, 3)])
    def test_half_row_step_equals_full_row_step(self, n, m):
        # the dropped rows mirror the kept ones, so the least-squares problem is the same
        rng = np.random.default_rng(400 + 10 * n + m)
        target = sos_target_tensor(random_polynomial(rng, n, m))
        x_fac = self.random_factor(rng, n * (m + 1), n * (m + 1))
        y_fac = self.random_factor(rng, (n + 1) * m, (n + 1) * m)
        diff = gram_pair_tensor(x_fac @ x_fac.conj().T, y_fac @ y_fac.conj().T, n, m) - target
        full_res = np.concatenate([diff.real.ravel(), diff.imag.ravel()])
        full_step = np.linalg.lstsq(
            self.full_row_jacobian(n, m, x_fac, y_fac), -full_res, rcond=_STEP_RCOND
        )[0]
        upper, strict, _ = rows = _half_rows(target)
        flat = diff.ravel()
        half_res = np.concatenate([flat[upper].real, flat[strict].imag])
        half_step = _gauss_newton_step(target, rows, x_fac, y_fac, half_res)
        assert np.linalg.norm(half_step - full_step) <= 1e-12 * np.linalg.norm(full_step)

    def test_lapack_failure_ends_the_polish_attempt(self, monkeypatch):
        calls = []

        def failing_lstsq(*args, **kwargs):
            calls.append(1)
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(np.linalg, "lstsq", failing_lstsq)
        rng = np.random.default_rng(17)
        target = sos_target_tensor(CLASSIC.scale(1.0 / CLASSIC.coeff_norm()))
        x_fac, y_fac = self.random_factor(rng, 2, 1), self.random_factor(rng, 2, 1)
        x_out, y_out, steps, res = _gauss_newton(target, x_fac, y_fac, 1e-9, 40)
        assert steps == 0 and res * target.size > 1e-9  # stopped before a step, not accepted
        assert np.array_equal(x_out, x_fac) and np.array_equal(y_out, y_fac)
        assert len(calls) == 1
        # a solve whose every polish fails still ends in InfeasibleError, not a LAPACK one
        with pytest.raises(InfeasibleError):
            solve_gram(SQUARE, max_iter=200)
        assert len(calls) > 1


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
        # the float residual of so close a pair can round to 0.0: take it exactly
        abs_residual = exact_identity_residual(CLASSIC, cert.gram_a, cert.gram_b)
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

    @pytest.mark.parametrize(
        "max_iter, tol",
        [(0, 1e-9), (-5, 1e-9), (100, 0.0), (100, -1e-9), (100, float("nan")), (100, float("inf"))],
    )
    def test_bad_budget_or_tolerance_raises_before_any_work(self, max_iter, tol, monkeypatch):
        def no_work(*args):
            raise AssertionError("solve_gram started work")

        monkeypatch.setattr("aglerkit.sos.sos_target_tensor", no_work)
        with pytest.raises(ValueError):
            solve_gram(CLASSIC, tol=tol, max_iter=max_iter)

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
    """Reflection closing in KernelBundle.from_certificate."""

    @pytest.fixture(scope="class")
    def bundles(self, raw_bundle):
        cert = solve_gram(CLASSIC, tol=1e-8, seed=42)
        return raw_bundle(cert), KernelBundle.from_certificate(cert)

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


def assert_certifies(p, max_iter=200000):
    cert = solve_gram(p, max_iter=max_iter)
    # the acceptance rule: verify sums (n+1)^2 (m+1)^2 coefficient errors against tol
    n, m = p.bidegree
    assert cert.residual * (n + 1) ** 2 * (m + 1) ** 2 <= cert.tol
    bundle = KernelBundle.from_certificate(cert)
    assert verify_decomposition(bundle).passed
    assert check_bounds(bundle).passed
    return cert


DEG33 = np.zeros((4, 4))
DEG33[0, 0], DEG33[1, 0], DEG33[0, 1], DEG33[1, 2], DEG33[3, 3] = 8.0, -1.0, -2.0, -1.0, -1.0
CORPUS = {
    "classic": CLASSIC,
    "wide_margin": BivariatePolynomial([[4.0, -1.0], [-1.0, 0.0]]),
    "product_22": BivariatePolynomial([[8.0, -6.0, 1.0], [-6.0, 2.0, 0.0], [1.0, 0.0, 0.0]]),
    "degree_12": BivariatePolynomial([[4.0, -1.0, -1.0], [-1.0, 0.0, 0.0]]),
    "degree_33": BivariatePolynomial(DEG33),
}


def seeded_strictly_stable(seed, n, m):
    rng = np.random.default_rng(seed)
    return strictly_stable(rng.standard_normal((n + 1, m + 1)) + 1j * rng.standard_normal((n + 1, m + 1)))


class TestAcceptanceRule:
    """A certificate is returned only when the sampled identity can pass at the same tol."""

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_corpus_certificates_meet_the_rule(self, name):
        assert_certifies(CORPUS[name])

    @pytest.mark.parametrize("seed,n,m", [(1, 1, 1), (2, 1, 3), (3, 2, 2), (4, 3, 1), (5, 2, 3), (6, 3, 3)])
    def test_seeded_random_certificates_meet_the_rule(self, seed, n, m):
        assert_certifies(seeded_strictly_stable(seed, n, m))

    @pytest.mark.parametrize("p", [CORPUS["product_22"], CORPUS["degree_33"], seeded_strictly_stable(7, 2, 2)],
                             ids=["product_22", "degree_33", "random_22"])
    def test_polish_accepts_the_first_warm_start(self, p):
        # a change that weakens p's own warm start shows here as a count, not a timing
        assert assert_certifies(p).iterations == 0


class TestStrictlyStableSweep:
    """Every strictly stable p certifies (the dense projector refused (4, 4) and up)."""

    def test_random_strictly_stable_44_certifies(self):
        rng = np.random.default_rng(4)
        assert_certifies(strictly_stable(
            rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        ))

    @pytest.mark.parametrize("bidegree", [(1, 2), (2, 1)])
    def test_padded_constant_that_only_just_meets_tol_certifies(self, bidegree):
        # a pair with a residual just under tol fails the sampled identity
        # check at the same tol; the acceptance rule asks for more
        assert_certifies(BivariatePolynomial.constant(1.0, bidegree=bidegree))

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(0, 6), m=st.integers(0, 6),
           margin=st.floats(0.1, 0.8))
    def test_random_strictly_stable_up_to_66_certifies_directly(self, data, n, m, margin):
        unit = st.floats(-1.0, 1.0, allow_subnormal=False)
        size = (n + 1) * (m + 1)
        re = data.draw(st.lists(unit, min_size=size, max_size=size))
        im = data.draw(st.lists(unit, min_size=size, max_size=size))
        coeffs = (np.array(re) + 1j * np.array(im)).reshape(n + 1, m + 1)
        assert assert_certifies(strictly_stable(coeffs, margin)).iterations == 0


def sampled_christoffel_darboux_gram(coeffs, z2):
    """M(z2) = T1 T1* - T2 T2* from the coefficients of q = p(., z2) and of its reflection.

    T1 and T2 are the lower triangular Toeplitz matrices of q_0..q_{n-1} and of
    q~_0..q~_{n-1}, q~_a = conj(q_{n-a}); then q(z) conj(q(w)) - q~(z) conj(q~(w))
    = (1 - z conj(w)) sum_{i, k} M[i, k] z^i conj(w)^k.
    """
    q = coeffs @ z2 ** np.arange(coeffs.shape[1])
    n = q.size - 1
    lower = np.subtract.outer(np.arange(n), np.arange(n))

    def toeplitz(col):
        return np.where(lower >= 0, col[np.clip(lower, 0, None)], 0.0)

    t1, t2 = toeplitz(q[:n]), toeplitz(q[::-1].conj()[:n])
    return q, t1 @ t1.conj().T - t2 @ t2.conj().T


class TestDirectCertificate:
    """The first path: an outer factor of the Schur-Cohn matrix polynomial, no iteration."""

    @staticmethod
    def assert_direct(p):
        cert = assert_certifies(p)
        assert cert.iterations == 0
        assert cert.residual <= 1e-14
        return cert

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_corpus_certifies_directly(self, name):
        self.assert_direct(CORPUS[name])

    @pytest.mark.parametrize("seed,n,m", [
        (21, 2, 2), (22, 3, 3), (23, 4, 4), (24, 5, 5), (25, 6, 6), (37, 7, 7), (26, 8, 8),
        (27, 1, 4), (28, 4, 1), (29, 2, 5), (30, 6, 3),
    ])
    def test_seeded_random_certifies_directly(self, seed, n, m):
        cert = self.assert_direct(seeded_strictly_stable(seed, n, m))
        assert (len(cert.a_polys), len(cert.b_polys)) == (n, m)

    @pytest.mark.parametrize("n,m", [(0, 3), (3, 0), (0, 0)])
    def test_one_variable_and_constant_inputs_certify_directly(self, n, m):
        self.assert_direct(seeded_strictly_stable(31, n, m))

    @pytest.mark.parametrize("p", [CLASSIC, CORPUS["product_22"], seeded_strictly_stable(32, 3, 3)],
                             ids=["classic", "product_22", "random_33"])
    def test_seed_does_not_move_the_certificate(self, p):
        texts = []
        for seed in (0, 42):
            obj = solve_gram(p, seed=seed).to_json()
            del obj["seed"]
            texts.append(canonical_dumps(obj))
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("seed,n,m", [(33, 1, 0), (34, 1, 3), (35, 3, 2), (36, 2, 4)])
    def test_moments_match_sampled_christoffel_darboux_gram(self, seed, n, m):
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal((n + 1, m + 1)) + 1j * rng.standard_normal((n + 1, m + 1))
        coeffs /= np.linalg.norm(coeffs)
        moments = _schur_cohn_moments(coeffs)
        assert moments.shape == (2 * m + 1, n, n)
        z1, w1 = 0.4 - 0.3j, -0.2 + 0.7j
        for z2 in np.exp(2j * np.pi * (np.arange(8) + 0.3) / 8):
            q, gram = sampled_christoffel_darboux_gram(coeffs, z2)
            # the reference is the Christoffel-Darboux Gram: check its identity once per point
            q_t = q[::-1].conj()
            lhs = np.polyval(q[::-1], z1) * np.conj(np.polyval(q[::-1], w1)) \
                - np.polyval(q_t[::-1], z1) * np.conj(np.polyval(q_t[::-1], w1))
            rhs = (1 - z1 * np.conj(w1)) * (z1 ** np.arange(n)) @ gram @ np.conj(w1 ** np.arange(n))
            assert abs(lhs - rhs) <= 1e-13
            laurent = np.einsum("k,kij->ij", z2 ** np.arange(-m, m + 1), moments)
            assert np.max(np.abs(laurent - gram)) <= 1e-13

    def test_riccati_failure_at_every_radius_is_infeasible(self, monkeypatch):
        calls = []

        def failing_riccati(*args, **kwargs):
            calls.append(1)
            raise np.linalg.LinAlgError("structured doubling found no stabilizing solution")

        monkeypatch.setattr("aglerkit.sos._riccati_doubling", failing_riccati)
        with pytest.raises(InfeasibleError, match="best residual"):
            solve_gram(CLASSIC)
        assert len(calls) == len(_RADII)

    def test_square_certifies_through_the_fallback(self):
        # the Riccati solve rejects the double zero at (1, 1); the pair of
        # p(0.9 z1, 0.9 z2), polished against p, is the certificate
        cert = assert_certifies(SQUARE)
        assert (cert.iterations, cert.polish_iterations) == (1, 20)


def linear(c, a, b):
    """c - a z1 - b z2."""
    return BivariatePolynomial([[c, -b], [-a, 0.0]])


def torus_factor(t, u, v):
    """1 - a z1 - b z2 with a = t e^(2 pi i u), b = (1 - t) e^(2 pi i v): |a| + |b| = 1."""
    a, b = t * np.exp(2j * np.pi * u), (1.0 - t) * np.exp(2j * np.pi * v)
    return BivariatePolynomial(np.array([[1.0, -b], [-a, 0.0]]))


class TestContractedWarmStarts:
    """Inputs with zeros on the torus, where p's own outer factor may not exist."""

    @pytest.mark.parametrize("c,a,b", [
        (2, 1, 1), (3, 2, 1), (4, 3, 1), (7, 2, 5), (3, 1, 2), (4, 1, 3), (5, 3, 2), (7, 5, 2),
    ])
    def test_linear_factor_with_a_torus_zero_certifies_directly(self, c, a, b):
        # on 3 - 2 z1 - z2, 4 - 3 z1 - z2 and 7 - 2 z1 - 5 z2 rounding holds the
        # doubling's steps near 1e-8, so it stops on a stall that meets the equation
        cert = assert_certifies(linear(c, a, b))
        assert (cert.iterations, cert.polish_iterations) == (0, 0)

    def test_square_certificate_does_not_depend_on_the_seed(self):
        texts = set()
        for seed in (0, 19, 42):
            obj = solve_gram(SQUARE, seed=seed).to_json()
            assert obj.pop("seed") == seed
            texts.add(canonical_dumps(obj))
        assert len(texts) == 1

    @pytest.mark.parametrize("p", [SQUARE * CLASSIC, SQUARE * SQUARE, CLASSIC * STEEP * STEEP],
                             ids=["cube", "fourth_power", "classic_times_steep_square"])
    def test_higher_order_torus_zero_is_infeasible_with_its_best_residual(self, p):
        with pytest.raises(InfeasibleError, match="best residual") as info:
            solve_gram(p)
        assert 0.0 < info.value.residual < 1.0

    @pytest.mark.parametrize("p", [
        BivariatePolynomial([[-1.0], [1.0]]),
        BivariatePolynomial([[1.0, -1.0], [-1.0, 1.0]]),
        BivariatePolynomial([[1.0, 0.0], [0.0, -1.0]]),
        BivariatePolynomial([[1.0], [-1.0]]) * CLASSIC,
    ], ids=["z1_minus_1", "one_minus_z1_times_one_minus_z2", "one_minus_z1z2", "one_minus_z1_times_classic"])
    def test_boundary_inputs_certify_and_verify(self, p):
        assert assert_certifies(p).iterations >= 1

    def test_two_double_torus_zeros_certify_through_the_widened_pair(self):
        # f^2 g^2: every rank-(4, 4) polish stalls above tol (at best 1.4e-11 at r = 0.9,
        # against the 1.6e-12 tol needs); n and m more columns reach the floor
        f = torus_factor(0.17893481367543618, 0.6399131657151546, 0.4672684011434851)
        g = torus_factor(0.37050052710804804, 0.3549173343096512, 0.790518245853265)
        cert = assert_certifies(f * f * g * g)
        assert cert.residual <= 1e-13
        assert (len(cert.a_polys), len(cert.b_polys)) == (8, 8)

    def test_max_iter_leaves_the_polish_of_p_own_factor_alone(self):
        # p's own factor of f^2, f = 1 - 0.1 z1 - 0.9 z2, needs 22 polish steps
        f = linear(1.0, 0.1, 0.9)
        for max_iter in (1, 200000):
            cert = assert_certifies(f * f, max_iter=max_iter)
            assert (cert.iterations, cert.polish_iterations) == (0, 22)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(t=st.floats(0.0, 1.0), phase_a=st.floats(-np.pi, np.pi), phase_b=st.floats(-np.pi, np.pi))
    def test_square_of_a_linear_factor_with_a_torus_zero_certifies(self, t, phase_a, phase_b):
        # f = 1 - a z1 - b z2 with |a| + |b| = 1 vanishes at z = (conj(a)/|a|, conj(b)/|b|)
        a, b = t * np.exp(1j * phase_a), (1.0 - t) * np.exp(1j * phase_b)
        f = BivariatePolynomial(np.array([[1.0, -b], [-a, 0.0]]))
        assert_certifies(f * f)


def riccati_inputs(p):
    """(a, b, r, s) of the Riccati equation whose solution gives p's outer factor."""
    n, m = p.bidegree
    moments = _schur_cohn_moments(p.scale(1.0 / p.coeff_norm()).coeffs)
    return np.eye(n * m, k=n).T, np.eye(n * m, n), moments[m], moments[m + 1:].reshape(n * m, n)


def outer_factor(p):
    """Moments M_k and coefficients G_j of the outer factor _fejer_riesz_factors builds."""
    p_norm = p.scale(1.0 / p.coeff_norm())
    n, m = p.bidegree
    x_fac, _ = _fejer_riesz_factors(p_norm.coeffs, sos_target_tensor(p_norm))
    return _schur_cohn_moments(p_norm.coeffs), x_fac.reshape(n, m + 1, n).transpose(1, 0, 2)


RICCATI_CASES = {
    **CORPUS,
    **{"random_%d%d" % nm: seeded_strictly_stable(40 + nm[0], *nm)
       for nm in [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (2, 5), (5, 2)]},
}


class TestRiccatiDoubling:
    """The outer factor G(u) = sum_j G_j u^j of M, from structured doubling."""

    @pytest.mark.parametrize("name", sorted(RICCATI_CASES))
    def test_outer_factor_reproduces_m_on_the_circle(self, name):
        moments, outer = outer_factor(RICCATI_CASES[name])
        m = outer.shape[0] - 1
        for u in np.exp(2j * np.pi * (np.arange(16) + 0.1) / 16):
            g = np.einsum("j,jik->ik", u ** np.arange(m + 1), outer)
            laurent = np.einsum("k,kij->ij", u ** np.arange(-m, m + 1), moments)
            assert np.max(np.abs(g @ g.conj().T - laurent)) <= 1e-13

    @pytest.mark.parametrize("name", sorted(RICCATI_CASES))
    def test_outer_factor_has_no_zero_in_the_open_disk(self, name):
        # G_0^-1 G(u) = I + P_1 u + .. + P_m u^m vanishes at u exactly when 1/u is
        # an eigenvalue of the block companion matrix of v^m + P_1 v^(m-1) + .. + P_m
        _, outer = outer_factor(RICCATI_CASES[name])
        m, n = outer.shape[0] - 1, outer.shape[1]
        blocks = np.linalg.solve(outer[0], outer[1:].transpose(1, 0, 2).reshape(n, m * n))
        companion = np.eye(n * m, k=-n, dtype=complex)
        companion[:n] = -blocks
        radius = np.max(np.abs(np.linalg.eigvals(companion)))
        strict = name.startswith("random") or name in ("wide_margin", "degree_12", "degree_33")
        assert radius < 1.0 if strict else radius <= 1.0 + 1e-6

    @pytest.mark.parametrize("seed,n,m", [(50 + k, n, m) for k, (n, m) in enumerate(
        [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (7, 7), (8, 8), (1, 6), (6, 1), (3, 7)])])
    def test_strictly_stable_input_converges_within_eight_steps(self, seed, n, m, monkeypatch):
        monkeypatch.setattr("aglerkit.sos._DOUBLING_STEPS", 8)
        x = _riccati_doubling(*riccati_inputs(seeded_strictly_stable(seed, n, m)))
        assert np.all(np.isfinite(x))

    @pytest.mark.parametrize("p", [SQUARE, SQUARE * CLASSIC, CLASSIC * STEEP * STEEP],
                             ids=["square", "cube", "classic_times_steep_square"])
    def test_repeated_boundary_zero_raises(self, p):
        # the cube and (2 - z1 - z2)(3 - z1 - 2 z2)^2 stall on an X that misses the equation
        with pytest.raises(np.linalg.LinAlgError):
            _riccati_doubling(*riccati_inputs(p))

    def test_non_finite_iterate_raises(self):
        a, b, r, s = riccati_inputs(CORPUS["product_22"])
        with pytest.raises(np.linalg.LinAlgError):
            _riccati_doubling(a, b, r, s * np.nan)


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
