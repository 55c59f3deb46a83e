"""Tests for kernel construction and decomposition verification."""

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval2d

from aglerkit import kernels
from aglerkit.errors import DomainError
from aglerkit.kernels import (
    PSD_SUBSET_SIZE,
    PSD_SUBSETS,
    SAMPLE_RADIUS,
    KernelBundle,
    check_bounds,
    verify_decomposition,
)
from aglerkit.poly2 import BivariatePolynomial
from aglerkit.sampling import random_polydisk
from aglerkit.sos import SosCertificate, gram_from_factors, solve_gram

CLASSIC = BivariatePolynomial([[2.0, -1.0], [-1.0, 0.0]])
PRODUCT_22 = BivariatePolynomial([[8.0, -6.0, 1.0], [-6.0, 2.0, 0.0], [1.0, 0.0, 0.0]])
SQRT2 = np.sqrt(2.0)
HAND_A = BivariatePolynomial([[SQRT2, -SQRT2]])
HAND_B = BivariatePolynomial([[SQRT2], [-SQRT2]])


def telescoping_certificate():
    """Exact certificate for p = 1 at bidegree (1, 1), where f = z1 z2."""
    one = BivariatePolynomial.constant(1.0, bidegree=(1, 1))
    a = BivariatePolynomial([[1.0, 0.0]])  # constant over basis {1, z2}
    b = BivariatePolynomial([[0.0], [1.0]])  # z1 over basis {1, z1}
    return SosCertificate(
        p=one,
        p_tilde=one.reflect(),
        gram_a=gram_from_factors([a], 0, 1),
        gram_b=gram_from_factors([b], 1, 0),
        a_polys=[a],
        b_polys=[b],
        residual=0.0,
        iterations=0,
        seed=0,
        tol=1e-12,
    )


def random_pairs(rng, count, radius=0.9):
    pts = radius * (rng.uniform(-1, 1, (count, 4)) + 1j * rng.uniform(-1, 1, (count, 4))) / SQRT2
    return (pts[:, 0], pts[:, 1]), (pts[:, 2], pts[:, 3])


class TestMonomialProductBundle:
    def test_f_is_the_product_of_coordinates(self, raw_bundle):
        bundle = raw_bundle(telescoping_certificate())
        assert bundle.eval_f(0.5, 0.5) == pytest.approx(0.25)
        rng = np.random.default_rng(201)
        z, _ = random_pairs(rng, 50)
        assert np.max(np.abs(bundle.eval_f(*z) - z[0] * z[1])) <= 1e-14

    def test_first_kernel_is_constant_one(self, raw_bundle):
        bundle = raw_bundle(telescoping_certificate())
        rng = np.random.default_rng(203)
        z, w = random_pairs(rng, 50)
        assert np.max(np.abs(bundle.K(1, z, w) - 1.0)) <= 1e-14

    def test_second_kernel_is_first_coordinate_pairing(self, raw_bundle):
        bundle = raw_bundle(telescoping_certificate())
        rng = np.random.default_rng(205)
        z, w = random_pairs(rng, 50)
        assert np.max(np.abs(bundle.K(2, z, w) - z[0] * np.conj(w[0]))) <= 1e-14

    def test_difference_kernels_telescope(self, raw_bundle):
        bundle = raw_bundle(telescoping_certificate())
        rng = np.random.default_rng(207)
        z, w = random_pairs(rng, 50)
        assert np.max(np.abs(bundle.L(1, z, w) - z[1])) <= 1e-14
        assert np.max(np.abs(bundle.L(2, z, w) - w[0])) <= 1e-14

    def test_full_verification_passes_exactly(self):
        bundle = KernelBundle.from_certificate(telescoping_certificate())
        report = verify_decomposition(bundle, samples=300, seed=7, tol=1e-10)
        assert report.passed
        assert report.identity1_max <= 1e-12


class TestHandCertificateKernels:
    def hand_bundle(self):
        return KernelBundle(CLASSIC, [HAND_A], [HAND_B])

    def test_first_kernel_closed_form(self):
        # K1(z, w) = 2 (1 - z2)(1 - conj(w2)) / (p(z) conj(p(w)))
        bundle = self.hand_bundle()
        rng = np.random.default_rng(209)
        z, w = random_pairs(rng, 100)
        expected = (
            2.0 * (1 - z[1]) * (1 - np.conj(w[1]))
            / (CLASSIC(*z) * np.conj(CLASSIC(*w)))
        )
        assert np.max(np.abs(bundle.K(1, z, w) - expected)) <= 1e-13

    def test_diagonal_slice_of_f_is_negated_identity(self):
        bundle = self.hand_bundle()
        for t in np.linspace(-0.9, 0.9, 19):
            assert bundle.eval_f(t, t) == pytest.approx(-t, abs=1e-12)

    def test_f_vanishes_at_origin(self):
        assert self.hand_bundle().eval_f(0.0, 0.0) == pytest.approx(0.0)

    def test_difference_kernel_at_origin_matches_partial_derivative(self):
        # f = p~/p gives df/dz1(0,0) = (p dp~/dz1 - p~ dp/dz1)/p^2 = -1/2
        bundle = self.hand_bundle()
        assert bundle.L(1, (0.0, 0.0), (0.0, 0.0)) == pytest.approx(-0.5)

    def test_diagonal_difference_kernel_equals_gradient(self):
        bundle = self.hand_bundle()
        p, pt = CLASSIC, CLASSIC.reflect()
        rng = np.random.default_rng(211)
        z, _ = random_pairs(rng, 100)
        for j in (1, 2):
            dp = p.derivative(j)
            dpt = pt.derivative(j)
            quotient = (p(*z) * dpt(*z) - pt(*z) * dp(*z)) / p(*z) ** 2
            assert np.max(np.abs(bundle.L(j, z, z) - quotient)) <= 1e-8


class TestDomainGuards:
    def test_evaluation_outside_bidisk_is_rejected(self):
        bundle = KernelBundle(CLASSIC, [HAND_A], [HAND_B])
        with pytest.raises(DomainError):
            bundle.eval_f(1.5, 0.0)

    def test_evaluation_at_boundary_zero_is_rejected(self):
        bundle = KernelBundle(CLASSIC, [HAND_A], [HAND_B])
        with pytest.raises(DomainError):
            bundle.eval_f(1.0, 1.0)

    def test_invalid_kernel_index(self):
        bundle = KernelBundle(CLASSIC, [HAND_A], [HAND_B])
        with pytest.raises(ValueError):
            bundle.K(3, (0.0, 0.0), (0.0, 0.0))

    def test_verify_requires_at_least_one_sample(self):
        bundle = KernelBundle.from_certificate(telescoping_certificate())
        with pytest.raises(ValueError):
            verify_decomposition(bundle, samples=0)

    @pytest.mark.parametrize(
        "check, message",
        [
            (verify_decomposition, "need at least one sample pair"),
            (check_bounds, "need at least one sample point"),
        ],
        ids=["verify_decomposition", "check_bounds"],
    )
    def test_zero_samples_are_refused_by_name(self, check, message):
        bundle = KernelBundle.from_certificate(telescoping_certificate())
        with pytest.raises(ValueError, match=message):
            check(bundle, samples=0)


@pytest.fixture(scope="module")
def classic_cert():
    return solve_gram(CLASSIC, tol=1e-8, seed=42)


@pytest.fixture(scope="module")
def classic_bundle(classic_cert):
    return KernelBundle.from_certificate(classic_cert)


class TestOnePointSetOneTable:
    """A batched call evaluates each point on its own, so it gives one-point values exactly.

    The one-point calls take length-1 arrays, as numpy multiplies scalars by
    another routine, and the vectors here hold at most two factors, as numpy
    sums a longer one-point vector in another order.
    """

    def check(self, bundle, seed):
        z, w = random_pairs(np.random.default_rng(seed), 40)
        points = [((z[0][i:i + 1], z[1][i:i + 1]), (w[0][i:i + 1], w[1][i:i + 1])) for i in range(40)]
        assert np.array_equal(bundle.eval_f(*z), np.concatenate([bundle.eval_f(*zi) for zi, _ in points]))
        for j in (1, 2):
            for kernel in (bundle.K, bundle.L):
                single = np.concatenate([kernel(j, zi, wi) for zi, wi in points])
                assert np.array_equal(kernel(j, z, w), single)

    @pytest.mark.parametrize("symmetrized", [False, True])
    def test_certificate_bundle(self, classic_cert, raw_bundle, symmetrized):
        bundle = KernelBundle.from_certificate(classic_cert) if symmetrized else raw_bundle(classic_cert)
        self.check(bundle, 215)

    def test_hand_bundle(self):
        self.check(KernelBundle(CLASSIC, [HAND_A], [HAND_B]), 217)


def random_bundle(rng, n, m, factors=3):
    """A bundle of random complex polynomials at bidegree (n, m); no certificate behind it."""

    def poly(rows, cols):
        return BivariatePolynomial(rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))

    a_vec = [poly(n, m + 1) for _ in range(factors)] if n > 0 else []
    b_vec = [poly(n + 1, m) for _ in range(factors)] if m > 0 else []
    return KernelBundle(poly(n + 1, m + 1), a_vec, b_vec)


def closed_bidisk_points(rng, count):
    """Uniform points of the closed bidisk, the first eight with |z1| = 1 or |z2| = 1."""
    radius = np.sqrt(rng.uniform(size=(count, 2)))
    radius[:4, 0] = radius[2:6, 1] = 1.0
    pts = radius * np.exp(2j * np.pi * rng.uniform(size=(count, 2)))
    return pts[:, 0], pts[:, 1]


BIDEGREES = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2), (3, 3), (4, 2), (5, 5), (6, 6)]


class TestMonomialTable:
    """The table, on its own, is one monomial table times one coefficient matrix."""

    @pytest.mark.parametrize("bidegree", BIDEGREES)
    def test_table_is_batch_invariant(self, bidegree):
        rng = np.random.default_rng(sum(bidegree) + 31)
        bundle = random_bundle(rng, *bidegree)
        z1, z2 = closed_bidisk_points(rng, 500)
        full = bundle._table(z1, z2)
        for step in (1, 7):
            parts = [bundle._table(z1[i:i + step], z2[i:i + step]) for i in range(0, 500, step)]
            for k, stack in enumerate(full):
                assert np.array_equal(stack, np.concatenate([part[k] for part in parts], axis=-1))
        for i in range(0, 500, 50):  # scalar points
            for stack, lone in zip(full, bundle._table(z1[i], z2[i])):
                assert np.array_equal(stack[:, i], lone)

    @pytest.mark.parametrize("bidegree", BIDEGREES)
    def test_table_matches_horner_within_rounding(self, bidegree):
        n, m = bidegree
        rng = np.random.default_rng(sum(bidegree) + 37)
        bundle = random_bundle(rng, n, m)
        z1, z2 = closed_bidisk_points(rng, 500)
        coeffs = bundle._matrix.reshape(n + 1, m + 1, -1)
        horner = polyval2d(z1, z2, coeffs)
        majorant = polyval2d(np.abs(z1), np.abs(z2), np.abs(coeffs))
        error = np.abs(np.concatenate(bundle._table(z1, z2)) - horner)
        assert np.all(error <= 8 * (n + m + 2) * np.finfo(float).eps * majorant)

    @pytest.mark.parametrize("poly", [CLASSIC, PRODUCT_22])
    def test_psd_min_eig_matches_independent_subset_tables(self, poly):
        bundle = KernelBundle.from_certificate(solve_gram(poly, tol=1e-9, seed=42))
        report = verify_decomposition(bundle, samples=60, seed=8)
        rng = np.random.default_rng(8)
        zs = random_polydisk(rng, 60, 2, SAMPLE_RADIUS)
        random_polydisk(rng, 60, 2, SAMPLE_RADIUS)  # the w samples
        least = np.inf
        for _ in range(PSD_SUBSETS):
            idx = rng.choice(60, size=PSD_SUBSET_SIZE, replace=False)
            z1, z2 = zs[idx, 0], zs[idx, 1]
            for j in (1, 2):
                grid = bundle.K(j, (z1[:, None], z2[:, None]), (z1[None, :], z2[None, :]))
                least = min(least, np.linalg.eigvalsh(0.5 * (grid + grid.conj().T))[0])
        assert report.psd_min_eig == least


class TestVerification:
    def test_solver_certificate_verifies(self, classic_cert):
        bundle = KernelBundle.from_certificate(classic_cert)
        report = verify_decomposition(bundle, samples=500, seed=1234, tol=1e-8)
        assert report.passed
        assert report.identity1_max <= 1e-8
        assert report.identity2_max <= 1e-8
        assert report.cs_max_violation <= 1e-8
        assert report.psd_min_eig >= -1e-8

    def test_report_carries_witnesses_of_worst_points(self, classic_cert):
        bundle = KernelBundle.from_certificate(classic_cert)
        report = verify_decomposition(bundle, samples=100, seed=5, tol=1e-8)
        checks = {wit["check"] for wit in report.witnesses}
        assert checks == {"identity_pick", "identity_difference", "cauchy_schwarz"}

    def test_unsymmetrized_vectors_break_cauchy_schwarz(self, raw_bundle):
        # the pointwise bound needs reflection-closed vectors; the raw
        # one-sided factors satisfy both identities but not the bound
        raw = raw_bundle(solve_gram(PRODUCT_22, tol=1e-8, seed=42))
        report = verify_decomposition(raw, samples=500, seed=1234, tol=1e-8)
        assert report.identity1_max <= 1e-8
        assert report.identity2_max <= 1e-8
        assert report.cs_max_violation > 1e-6
        assert not report.passed

    def test_classic_one_sided_factors_meet_the_bound_with_equality(self, classic_cert, raw_bundle):
        # A1 = alpha (1 - z2) and its reflection conj(alpha) (z2 - 1) have equal
        # moduli, and so do B1 and its reflection, so |L_j(z, w)|^2 = K_j(z, z) K_j(w, w);
        # the Gram pair touches the PSD cone tangentially, so the computed
        # factors are off by about sqrt(eps) and the equality holds to about 1e-7
        raw = raw_bundle(classic_cert)
        z = (np.array([0.3, -0.5j, 0.1 + 0.6j, -0.7]), np.array([-0.4, 0.2, 0.5j, 0.6 - 0.2j]))
        w = (np.array([0.5j, 0.2 - 0.3j, -0.6, 0.0]), np.array([0.1, -0.8j, 0.3, 0.4 + 0.4j]))
        for j in (1, 2):
            bound = raw.K(j, z, z).real * raw.K(j, w, w).real
            np.testing.assert_allclose(np.abs(raw.L(j, z, w)) ** 2, bound, rtol=1e-6)

    def test_raw_telescoping_bundle_fails_the_bound_badly(self, raw_bundle):
        # with the one-sided vectors, L2(z, w) = w1 while K2(z, z) = |z1|^2,
        # so the bound collapses whenever z1 is small and w1 is not
        raw = raw_bundle(telescoping_certificate())
        z, w = (0.1, 0.0), (0.95, 0.0)
        violation = abs(raw.L(2, z, w)) ** 2 - raw.K(2, z, z).real * raw.K(2, w, w).real
        assert violation > 0.8
        report = verify_decomposition(raw, samples=300, seed=7, tol=1e-8)
        assert report.cs_max_violation > 0.1
        assert not report.passed

    def test_scaled_gram_corruption_is_detected_proportionally(self, classic_cert):
        corrupt = SosCertificate.from_json(classic_cert.to_json())
        corrupt.gram_a = corrupt.gram_a * 1.01
        bundle = KernelBundle.from_certificate(corrupt)
        report = verify_decomposition(bundle, samples=500, seed=1234, tol=1e-8)
        assert not report.passed
        assert 1e-3 <= report.identity1_max <= 1.0

    def test_entry_corruption_is_detected(self, classic_cert):
        corrupt = SosCertificate.from_json(classic_cert.to_json())
        tampered = corrupt.gram_b.copy()
        tampered[0, 1] += 0.02
        tampered[1, 0] += 0.02
        corrupt.gram_b = tampered
        bundle = KernelBundle.from_certificate(corrupt)
        report = verify_decomposition(bundle, samples=500, seed=1234, tol=1e-8)
        assert not report.passed

    def test_verification_is_deterministic(self, classic_cert):
        bundle = KernelBundle.from_certificate(classic_cert)
        r1 = verify_decomposition(bundle, samples=200, seed=55, tol=1e-8)
        r2 = verify_decomposition(bundle, samples=200, seed=55, tol=1e-8)
        assert r1.to_json() == r2.to_json()


class TestBounds:
    def test_diagonal_growth_bound(self, classic_bundle):
        report = check_bounds(classic_bundle, samples=1000, seed=99)
        assert report.passed
        assert report.bound_margin >= -1e-9

    def test_decomposition_terms_do_not_exceed_schur_defect(self, classic_bundle):
        # (1 - |z_j|^2) K_j(z,z) <= 1 - |f(z)|^2 because both terms are nonnegative
        report = check_bounds(classic_bundle, samples=1000, seed=99)
        assert report.sum_defect_max <= 1e-9

    def test_explicit_bound_at_a_deep_point(self, classic_bundle):
        z = (0.9, 0.9)
        for j, cap in ((1, 1.0 / (1 - 0.81)), (2, 1.0 / (1 - 0.81))):
            value = classic_bundle.K(j, z, z).real
            assert value <= cap + 1e-9

    def test_monomial_product_bound_is_structural(self):
        # for f = z1 z2 the second kernel is |z1|^2 <= 1/(1 - |z2|^2) trivially
        bundle = KernelBundle.from_certificate(telescoping_certificate())
        report = check_bounds(bundle, samples=500, seed=3)
        assert report.passed

    def test_one_point_set_and_no_cauchy_schwarz_field(self, classic_bundle, monkeypatch):
        # Cauchy-Schwarz needs point pairs and is verify_decomposition's check
        draws, tables = [], []
        draw, table = kernels.random_polydisk, KernelBundle._table

        def spy_draw(*args):
            draws.append(args[1])
            return draw(*args)

        def spy_table(self, z1, z2):
            tables.append(np.size(z1))
            return table(self, z1, z2)

        monkeypatch.setattr(kernels, "random_polydisk", spy_draw)
        monkeypatch.setattr(KernelBundle, "_table", spy_table)
        report = check_bounds(classic_bundle, samples=200, seed=17)
        monkeypatch.undo()
        assert draws == [200] and tables == [200]
        assert "cs_max_violation" not in report.to_json()
        assert not hasattr(report, "cs_max_violation")

        zs = random_polydisk(np.random.default_rng(17), 200, 2, SAMPLE_RADIUS)
        z = (zs[:, 0], zs[:, 1])
        residual = 1.0 - np.abs(classic_bundle.eval_f(*z)) ** 2
        margins, defects = [], []
        for j in (1, 2):
            k = classic_bundle.K(j, z, z).real
            room = 1.0 - np.abs(z[j - 1]) ** 2
            margins.append((1.0 / room - k).min())
            defects.append((room * k - residual).max())
        assert report.bound_margin == min(margins)
        assert report.sum_defect_max == max(defects)

    def test_report_serialization(self, classic_bundle):
        report = check_bounds(classic_bundle, samples=100, seed=99)
        obj = report.to_json()
        assert obj["format"] == "aglerkit/1"
        assert obj["passed"] is True
