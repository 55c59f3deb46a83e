"""Tests for the shared Hermitian linear algebra helpers."""

import numpy as np
import pytest

from aglerkit.numerics import (
    eig_hermitian,
    hermitian_defect,
    hermitize,
    require_hermitian,
    roots_rows,
)


def random_hermitian(rng, order):
    raw = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
    return 0.5 * (raw + raw.conj().T)


class TestHermitianValidation:
    def test_hermitize_produces_zero_defect(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert hermitian_defect(hermitize(raw)) <= 1e-15

    def test_require_hermitian_rejects_skew_input(self):
        with pytest.raises(ValueError):
            require_hermitian(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_require_hermitian_rejects_rectangular_input(self):
        with pytest.raises(ValueError):
            require_hermitian(np.zeros((2, 3)))


class TestEigHermitian:
    def test_identity_eigenvalues(self):
        w, v = eig_hermitian(np.eye(3))
        assert np.allclose(w, [1.0, 1.0, 1.0])
        assert np.allclose(v @ v.conj().T, np.eye(3))

    def test_diagonal_matrix(self):
        w, _ = eig_hermitian(np.diag([-1.0, 2.0]))
        assert np.allclose(w, [-1.0, 2.0])

    def test_singular_two_by_two(self):
        # det = 3/4 * 4/3 - 1 = 0 and trace = 25/12, so the spectrum is {0, 25/12}
        mat = np.array([[0.75, 1.0], [1.0, 4.0 / 3.0]])
        w, _ = eig_hermitian(mat)
        assert w[0] == pytest.approx(0.0, abs=1e-12)
        assert w[1] == pytest.approx(25.0 / 12.0)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            order = int(rng.integers(1, 41))
            mat = random_hermitian(rng, order)
            w, v = eig_hermitian(mat)
            scale = 1.0 + np.linalg.norm(mat)
            assert np.linalg.norm(mat - (v * w) @ v.conj().T) <= 1e-10 * scale
            assert np.linalg.norm(v.conj().T @ v - np.eye(order)) <= 1e-10
            assert np.all(np.diff(w) >= -1e-14)


def roots_univariate(coeffs, lead_tol=0.0):
    """One row through roots_rows, NaN padding dropped."""
    row = roots_rows([coeffs], lead_tol=lead_tol)[0]
    return row[~np.isnan(row)]


class TestRootsUnivariate:
    def test_quadratic_with_real_roots(self):
        roots = np.sort_complex(roots_univariate([-1.0, 0.0, 1.0]))
        assert np.allclose(roots, [-1.0, 1.0])

    def test_affine_slice_root(self):
        # 2 - w, the z2-slice of 2 - z1 - z2 at z1 = 0
        assert np.allclose(roots_univariate([2.0, -1.0]), [2.0])

    def test_quadratic_with_imaginary_roots(self):
        roots = sorted(roots_univariate([1.0, 0.0, 1.0]), key=lambda r: r.imag)
        assert np.allclose(roots, [-1j, 1j])

    def test_constant_polynomial_has_no_roots(self):
        assert roots_univariate([5.0]).size == 0

    def test_zero_polynomial_is_rejected(self):
        with pytest.raises(ValueError):
            roots_univariate([0.0, 0.0])

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_no_rows_give_no_roots(self, k):
        # a stability scan can screen out every interior slice of an order
        roots = roots_rows(np.zeros((0, k), dtype=complex), lead_tol=1e-13)
        assert roots.shape == (0, k - 1)

    def test_trailing_zero_leading_coefficients_are_trimmed(self):
        roots = roots_univariate([2.0, -1.0, 1e-18], lead_tol=1e-12)
        assert roots.size == 1
        assert roots[0] == pytest.approx(2.0)

    def test_residual_at_returned_roots(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            degree = int(rng.integers(1, 13))
            true_roots = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
            coeffs = np.poly(true_roots)[::-1]  # ascending
            scale = np.max(np.abs(coeffs))
            for root in roots_univariate(coeffs):
                value = np.polyval(coeffs[::-1], root)
                assert abs(value) <= 1e-8 * scale * max(1.0, abs(root)) ** degree

    def test_batch_equals_np_roots_row_by_row_bit_for_bit(self):
        # degrees 1-6, leading coefficients under the trim cutoff, exact zero
        # low-order coefficients (roots at 0) and constants, in one batch
        rng = np.random.default_rng(17)
        rows = rng.standard_normal((300, 7)) + 1j * rng.standard_normal((300, 7))
        degree = rng.integers(0, 7, size=300)
        low = rng.integers(0, 4, size=300)
        cols = np.arange(7)
        tiny = 1e-15 * rng.integers(0, 2, size=(300, 1))  # trimmed, or exactly 0
        rows = np.where(cols > degree[:, None], tiny * rows, rows)
        rows[(cols < low[:, None]) & (cols < degree[:, None])] = 0.0
        batch = roots_rows(rows, lead_tol=1e-13)
        assert batch.shape == (300, 6)
        for row, got in zip(rows, batch):
            cutoff = 1e-13 * np.max(np.abs(row))
            d = max(np.flatnonzero(np.abs(row) > cutoff))
            want = np.roots(row[: d + 1][::-1])
            assert np.array_equal(got[: want.size], want)
            assert np.all(np.isnan(got[want.size:]))
        assert set(np.sum(~np.isnan(batch), axis=1)) == set(range(7))

