"""Tests for the bidisk zero-freeness scan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aglerkit.poly2 import BivariatePolynomial
from aglerkit.stability import (
    INCONCLUSIVE,
    STABLE_CLOSED_STRICT,
    STABLE_OPEN,
    ZERO_FOUND,
    StabilityReport,
    check_stability,
)


CLASSIC = BivariatePolynomial([[2.0, -1.0], [-1.0, 0.0]])  # 2 - z1 - z2
LINE = BivariatePolynomial([[1.0], [-1.0]])  # 1 - z1


class TestVerdicts:
    def test_classic_is_stable_on_open_bidisk(self):
        # zero at the corner (1, 1) but none inside, so the open verdict applies
        report = check_stability(CLASSIC, torus_grid=128, disk_grid=16)
        assert report.verdict == STABLE_OPEN
        assert report.witness is None
        assert report.stable

    def test_classic_boundary_zero_shows_in_torus_minimum(self):
        # the grid contains (1, 1), where the polynomial vanishes, yet the
        # verdict stays StableOpen because boundary zeros do not disqualify
        report = check_stability(CLASSIC, torus_grid=64, disk_grid=8)
        assert report.min_modulus <= 1e-12
        assert report.verdict == STABLE_OPEN

    def test_constant_one_is_strictly_stable(self):
        one = BivariatePolynomial.constant(1.0, bidegree=(1, 1))
        report = check_stability(one, torus_grid=64, disk_grid=8)
        assert report.verdict == STABLE_CLOSED_STRICT

    def test_interior_zero_is_found_with_witness(self):
        # z1 - 1/2 vanishes on the whole slice z1 = 1/2
        p = BivariatePolynomial([[-0.5], [1.0]])
        report = check_stability(p, torus_grid=64, disk_grid=8)
        assert report.verdict == ZERO_FOUND
        assert abs(report.witness[0] - 0.5) < 1e-6
        assert abs(p(*report.witness)) <= report.tolerance

    def test_product_with_unstable_factor_is_flagged(self):
        # (2 - z1 - z2)(z1 - 1/2) has the same interior zero slice
        p = CLASSIC * BivariatePolynomial([[-0.5], [1.0]])
        report = check_stability(p, torus_grid=64, disk_grid=8)
        assert report.verdict == ZERO_FOUND

    def test_shifted_classic_is_strictly_stable(self):
        # 4 - z1 - z2 has modulus >= 2 on the closed bidisk
        p = BivariatePolynomial([[4.0, -1.0], [-1.0, 0.0]])
        report = check_stability(p, torus_grid=64, disk_grid=8)
        assert report.verdict == STABLE_CLOSED_STRICT
        assert report.min_modulus >= 2.0 - 1e-9

    def test_degenerate_slice_reports_zero(self):
        # z1 * z2 vanishes identically in z2 at z1 = 0
        p = BivariatePolynomial.monomial(1, 1)
        report = check_stability(p, torus_grid=64, disk_grid=8)
        assert report.verdict == ZERO_FOUND
        assert abs(p(*report.witness)) <= report.tolerance


def power(p, k):
    result = BivariatePolynomial.constant(1.0)
    for _ in range(k):
        result = result * p
    return result


class TestBoundaryZeros:
    """A zero on the boundary never counts as a zero in the open bidisk."""

    def test_boundary_zero_line_is_stable_open(self):
        # the slice z1 = 1 vanishes identically; it is a torus slice
        report = check_stability(-LINE)
        assert report.verdict == STABLE_OPEN
        assert report.min_modulus == 0.0

    def test_boundary_line_times_classic_is_stable_open(self):
        assert check_stability(LINE * CLASSIC).verdict == STABLE_OPEN

    @pytest.mark.parametrize(
        "p", [power(CLASSIC, 3), power(CLASSIC, 4), power(LINE, 3)],
        ids=["classic_cubed", "classic_4th", "line_cubed"],
    )
    def test_multiple_boundary_zeros_are_inconclusive(self, p):
        # rounding splits a multiple boundary zero into slice roots just
        # inside: on torus slices for the powers of 2 - z1 - z2, on interior
        # ones for (1 - z1)**3, where the disk about them reaches the boundary
        assert check_stability(p).verdict == INCONCLUSIVE

    def test_zero_found_witnesses_are_strictly_inside(self):
        rng = np.random.default_rng(53)
        polys = [BivariatePolynomial([[-0.5], [1.0]]), BivariatePolynomial.monomial(1, 1)]
        for n, m in rng.integers(1, 4, size=(20, 2)):
            polys.append(BivariatePolynomial(
                rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            ))
        found = 0
        for p in polys:
            report = check_stability(p, torus_grid=64, disk_grid=8)
            if report.verdict == ZERO_FOUND:
                found += 1
                assert max(abs(report.witness[0]), abs(report.witness[1])) < 1.0
        assert found >= 10

    def test_multiple_interior_zero_is_still_found(self):
        # (z1 + z2 - 1.99)**2 vanishes doubly at z1 = z2 = 0.995
        q = BivariatePolynomial([[-1.99, 1.0], [1.0, 0.0]])
        report = check_stability(q * q)
        assert report.verdict == ZERO_FOUND
        assert max(abs(report.witness[0]), abs(report.witness[1])) < 1.0

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.lists(
        st.tuples(
            st.one_of(st.just(1.0), st.floats(0.0, 1.0)),  # |b| + |c|, 1: equality
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),  # |b| share
            st.booleans(),  # b and c share a phase
            st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
        ),
        min_size=1, max_size=4,
    ))
    def test_products_of_stable_linear_factors_are_never_zero_found(self, factors):
        # a - b z1 - c z2 with |b| + |c| <= |a| has no zero in the open bidisk
        p = BivariatePolynomial.constant(1.0)
        for total, share, aligned, turn_a, turn_b, turn_c in factors:
            phase_a, phase_b = np.exp(2j * np.pi * turn_a), np.exp(2j * np.pi * turn_b)
            phase_c = phase_b if aligned else np.exp(2j * np.pi * turn_c)
            b, c = total * share * phase_b, total * (1.0 - share) * phase_c
            p = p * BivariatePolynomial(phase_a * np.array([[1.0, -c], [-b, 0.0]]))
        report = check_stability(p, torus_grid=128, disk_grid=16)
        assert report.verdict != ZERO_FOUND


class TestSelfConsistency:
    def test_witness_always_confirms_numerically(self):
        rng = np.random.default_rng(41)
        found = 0
        for _ in range(20):
            c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            p = BivariatePolynomial(c)
            report = check_stability(p, torus_grid=32, disk_grid=8)
            if report.verdict == ZERO_FOUND:
                found += 1
                scale = max(1.0, float(np.max(np.abs(c))))
                assert abs(p(*report.witness)) <= report.tolerance * scale
                assert abs(report.witness[0]) <= 1.0 + 1e-9
                assert abs(report.witness[1]) <= 1.0 + 1e-9
        assert found > 0  # random bidegree-(1,1) polynomials usually have bidisk zeros

    def test_refining_grids_never_loses_a_zero(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            p = BivariatePolynomial(c)
            coarse = check_stability(p, torus_grid=32, disk_grid=8)
            if coarse.verdict == ZERO_FOUND:
                fine = check_stability(p, torus_grid=64, disk_grid=16)
                assert fine.verdict == ZERO_FOUND

    def test_rational_inner_quotient_is_bounded_by_one(self):
        # for stable p the quotient reflect(p)/p has modulus <= 1 inside the bidisk
        rng = np.random.default_rng(47)
        for p in (CLASSIC, BivariatePolynomial([[4.0, -1.0], [-1.0, 0.0]])):
            q = p.reflect()
            pts = rng.uniform(-1, 1, size=(10000, 4))
            z1 = 0.7 * (pts[:, 0] + 1j * pts[:, 1])
            z2 = 0.7 * (pts[:, 2] + 1j * pts[:, 3])
            ratio = np.abs(q(z1, z2) / p(z1, z2))
            assert np.max(ratio) <= 1.0 + 1e-10


    def test_torus_minimum_matches_direct_evaluation(self):
        # min_modulus comes from the slice rows; evaluate p on the meshgrid instead
        rng = np.random.default_rng(49)
        polys = [CLASSIC, LINE, CLASSIC * CLASSIC * LINE]
        polys += [BivariatePolynomial(rng.standard_normal((n + 1, m + 1))
                                      + 1j * rng.standard_normal((n + 1, m + 1)))
                  for n, m in ((1, 3), (3, 1), (4, 4), (6, 2))]
        for p in polys:
            for torus_grid in (32, 128):
                torus = np.exp(2j * np.pi * np.arange(torus_grid) / torus_grid)
                direct = np.min(np.abs(p(*np.meshgrid(torus, torus, indexing="ij"))))
                report = check_stability(p, torus_grid=torus_grid, disk_grid=8)
                bound = 4 * np.finfo(float).eps * np.sum(np.abs(p.coeffs))
                assert abs(report.min_modulus - direct) <= bound


class TestValidation:
    def test_zero_polynomial_is_rejected(self):
        with pytest.raises(ValueError):
            check_stability(BivariatePolynomial.zero((1, 1)))

    def test_too_coarse_grids_are_rejected(self):
        with pytest.raises(ValueError):
            check_stability(CLASSIC, torus_grid=2, disk_grid=8)

    def test_report_serialization(self):
        report = check_stability(CLASSIC, torus_grid=64, disk_grid=8)
        obj = report.to_json()
        assert obj["verdict"] == STABLE_OPEN
        assert obj["witness"] is None
        assert obj["torus_grid"] == 64
        zero = check_stability(BivariatePolynomial([[-0.5], [1.0]]), torus_grid=64, disk_grid=8)
        obj2 = zero.to_json()
        assert isinstance(obj2["witness"][0], list)

    def test_inconclusive_verdict_exists_for_reports(self):
        report = StabilityReport(
            verdict=INCONCLUSIVE,
            witness=(0.5 + 0j, 0.5 + 0j),
            min_modulus=0.1,
            min_root_modulus=0.9,
            torus_grid=8,
            disk_grid=4,
            tolerance=1e-9,
        )
        assert not report.stable
