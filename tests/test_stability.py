"""Tests for the bidisk zero-freeness scan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aglerkit.stability
from aglerkit.poly2 import BivariatePolynomial
from aglerkit.stability import (
    INCONCLUSIVE,
    STABLE_CLOSED_STRICT,
    STABLE_OPEN,
    ZERO_FOUND,
    StabilityReport,
    _fixed_samples,
    _scan,
    _zero_reach,
    check_stability,
    roots_rows,
)
from aglerkit.serialize import canonical_dumps


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


def assert_matches_full_scan(p, torus_grid=128, disk_grid=16):
    """Check the scan's report against one that eigensolves every non-flat slice.

    Every slice row of both orders goes through roots_rows, in scan order.
    A row proposes its smallest root when that lies inside 1 - tol, and an
    interior flat row proposes 0.  The ZeroFound witness is the first
    interior proposal that _zero_reach confirms, an Inconclusive witness the
    last proposal, and a stable verdict has none; StableClosedStrict needs
    every root beyond 1 + tol.  check_stability must give the same report.
    """
    report = _scan(p, torus_grid, disk_grid)
    assert_same_report(check_stability(p, torus_grid, disk_grid), report)
    samples = _fixed_samples(torus_grid, disk_grid)
    tol, scale = report.tolerance, np.max(np.abs(p.coeffs))
    powers = samples.reshape(-1, 1) ** np.arange(max(p.coeffs.shape))
    interior = np.arange(samples.size) >= torus_grid
    row_min, proposals, along_z1 = [], [], []
    for half, grid in enumerate((p.coeffs, p.coeffs.T)):
        coeffs = powers[:, : grid.shape[0]] @ grid
        flat = np.max(np.abs(coeffs), axis=1) <= tol * scale
        roots = np.full((samples.size, max(grid.shape[1] - 1, 1)), np.nan, dtype=complex)
        roots[~flat, : grid.shape[1] - 1] = roots_rows(coeffs[~flat], lead_tol=1e-13)
        moduli = np.nan_to_num(np.abs(roots), nan=np.inf)
        row_min.append(np.min(moduli, axis=1))
        for r in np.flatnonzero((flat & interior) | (row_min[-1] < 1.0 - tol)):
            root = 0j if flat[r] else roots[r, np.argmin(moduli[r])]
            point = (root, samples[r]) if half else (samples[r], root)
            proposals.append((half * samples.size + r, point))
            along_z1.append(bool(half) != flat[r])
    row_min = np.concatenate(row_min)
    rows = np.array([r for r, _ in proposals], dtype=int)
    points = np.array([point for _, point in proposals], dtype=complex).reshape(-1, 2)
    modulus, reach = _zero_reach(p, points[:, 0], points[:, 1], np.array(along_z1, dtype=bool))
    confirmed = (modulus <= tol * max(1.0, scale)) & (reach < 1.0) & np.tile(interior, 2)[rows]
    if np.any(confirmed):
        k = np.argmax(confirmed)
        assert (report.verdict, report.witness) == (ZERO_FOUND, proposals[k][1])
    elif proposals:
        assert (report.verdict, report.witness) == (INCONCLUSIVE, proposals[-1][1])
    else:
        assert report.stable and report.witness is None
        strict = np.min(row_min) > 1.0 + report.tolerance and report.min_modulus > report.tolerance
        assert (report.verdict == STABLE_CLOSED_STRICT) == strict
    return report


def assert_same_report(report, scanned):
    """Byte-identical reports, the witness to the sign of zero."""
    assert canonical_dumps(report.to_json()) == canonical_dumps(scanned.to_json())
    assert np.array(report.witness or ()).tobytes() == np.array(scanned.witness or ()).tobytes()


def random_strictly_stable(rng, n, m):
    """1 + c with c(0, 0) = 0 and sum |c| = 2/3: no zero on the closed bidisk."""
    c = rng.standard_normal((n + 1, m + 1)) + 1j * rng.standard_normal((n + 1, m + 1))
    c[0, 0] = 0.0
    c *= (2.0 / 3.0) / np.sum(np.abs(c))
    c[0, 0] = 1.0
    return BivariatePolynomial(c)


CORPUS = [
    CLASSIC,
    BivariatePolynomial([[4.0, -1.0], [-1.0, 0.0]]),
    BivariatePolynomial([[8.0, -6.0, 1.0], [-6.0, 2.0, 0.0], [1.0, 0.0, 0.0]]),
    BivariatePolynomial([[4.0, -1.0, -1.0], [-1.0, 0.0, 0.0]]),
    BivariatePolynomial([[8.0, -2.0, 0.0, 0.0], [-1.0, 0.0, -1.0, 0.0],
                         [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0]]),
]


class TestScreenedScan:
    """Interior slices screened out by Cauchy's bound never change a report."""

    @pytest.mark.parametrize("grids", [(128, 16), (512, 64)])
    def test_corpus(self, grids):
        for p in CORPUS:
            assert_matches_full_scan(p, *grids)

    @pytest.mark.parametrize("degree", range(1, 7))
    def test_random_strictly_stable(self, degree):
        rng = np.random.default_rng(100 + degree)
        for n, m in ((degree, degree), (degree, 1 + degree % 3)):
            report = assert_matches_full_scan(random_strictly_stable(rng, n, m))
            assert report.verdict == STABLE_CLOSED_STRICT

    @pytest.mark.parametrize("k", range(1, 5))
    def test_boundary_powers(self, k):
        report = assert_matches_full_scan(power(CLASSIC, k))
        assert report.verdict in (STABLE_OPEN, INCONCLUSIVE)

    def test_interior_inconclusive_proposal(self):
        # (1 - z1)**3 splits into roots just inside on interior slices
        assert assert_matches_full_scan(power(LINE, 3), 512, 64).verdict == INCONCLUSIVE

    def test_zero_found_inputs(self):
        rng = np.random.default_rng(59)
        near_edge = BivariatePolynomial([[1.9, -1.0], [-1.0, 0.0]])  # zero at (0.95, 0.95)
        polys = [BivariatePolynomial([[-0.5], [1.0]]),  # the whole slice z1 = 1/2
                 BivariatePolynomial.monomial(1, 1),  # degenerate slice at z1 = 0
                 CLASSIC * BivariatePolynomial([[-0.5], [1.0]]),
                 near_edge, near_edge * CLASSIC]
        for n, m in rng.integers(1, 5, size=(16, 2)):
            polys.append(BivariatePolynomial(rng.standard_normal((n + 1, m + 1))
                                             + 1j * rng.standard_normal((n + 1, m + 1))))
        found = [assert_matches_full_scan(p).verdict == ZERO_FOUND for p in polys]
        assert all(found[:5]) and sum(found) >= 14

    def test_interior_rows_are_mostly_screened_out(self, monkeypatch):
        seen = []

        def spy(rows, lead_tol=0.0):
            seen.append(len(rows))
            return roots_rows(rows, lead_tol=lead_tol)

        monkeypatch.setattr(aglerkit.stability, "roots_rows", spy)
        p = random_strictly_stable(np.random.default_rng(3), 3, 3)
        report = _scan(p)
        rows = 2 * (512 + 1 + 64 * 64)  # 9,218 slices
        assert report.verdict == STABLE_CLOSED_STRICT
        assert sum(seen) <= 0.2 * rows


def scanned_rows(monkeypatch):
    """Collects the row batches check_stability hands to roots_rows: the scan makes
    at least two calls per variable order, the shortcuts at most one in all."""
    seen = []

    def spy(rows, lead_tol=0.0):
        seen.append(np.array(rows))
        return roots_rows(rows, lead_tol=lead_tol)

    monkeypatch.setattr(aglerkit.stability, "roots_rows", spy)
    return seen


class TestShortcuts:
    """The z1 = 0 slice and the Schur-Cohn test decide inputs exactly as the scan does."""

    @pytest.mark.parametrize("p, tol, scanned", [
        (BivariatePolynomial([[4.0], [-1.0], [0.5]]), 1e-9, False),  # (2, 0), roots 2.83
        (BivariatePolynomial([[4.0, -1.0, 0.5]]), 1e-9, False),  # (0, 2)
        (BivariatePolynomial([[2.0 - 1.0j]]), 1e-9, False),  # (0, 0)
        (BivariatePolynomial.constant(1.0, bidegree=(1, 1)), 1e-9, False),
        (BivariatePolynomial([[3.0, 0.0], [1.0, -1.0]]), 1e-9, False),  # 3 + z1 (1 - z2)
        (BivariatePolynomial([[4.0, -1.0], [-1.0, 0.0]]), 0.0, False),
        (BivariatePolynomial([[-0.5, 1.0]]), 1e-9, False),  # z2 - 1/2: a zero on p(0, .)
        (BivariatePolynomial([[-0.5], [1.0]]), 1e-9, True),  # z1 - 1/2: p(0, .) is constant
        (BivariatePolynomial([[1.0], [-1.0]]), 1e-9, True),  # 1 - z1: a boundary zero
        (BivariatePolynomial([[1.0, -1.0]]), 0.0, True),  # 1 - z2
        (BivariatePolynomial([[0.0, 0.0], [0.0, 1.0]]), 0.0, False),  # z1 z2: p(0, .) vanishes
    ], ids=["n0", "0m", "00", "padded_one", "lead_vanishes", "tol_zero", "zero_on_axis",
            "zero_off_axis", "boundary_n0", "boundary_0m", "flat_axis"])
    def test_edge_cases_get_the_scan_verdict(self, monkeypatch, p, tol, scanned):
        seen = scanned_rows(monkeypatch)
        report = check_stability(p, torus_grid=64, disk_grid=8, tol=tol)
        assert (len(seen) > 1) == scanned
        assert_same_report(report, _scan(p, 64, 8, tol))

    def test_strict_input_solves_at_most_the_zero_slice(self, monkeypatch):
        # a regression guard that counts instead of timing: the scan eigensolves
        # 1,537 of its 9,218 slices here, the shortcuts at most p(0, .)
        seen = scanned_rows(monkeypatch)
        p = random_strictly_stable(np.random.default_rng(3), 3, 3)
        assert check_stability(p).verdict == STABLE_CLOSED_STRICT
        assert len(seen) <= 1
        for rows in seen:
            assert rows.shape == (1, 4) and np.array_equal(rows[0], p.coeffs[0])

    def test_zero_slice_witnesses_are_the_scans(self, monkeypatch):
        seen = scanned_rows(monkeypatch)
        rng = np.random.default_rng(61)
        shortcut = 0
        for n, m in rng.integers(1, 5, size=(20, 2)):
            p = BivariatePolynomial(rng.standard_normal((n + 1, m + 1))
                                    + 1j * rng.standard_normal((n + 1, m + 1)))
            seen.clear()
            report = check_stability(p, torus_grid=128, disk_grid=16)
            if len(seen) <= 1:
                shortcut += 1
                assert report.verdict == ZERO_FOUND and report.witness[0] == 0.0
            assert_same_report(report, _scan(p, 128, 16))
        assert shortcut >= 10

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.sampled_from(["stable", "gaussian"]),
        st.integers(0, 6), st.integers(0, 6), st.integers(0, 2 ** 32 - 1),
        st.sampled_from([(64, 8), (128, 16), (512, 64)]),
    )
    def test_random_inputs_get_the_scan_report(self, kind, n, m, seed, grids):
        rng = np.random.default_rng(seed)
        if kind == "stable":
            p = random_strictly_stable(rng, max(n, 1), m)  # c(0, 0) = 0 needs a second term
        else:
            n, m = min(n, 4), min(m, 4)
            p = BivariatePolynomial(rng.standard_normal((n + 1, m + 1))
                                    + 1j * rng.standard_normal((n + 1, m + 1)))
        report = check_stability(p, *grids)
        assert_same_report(report, _scan(p, *grids))
        if kind == "stable":
            assert report.verdict == STABLE_CLOSED_STRICT


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
        report = assert_matches_full_scan(p)
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

    @pytest.mark.parametrize("tol", [np.nan, -1.0, 1.0, np.inf])
    def test_tol_outside_unit_interval_is_rejected(self, tol):
        # nan read 1/4 - z1 - z2, zero at (1/8, 1/8), as StableOpen, and -1
        # read the stable 2 - z1 - z2 as Inconclusive
        for p in (BivariatePolynomial([[0.25, -1.0], [-1.0, 0.0]]), CLASSIC):
            with pytest.raises(ValueError):
                check_stability(p, torus_grid=64, disk_grid=8, tol=tol)
        assert check_stability(CLASSIC, torus_grid=64, disk_grid=8, tol=0.0).stable

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
            torus_grid=8,
            disk_grid=4,
            tolerance=1e-9,
        )
        assert not report.stable


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

