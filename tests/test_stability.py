"""Tests for the bidisk zero-freeness scan."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aglerkit.sos
import aglerkit.stability
from aglerkit.poly2 import BivariatePolynomial
from aglerkit.stability import (
    INCONCLUSIVE,
    STABLE_CLOSED_STRICT,
    STABLE_OPEN,
    ZERO_FOUND,
    StabilityReport,
    _cauchy_clears,
    _decarlo_strintzis_clears,
    _fixed_samples,
    _sample_powers,
    _schur_cohn_clears,
    _scan,
    _torus_minimum,
    _zero_reach,
    check_stability,
    roots_rows,
)
from aglerkit.serialize import canonical_dumps

import exact


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
        p = BivariatePolynomial([[0, 0], [0, 1]])
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


def linear_product(rng, factors):
    """A product of factors 1 - a z1 - b z2 with |a| + |b| <= 0.9 and random phases: no zero on
    the closed bidisk, and often not dominated by its constant term."""
    p = BivariatePolynomial.constant(1.0)
    for _ in range(factors):
        a, b = rng.uniform(0.0, 0.9) * rng.dirichlet([1.0, 1.0]) * np.exp(2j * np.pi * rng.uniform(size=2))
        p = p * BivariatePolynomial([[1.0, -b], [-a, 0.0]])
    return p


CORPUS = [
    CLASSIC,
    BivariatePolynomial([[4.0, -1.0], [-1.0, 0.0]]),
    BivariatePolynomial([[8.0, -6.0, 1.0], [-6.0, 2.0, 0.0], [1.0, 0.0, 0.0]]),
    BivariatePolynomial([[4.0, -1.0, -1.0], [-1.0, 0.0, 0.0]]),
    BivariatePolynomial([[8.0, -2.0, 0.0, 0.0], [-1.0, 0.0, -1.0, 0.0],
                         [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0]]),
]


class TestScreenedScan:
    """Slices that Cauchy's bound or the Schur-Cohn screen clears never change a report."""

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
                 BivariatePolynomial([[0, 0], [0, 1]]),  # degenerate slice at z1 = 0
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

    @pytest.mark.parametrize("p", [CLASSIC, CORPUS[2]], ids=["classic", "product_22"])
    def test_boundary_zero_inputs_solve_few_rows(self, monkeypatch, p):
        # a regression guard that counts instead of timing: with Cauchy's bound alone these
        # handed 1,024 and 3,348 of their 9,218 slice rows to roots_rows
        seen, screened = scanned_rows(monkeypatch)
        assert check_stability(p).verdict == STABLE_OPEN and screened
        assert sum(len(rows) for rows in seen) <= 32


def scanned_rows(monkeypatch, tol=1e-9):
    """Collects the row batches check_stability hands to roots_rows, and the row counts it
    hands to the scan's Schur-Cohn screen, the one call at radius (1 + tol)(1 + 2^-10): the
    shortcuts' row tests, at their own radius and at 1, are not counted."""
    seen, screened = [], []

    def spy(rows, lead_tol=0.0):
        seen.append(np.array(rows))
        return roots_rows(rows, lead_tol=lead_tol)

    def screen(rows, radius):
        if radius == (1.0 + tol) * (1 + 2.0 ** -10):
            screened.append(len(rows))
        return _schur_cohn_clears(rows, radius)

    monkeypatch.setattr(aglerkit.stability, "roots_rows", spy)
    monkeypatch.setattr(aglerkit.stability, "_schur_cohn_clears", screen)
    return seen, screened


class TestShortcuts:
    """The z1 = 0 slice, Cauchy's bound and the DeCarlo-Strintzis test decide inputs as the scan does."""

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
        _, screened = scanned_rows(monkeypatch, tol)
        report = check_stability(p, torus_grid=64, disk_grid=8, tol=tol)
        assert bool(screened) == scanned
        assert_same_report(report, _scan(p, 64, 8, tol))

    def test_strict_input_solves_at_most_the_zero_slice(self, monkeypatch):
        # a regression guard that counts instead of timing: the shortcuts eigensolve at
        # most p(0, .) and never reach the scan
        seen, screened = scanned_rows(monkeypatch)
        p = random_strictly_stable(np.random.default_rng(3), 3, 3)
        assert check_stability(p).verdict == STABLE_CLOSED_STRICT
        assert len(seen) <= 1 and not screened
        for rows in seen:
            assert rows.shape == (1, 4) and np.array_equal(rows[0], p.coeffs[0])

    def test_zero_slice_witnesses_are_the_scans(self, monkeypatch):
        seen, screened = scanned_rows(monkeypatch)
        rng = np.random.default_rng(61)
        shortcut = 0
        for n, m in rng.integers(1, 5, size=(20, 2)):
            p = BivariatePolynomial(rng.standard_normal((n + 1, m + 1))
                                    + 1j * rng.standard_normal((n + 1, m + 1)))
            seen.clear()
            screened.clear()
            report = check_stability(p, torus_grid=128, disk_grid=16)
            if not screened:
                assert len(seen) <= 1
                shortcut += 1
                assert report.verdict == ZERO_FOUND and report.witness[0] == 0.0
            assert_same_report(report, _scan(p, 128, 16))
        assert shortcut >= 10

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.sampled_from(["stable", "gaussian", "product", "boundary"]),
        st.integers(0, 6), st.integers(0, 6), st.integers(0, 2 ** 32 - 1),
        st.sampled_from([(64, 8), (128, 16), (512, 64)]),
    )
    def test_random_inputs_get_the_scan_report(self, kind, n, m, seed, grids):
        rng = np.random.default_rng(seed)
        if kind == "stable":
            p = random_strictly_stable(rng, max(n, 1), m)  # c(0, 0) = 0 needs a second term
        elif kind == "product":  # strict, and often decided by the DeCarlo-Strintzis test
            p = linear_product(rng, 2 + n % 2)
        elif kind == "boundary" and seed % 2:  # (1, 1) is a zero of multiplicity k
            p = power(CLASSIC, 1 + n % 4)
        elif kind == "boundary":  # 1 - a z1 - b z2 with |a| + |b| = 1 has a zero on the torus
            a, b = rng.dirichlet([1.0, 1.0]) * np.exp(2j * np.pi * rng.uniform(size=2))
            p = linear_product(rng, 1 + m % 2) * BivariatePolynomial([[1.0, -b], [-a, 0.0]])
        else:
            n, m = min(n, 4), min(m, 4)
            p = BivariatePolynomial(rng.standard_normal((n + 1, m + 1))
                                    + 1j * rng.standard_normal((n + 1, m + 1)))
        for grids in [(64, 8), (128, 16), (512, 64)] if kind in ("product", "boundary") else [grids]:
            if kind == "boundary":  # the screen must leave these rows to the eigensolver
                assert_matches_full_scan(p, *grids)
                continue
            report = check_stability(p, *grids)
            assert_same_report(report, _scan(p, *grids))
            if kind != "gaussian":
                assert report.verdict == STABLE_CLOSED_STRICT


def doublings(monkeypatch):
    """Collects the calls of sos._riccati_doubling, which solve_gram makes and check_stability never."""
    calls, doubling = [], aglerkit.sos._riccati_doubling

    def spy(*args):
        calls.append(args)
        return doubling(*args)

    monkeypatch.setattr(aglerkit.sos, "_riccati_doubling", spy)
    return calls


def shortcut_tests(p, tol=1e-9, grids=(128, 16)):
    """Cauchy's bound and the DeCarlo-Strintzis test as _shortcut runs them: on the bidisk of its
    radius, with p scaled as _scan scales it."""
    shift = int(np.frexp(np.max(np.abs(p.coeffs.view(float))))[1]) - 1
    c = np.ldexp(p.coeffs.view(float), -shift).view(complex)
    n, m = p.bidegree
    margin = max(tol, np.finfo(float).eps ** (1.0 / max(n, m, 1)))
    radius, exponents = 1.0 + 2.0 * margin, np.add.outer(np.arange(n + 1), np.arange(m + 1))
    q, torus = c * radius ** exponents, _sample_powers(*grids, max(n, m) + 1)[1][: grids[0]]
    decarlo = _schur_cohn_clears(c[:1], radius)[0] and _decarlo_strintzis_clears(q, exponents, torus)
    return _cauchy_clears(np.abs(c).ravel(), exponents.ravel(), radius), decarlo


NEAR_EQUALITY = 1.0 + (1.0 - 2.0 ** -12) / 3.0 * BivariatePolynomial([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
HALF = BivariatePolynomial([[1.0, -0.5], [-0.5, 0.25]])  # (1 - z1/2)(1 - z2/2)


class TestCauchyBound:
    """Cauchy's bound on the bidisk decides strictness when |c_00| dominates, and the DeCarlo-Strintzis
    test when it does not; Cauchy's bound clears only inputs that the DeCarlo-Strintzis test clears too."""

    @pytest.mark.parametrize("p", [random_strictly_stable(np.random.default_rng(3), 3, 3),
                                   BivariatePolynomial([[4.0, -1.0], [-1.0, 0.0]])],
                             ids=["random_33", "4_z1_z2"])
    @pytest.mark.parametrize("grids", [(64, 8), (128, 16), (512, 64)])
    def test_dominant_input_runs_no_doubling(self, monkeypatch, p, grids):
        # a guard that counts instead of timing
        calls = doublings(monkeypatch)
        report = check_stability(p, *grids)
        assert report.verdict == STABLE_CLOSED_STRICT and not calls
        assert_same_report(report, _scan(p, *grids))

    @pytest.mark.parametrize("p", [HALF, NEAR_EQUALITY], ids=["half_half", "near_equality"])
    @pytest.mark.parametrize("grids", [(64, 8), (128, 16), (512, 64)])
    def test_strict_input_the_bound_misses_runs_no_doubling(self, monkeypatch, p, grids):
        # HALF's other coefficient moduli sum to 1.25; NEAR_EQUALITY's to 1 - 2**-12, inside
        # the bound's rounding margin: the DeCarlo-Strintzis test decides them, not the scan
        assert not shortcut_tests(p)[0] and shortcut_tests(p, grids=grids)[1]
        calls, (_, screened) = doublings(monkeypatch), scanned_rows(monkeypatch)
        report = check_stability(p, *grids)
        assert report.verdict == STABLE_CLOSED_STRICT and not calls and not screened
        assert_same_report(report, _scan(p, *grids))

    def test_equality_goes_on_to_the_scan(self, monkeypatch):
        # 2 - z1 - z2 meets the bound with equality and vanishes at (1, 1)
        assert not shortcut_tests(CLASSIC)[0]
        calls, (_, screened) = doublings(monkeypatch), scanned_rows(monkeypatch)
        report = check_stability(CLASSIC)
        assert report.verdict == STABLE_OPEN and screened and not calls

    def test_cleared_inputs_clear_the_schur_cohn_test(self):
        # seeded dominant families: (1, 1)-(6, 6), 2**k multiples, torus rotations,
        # and |c_00| = (1 + delta) sum |c_ab| down to delta = 1e-10
        rng = np.random.default_rng(71)
        polys = []
        for d in range(1, 7):
            for n, m in ((d, d), (d, 1 + d % 3), (1 + d % 3, d)):
                p = random_strictly_stable(rng, n, m)
                u, v = np.exp(2j * np.pi * rng.uniform(size=2))
                rotated = p.coeffs * np.outer(u ** np.arange(n + 1), v ** np.arange(m + 1))
                polys += [p, BivariatePolynomial(rotated)]
                polys += [BivariatePolynomial(rotated * 2.0 ** k) for k in rng.integers(-600, 601, size=2)]
        for delta in 10.0 ** -np.arange(2, 11):
            c = gaussian(rng, *rng.integers(1, 4, size=2)).coeffs.copy()
            c[0, 0] = 0.0
            c[0, 0] = (1.0 + delta) * np.sum(np.abs(c)) * np.exp(2j * np.pi * rng.uniform())
            polys.append(BivariatePolynomial(c))
        cleared = [shortcut_tests(p) for p in polys]
        assert all(decarlo for cauchy, decarlo in cleared if cauchy)
        assert sum(cauchy for cauchy, _ in cleared) >= len(polys) - 9


class TestShortcutSoundness:
    """Against exact ground truth: a product of factors 1 - a z1 - b z2 has a zero on the closed
    bidisk of radius r exactly when some factor has (|a| + |b|) r >= 1."""

    @staticmethod
    def shortcut_verdicts(monkeypatch):
        verdicts, shortcut = [], aglerkit.stability._shortcut

        def spy(*args):
            decided = shortcut(*args)
            verdicts.append(decided and decided[0])
            return decided

        monkeypatch.setattr(aglerkit.stability, "_shortcut", spy)
        return verdicts

    def test_strict_shortcut_verdicts_have_every_factor_inside(self, monkeypatch):
        verdicts, rng, strict = self.shortcut_verdicts(monkeypatch), np.random.default_rng(83), 0
        for i in range(120):
            tol, count = (0.0, 1e-9, 1e-3)[i % 3], 1 + i % 4
            grids = [(64, 8), (128, 16), (512, 64)][i // 3 % 3]
            radius = 1.0 + 2.0 * max(tol, np.finfo(float).eps ** (1.0 / count))  # _shortcut's
            sums = rng.uniform(0.3, 0.95, size=count) / radius
            if i % 2:  # a near miss on either side of the radius
                sums[-1] = (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** -rng.integers(1, 13)) / radius
            p, largest = BivariatePolynomial.constant(2.0 ** rng.integers(-600, 601)), 0.0
            for total in sums:
                a, b = total * rng.dirichlet([1.0, 1.0]) * np.exp(2j * np.pi * rng.uniform(size=2))
                p, largest = p * BivariatePolynomial([[1.0, -b], [-a, 0.0]]), max(largest, abs(a) + abs(b))
            verdicts.clear()
            report = check_stability(p, *grids, tol=tol)
            assert_same_report(report, _scan(p, *grids, tol=tol))
            if verdicts[0] == STABLE_CLOSED_STRICT:
                strict += 1
                assert largest * radius < 1.0
        assert strict >= 30

    def test_inputs_with_a_zero_inside_fail_the_test(self):
        # Gaussian inputs whose p(0, .) clears: each with a zero the scan confirms fails the row
        # q(., 1) or the torus condition
        rng, failed = np.random.default_rng(89), 0
        for _ in range(200):
            n, m = rng.integers(1, 5, size=2)
            p = gaussian(rng, n, m)
            if _schur_cohn_clears(p.coeffs[:1], 1.0)[0] and check_stability(p, 128, 16).verdict == ZERO_FOUND:
                torus = _sample_powers(128, 16, max(n, m) + 1)[1][:128]
                exponents = np.add.outer(np.arange(n + 1), np.arange(m + 1))
                assert not _decarlo_strintzis_clears(p.coeffs, exponents, torus)
                failed += 1
        assert failed >= 20

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
    @pytest.mark.parametrize("grids", [(64, 8), (128, 16), (512, 64)])
    def test_zero_between_one_and_the_radius_goes_to_the_scan(self, monkeypatch, tol, grids):
        # 1 - (z1 + z2) / (2 (1 + margin/2)) vanishes at z1 = z2 = 1 + margin/2, inside radius
        # 1 + 2 margin (at tol = 0 the coefficient rounds to 1/2: a zero at (1, 1))
        c = 1.0 / (2.0 * (1.0 + max(tol, np.finfo(float).eps) / 2))
        p = BivariatePolynomial([[1.0, -c], [-c, 0.0]])
        verdicts = self.shortcut_verdicts(monkeypatch)
        report = check_stability(p, *grids, tol=tol)
        assert verdicts == [None] and report.verdict != STABLE_CLOSED_STRICT
        assert_same_report(report, _scan(p, *grids, tol=tol))


class TestDecarloStrintzisRows:
    """The torus condition asks only whether q's grid minimum exceeds the gap."""

    @pytest.mark.parametrize("p", [HALF, NEAR_EQUALITY, linear_product(np.random.default_rng(1), 3)],
                             ids=["half", "near_equality", "product_3"])
    def test_rows_that_clear_the_gap_are_not_evaluated(self, monkeypatch, p):
        # a guard that counts instead of timing: after p's own torus minimum, the test evaluates
        # the 64 head rows of q's 512 grid and no row whose Lipschitz bound clears the gap
        rows, row_minima = [], aglerkit.stability._row_minima
        monkeypatch.setattr(aglerkit.stability, "_row_minima", lambda r, torus: rows.append(len(r))
                            or row_minima(r, torus))
        assert check_stability(p, 512, 64).verdict == STABLE_CLOSED_STRICT
        assert len(rows) == 4 and rows[0] == 64 and rows[2:] == [64, 0]


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
        polys = [BivariatePolynomial([[-0.5], [1.0]]), BivariatePolynomial([[0, 0], [0, 1]])]
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
            for torus_grid in (32, 100, 128, 512):
                torus = np.exp(2j * np.pi * np.arange(torus_grid) / torus_grid)
                direct = np.min(np.abs(p(*np.meshgrid(torus, torus, indexing="ij"))))
                report = check_stability(p, torus_grid=torus_grid, disk_grid=8)
                bound = 4 * np.finfo(float).eps * np.sum(np.abs(p.coeffs))
                assert abs(report.min_modulus - direct) <= bound


def gaussian(rng, n, m):
    return BivariatePolynomial(rng.standard_normal((n + 1, m + 1))
                               + 1j * rng.standard_normal((n + 1, m + 1)))


SCREEN_RADIUS = (1.0 + 1e-9) * (1.0 + 2.0 ** -10)  # the scan's Schur-Cohn radius at tol 1e-9


def zero_within(row, radius):
    """Whether the row roots_rows solves, its leading coefficients <= 1e-13 max|row| trimmed, has
    a zero with |w| <= radius, decided exactly."""
    mag = np.abs(row)
    degree = len(row) - 1 - np.argmax((mag > 1e-13 * np.max(mag))[::-1])
    return exact.zero_within(row[: degree + 1], radius)


class TestSchurCohnScreen:
    """A row the screen clears has no zero on the closed disk of its radius."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.sampled_from([1.0, 0.75, SCREEN_RADIUS]),
        st.one_of(st.none(), st.tuples(st.integers(1, 52), st.floats(0.0, 1.0), st.integers(1, 4))),
        st.lists(st.tuples(st.integers(1, 8), st.floats(0.0, 1.0), st.integers(1, 4)), max_size=6),
        st.sampled_from([False, False, False, True]), st.sampled_from([0.0, 1e-14, 1e-20]),
        st.floats(-3.0, 3.0),
    )
    def test_no_row_with_a_zero_within_the_radius_is_cleared(self, radius, inside, outside, at_zero,
                                                             tiny, size):
        # planted roots radius (1 -+ 2**-k) e^(2 pi i turn) in clusters of up to 4 alike, one
        # cluster at most inside and at most 12 roots in all; a root at 0 makes the constant
        # term exactly 0, and a tiny leading coefficient is trimmed
        clusters = ([(-1.0, *inside)] if inside else []) + [(1.0, *cluster) for cluster in outside]
        roots = [radius * (1.0 + sign * 2.0 ** -k) * np.exp(2j * np.pi * turn)
                 for sign, k, turn, count in clusters for _ in range(count)][: 12 - at_zero]
        row = np.polynomial.polynomial.polyfromroots(roots + [0.0] * at_zero) * 10.0 ** size * (1 - 0.5j)
        if tiny:
            row = np.append(row, tiny * np.max(np.abs(row)))
        if _schur_cohn_clears(row.reshape(1, -1), radius)[0]:
            assert not zero_within(row, radius)

    def test_rows_with_a_zero_on_the_circle_are_not_cleared(self):
        # one root within 4 units in the last place of the circle and the rest beyond it, and in
        # every other row a trimmed leading coefficient that pushes that root outward: only
        # the rounding bound and the trimmed terms in it keep such rows from being cleared
        poly = np.polynomial.polynomial
        rng = np.random.default_rng(89)
        for i in range(400):
            radius, degree = (1.0, 0.75, SCREEN_RADIUS)[i % 3], 1 + i % 6
            roots = radius * (1.0 + rng.uniform(size=degree)) * np.exp(2j * np.pi * rng.uniform(size=degree))
            roots[0] = radius * (1.0 + rng.integers(-4, 5) * 2.0 ** -52) * np.exp(2j * np.pi * rng.uniform())
            row = poly.polyfromroots(roots)
            if i % 2:  # a w**(degree + 1) term moves roots[0] by about -term / row'(roots[0])
                push = -roots[0] * poly.polyval(roots[0], poly.polyder(row)) / roots[0] ** (degree + 1)
                row = np.append(row, 0.9e-13 * np.max(np.abs(row)) * push / abs(push))
            if _schur_cohn_clears(row.reshape(1, -1), radius)[0]:
                assert not zero_within(row, radius)

    def test_cleared_rows_have_no_computed_root_within_the_radius(self):
        # 10**4 seeded rows of degree 1-8, zero-padded to 9 columns: Gaussian ones, and ones
        # with planted roots at SCREEN_RADIUS (1 +- 2**-k)
        rng = np.random.default_rng(83)
        rows = np.zeros((10 ** 4, 9), dtype=complex)
        for r, degree in enumerate(rng.integers(1, 9, size=len(rows))):
            if r % 2:
                rows[r, : degree + 1] = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
                continue
            offsets = rng.choice([-1.0, 1.0], degree) * 2.0 ** -rng.integers(1, 31, degree)
            roots = SCREEN_RADIUS * (1.0 + offsets) * np.exp(2j * np.pi * rng.uniform(size=degree))
            rows[r, : degree + 1] = np.polynomial.polynomial.polyfromroots(roots)
        cleared = _schur_cohn_clears(rows, SCREEN_RADIUS)
        smallest = np.min(np.nan_to_num(np.abs(roots_rows(rows, lead_tol=1e-13)), nan=np.inf), axis=1)
        assert np.all(smallest[cleared] > SCREEN_RADIUS)
        # and the screen is not empty: it clears most rows with every root beyond 1.01 the radius
        assert np.count_nonzero(cleared) >= 500
        assert np.mean(cleared[smallest > 1.01 * SCREEN_RADIUS]) > 0.95


class TestTorusMinimum:
    """The pruned torus search reports the full N x N product's minimum, bit for bit."""

    @pytest.mark.parametrize("grid", [4, 31, 33, 100, 128, 512, 1024])
    def test_pruned_minimum_is_the_full_products(self, grid):
        rng = np.random.default_rng(grid)
        polys = CORPUS + [power(CLASSIC, k) for k in range(1, 5)]
        polys += [random_strictly_stable(rng, d, d) for d in range(1, 9)]
        polys += [gaussian(rng, *rng.integers(0, 7, size=2)) for _ in range(8)]
        for p in polys:
            _, powers = _sample_powers(grid, 8, max(p.coeffs.shape))
            rows = powers[:grid, : p.coeffs.shape[1]] @ p.coeffs.T
            torus = powers[:grid, : p.coeffs.shape[0]]
            assert _torus_minimum(p, rows, torus) == float(np.min(np.abs(rows @ torus.T)))

    def test_strict_call_holds_no_torus_grid(self):
        # a guard that measures memory instead of time: the 2048 x 2048 torus
        # grid and both orders' slice tables come to over 100 MB
        p = random_strictly_stable(np.random.default_rng(3), 3, 3)
        check_stability(p, 2048, 256)  # fills the sample powers' cache
        tracemalloc.start()
        try:
            report = check_stability(p, 2048, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verdict == STABLE_CLOSED_STRICT
        assert peak < 8e6


class TestScaleInvariance:
    """p and 2**k p get one verdict and witness; min_modulus scales exactly."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.sampled_from(["stable", "gaussian", "corpus"]), st.integers(0, 2 ** 32 - 1),
        st.integers(-600, 600),
    )
    def test_power_of_two_multiples_get_the_same_report(self, kind, seed, k):
        rng = np.random.default_rng(seed)
        if kind == "stable":
            p = random_strictly_stable(rng, *rng.integers(1, 5, size=2))
        elif kind == "gaussian":
            p = gaussian(rng, *rng.integers(0, 4, size=2))
        else:
            p = CORPUS[seed % len(CORPUS)]
        report = check_stability(p, 64, 8)
        scaled = check_stability(BivariatePolynomial(p.coeffs * 2.0 ** k), 64, 8)
        assert (scaled.verdict, scaled.witness) == (report.verdict, report.witness)
        assert scaled.min_modulus == report.min_modulus * 2.0 ** k


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

