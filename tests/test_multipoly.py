"""Tests for the sparse polynomial and rational-map evaluation kernel."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aglerkit as ak
from aglerkit.errors import DomainError
from aglerkit.multipoly import _THREADED, MultiPoly, RationalMap, _compose, _QuotientRule, _table_product

import exact

UNIT = st.floats(-1.0, 1.0, allow_subnormal=False)


@st.composite
def sparse_terms(draw, nvars, min_degree=0):
    """Up to 6 terms of total degree min_degree..4 with coefficients in the unit square."""
    monomial = st.lists(st.integers(0, nvars - 1), min_size=min_degree, max_size=4)
    terms = {}
    for _ in range(draw(st.integers(1 if min_degree else 0, 6))):
        factors = draw(monomial)
        expo = tuple(factors.count(i) for i in range(nvars))
        terms[expo] = complex(draw(UNIT), draw(UNIT))
    return terms


@st.composite
def points(draw, nvars):
    """Points of the closed unit polydisk in one of the shapes (nvars,), (N, nvars), (a, b, nvars)."""
    lead = draw(st.sampled_from([(), (5,), (1,), (2, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = lead + (nvars,)
    return np.sqrt(rng.random(shape)) * np.exp(2j * np.pi * rng.random(shape))


def naive(poly, pt):
    """The value at one point, one monomial at a time, and the sum of the term moduli."""
    value, scale = 0j, 0.0
    for expo, coef in poly.terms.items():
        term = coef * math.prod(x ** e for x, e in zip(pt, expo))
        value += term
        scale += abs(term)
    return value, scale


def naive_table(poly, pts):
    pairs = [naive(poly, pt) for pt in pts.reshape(-1, poly.nvars)]
    shape = pts.shape[:-1]
    return (np.array([v for v, _ in pairs], dtype=complex).reshape(shape),
            np.array([s for _, s in pairs]).reshape(shape))


@st.composite
def rational_maps(draw, nvars):
    """num / den with den = c + q, q non-constant and c = 1 + sum |q coeffs|, so |den| >= 1."""
    numerator = MultiPoly(nvars, draw(sparse_terms(nvars)))
    q = draw(sparse_terms(nvars, min_degree=1))
    q[(0,) * nvars] = 1.0 + sum(map(abs, q.values()))
    return RationalMap(numerator, MultiPoly(nvars, q))


class TestEvaluate:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), nvars=st.integers(1, 4))
    def test_matches_a_naive_sum_over_monomials(self, data, nvars):
        poly = MultiPoly(nvars, data.draw(sparse_terms(nvars)))
        pts = data.draw(points(nvars))
        values = poly.evaluate(pts)
        expected, scale = naive_table(poly, pts)
        assert values.shape == pts.shape[:-1]
        assert np.all(np.abs(values - expected) <= 1e-13 * scale)

    @pytest.mark.parametrize("shape", [(3,), (4, 3), (2, 5, 3)])
    def test_empty_polynomial_gives_zeros(self, shape):
        values = MultiPoly(3).evaluate(np.full(shape, 0.5 + 0.1j))
        assert values.shape == shape[:-1]
        assert np.array_equal(values, np.zeros(shape[:-1]))

    def test_the_power_table_holds_the_exponents_of_the_terms_alone(self):
        # z1 + 1e-9 z2^200000 raises each variable to 0, 1 and 200000 only, not to
        # every power up to 200000
        poly = MultiPoly(2, {(1, 0): 1.0, (0, 200000): 1e-9})
        stack = poly._stack
        assert stack._powers.shape == (len(np.unique(stack._expo)),) == (3,)
        assert abs(poly.evaluate(np.array([0.5, 1.0])) - (0.5 + 1e-9)) <= 1e-16

    def test_trailing_axis_must_match_nvars(self):
        with pytest.raises(ValueError):
            MultiPoly(2, {(1, 0): 1.0}).evaluate(np.zeros((4, 3)))

    def test_exponent_beyond_int64_is_refused_by_name(self):
        # the stack stores exponents as int64; a larger one must be malformed input, not an OverflowError
        assert MultiPoly(2, {(0, 2 ** 63 - 1): 1.0}).terms == {(0, 2 ** 63 - 1): 1.0}
        for big in (2 ** 63, 10 ** 20):
            with pytest.raises(ValueError, match="exponent %d in .* signed 64-bit" % big):
                MultiPoly(2, {(1, 0): 1.0, (0, big): 1e-9})


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestTableProduct:
    """_table_product is the single product bit for bit, in blocks that OpenBLAS runs on one thread."""

    @staticmethod
    def products(monkeypatch):
        """Collects the (rows, inner, columns) of every np.matmul call; _table_product makes its own so."""
        shapes, matmul = [], np.matmul

        def spy(a, b, **kwargs):
            shapes.append((*a.shape, b.shape[1]))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        return shapes

    @pytest.mark.parametrize("inner", range(1, 9))
    def test_rows_keep_the_single_products_bits(self, monkeypatch, inner):
        # counts at the block size +-1 and a trailing lone row, which must join the block before it
        rng = np.random.default_rng(inner)
        for columns in (4, 5, 26, 512, 2048):
            matrix = complex_normal(rng, (inner, columns))
            step = max(2, (_THREADED - 1) // matrix.size - 1)
            counts = {2, 3, step - 1, step, step + 1, step + 2, 2 * step + 1} - {1}
            for count in sorted(counts | ({9218} if columns < 512 else set())):  # 9,218: a slice table
                rows = complex_normal(rng, (count, inner))
                full = rows @ matrix
                shapes = self.products(monkeypatch)
                assert np.array_equal(_table_product(rows, matrix), full)
                monkeypatch.undo()
                assert sum(shape[0] for shape in shapes) == count
                assert all(shape[0] >= 2 for shape in shapes)
                if 3 * matrix.size < _THREADED:
                    assert all(np.prod(shape) < _THREADED for shape in shapes)
                for i in (0, count // 2, count - 1):  # a lone row has its bits in the full product
                    assert np.array_equal(_table_product(rows[i:i + 1], matrix), full[i:i + 1])

    def test_no_rows_give_an_empty_table(self):
        assert _table_product(np.zeros((0, 3), dtype=complex), np.ones((3, 5), dtype=complex)).shape == (0, 5)

    def test_pipeline_products_stay_below_the_threading_size(self, monkeypatch):
        # a guard that counts instead of timing: each product of a 512/64 check_stability and of
        # the kernel checks is below the size from which OpenBLAS splits it across threads
        rng = np.random.default_rng(11)
        c = complex_normal(rng, (4, 4))
        c[0, 0] = 0.0
        c *= (2.0 / 3.0) / np.sum(np.abs(c))
        c[0, 0] = 1.0  # |c - 1| <= 2/3 on the closed bidisk: strictly stable
        random_33 = ak.BivariatePolynomial(c)
        product_22 = ak.BivariatePolynomial([[8.0, -6.0, 1.0], [-6.0, 2.0, 0.0], [1.0, 0.0, 0.0]])
        bundle = ak.KernelBundle.from_certificate(ak.solve_gram(random_33, tol=1e-9, max_iter=200000, seed=42))
        shapes = self.products(monkeypatch)
        for p in (product_22, random_33):
            ak.check_stability(p, 512, 64)
        ak.verify_decomposition(bundle, samples=500)
        ak.check_bounds(bundle, samples=500)
        monkeypatch.undo()
        assert len(shapes) > 10
        assert all(np.prod(shape) < 2 ** 16 and shape[0] >= 2 for shape in shapes)  # OpenBLAS's, not ours
        # the kernel tables: 16 monomials at (3, 3), 500 rows in each of three tables
        assert sum(rows for rows, inner, _ in shapes if inner == 16) == 1500


def quotient_rule(rmap, g):
    """multipoly's quotient rule over g copies of rmap: partials in its last g variables."""
    return _QuotientRule([(rmap.numerator, rmap.denominator)] * g, rmap._pole_tol,
                         range(rmap.nvars - g, rmap.nvars), range(rmap.nvars))


class TestRationalMap:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), nvars=st.integers(1, 4))
    def test_value_and_partial_match_evaluate_and_the_quotient_rule(self, data, nvars):
        # nvars copies of one quotient take its partials in every variable
        rmap = data.draw(rational_maps(nvars))
        pts = data.draw(points(nvars)).reshape(-1, nvars)
        num, den = rmap.numerator, rmap.denominator
        den_values = den.evaluate(pts)
        value, slopes = quotient_rule(rmap, nvars)(pts)
        assert value.shape == (len(pts), nvars) and slopes.shape == (len(pts), nvars, nvars)
        scale = naive_table(num, pts)[1] / np.abs(den_values)
        assert np.all(np.abs(value - rmap.evaluate(pts)[:, None]) <= 1e-13 * scale[:, None])
        for index in range(nvars):
            dnum, dden = num.partial(index), den.partial(index)
            expected = (dnum.evaluate(pts) * den_values
                        - num.evaluate(pts) * dden.evaluate(pts)) / den_values ** 2
            bound = (naive_table(dnum, pts)[1] * naive_table(den, pts)[1]
                     + naive_table(num, pts)[1] * naive_table(dden, pts)[1]) / np.abs(den_values) ** 2
            assert np.all(np.abs(slopes[:, :, index] - expected[:, None]) <= 1e-12 * bound[:, None])
        # one copy takes the partial in the last variable alone (the last bound)
        slope = quotient_rule(rmap, 1)(pts)[1][:, 0, 0]
        assert np.all(np.abs(slope - expected) <= 1e-12 * bound)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), nvars=st.integers(2, 4))
    def test_solved_variables_are_read_where_the_rows_hold_them(self, data, nvars):
        # rows hold the variables in the column order their caller gives, as a
        # retract level lays out its head and peeled variables for Newton
        rmap = data.draw(rational_maps(nvars))
        solved = data.draw(st.permutations(range(nvars)))[: data.draw(st.integers(1, nvars))]
        pts = data.draw(points(nvars)).reshape(-1, nvars)
        order = data.draw(st.permutations(range(nvars)))
        value, slopes = _QuotientRule([(rmap.numerator, rmap.denominator)] * len(solved),
                                      rmap._pole_tol, solved, order)(pts[:, order])
        num, den = rmap.numerator, rmap.denominator
        den_values = den.evaluate(pts)
        scale = naive_table(num, pts)[1] / np.abs(den_values)
        assert np.all(np.abs(value - rmap.evaluate(pts)[:, None]) <= 1e-13 * scale[:, None])
        for c, index in enumerate(solved):
            dnum, dden = num.partial(index), den.partial(index)
            expected = (dnum.evaluate(pts) * den_values
                        - num.evaluate(pts) * dden.evaluate(pts)) / den_values ** 2
            bound = (naive_table(dnum, pts)[1] * naive_table(den, pts)[1]
                     + naive_table(num, pts)[1] * naive_table(dden, pts)[1]) / np.abs(den_values) ** 2
            assert np.all(np.abs(slopes[:, :, c] - expected[:, None]) <= 1e-12 * bound[:, None])

    def test_a_variable_in_no_column_is_held_by_no_term(self):
        # (z1 + z3) / (2 - z1 z3) in z1, z2, z3 on rows [z3, z1]: z2 has no column
        rmap = RationalMap(MultiPoly(3, {(1, 0, 0): 1.0, (0, 0, 1): 1.0}),
                           MultiPoly(3, {(0, 0, 0): 2.0, (1, 0, 1): -1.0}))
        pts = np.array([[0.3, 0.0, -0.5j], [-0.2 + 0.1j, 0.0, 0.4]])
        value, slope = _QuotientRule([(rmap.numerator, rmap.denominator)], rmap._pole_tol,
                                     [2], [2, 0])(pts[:, [2, 0]])
        assert np.array_equal(value, quotient_rule(rmap, 1)(pts)[0])
        assert np.array_equal(slope, quotient_rule(rmap, 1)(pts)[1])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data(), nvars=st.integers(1, 4))
    def test_a_pole_raises_in_both_paths(self, data, nvars):
        # den = z_j - a is exactly 0 at the second point
        j = data.draw(st.integers(0, nvars - 1))
        a = complex(data.draw(UNIT), data.draw(UNIT)) / 2
        expo = [0] * nvars
        expo[j] = 1
        den = MultiPoly(nvars, {(0,) * nvars: -a, tuple(expo): 1.0})
        rmap = RationalMap(MultiPoly(nvars, data.draw(sparse_terms(nvars))), den)
        pts = np.full((3, nvars), 0.25 + 0.0j)
        pts[1, j] = a
        with pytest.raises(DomainError):
            rmap.evaluate(pts)
        for g in range(1, nvars + 1):
            with pytest.raises(DomainError):
                quotient_rule(rmap, g)(pts)

    def test_the_pole_test_is_relative_to_the_denominator(self):
        # z / (2 - z) with num and den both scaled by 2^k evaluates to the
        # same bits at every k, by evaluate and by the quotient rule; at scale
        # 1e-13 it is no pole at z = 0.5, and its true pole z = 2 raises at
        # every scale
        def scaled(c):
            return RationalMap(MultiPoly(1, {(1,): c}), MultiPoly(1, {(0,): 2 * c, (1,): -c}))

        pts = np.array([[0.5], [-0.3 + 0.4j], [0.9j], [0.0], [1.0]])
        value, slope = quotient_rule(scaled(1.0), 1)(pts)
        plain = scaled(1.0).evaluate(pts)
        for k in range(-600, 601):
            rmap = scaled(2.0 ** k)
            assert np.array_equal(rmap.evaluate(pts), plain)
            f, df = quotient_rule(rmap, 1)(pts)
            assert np.array_equal(f, value) and np.array_equal(df, slope)
        tiny = scaled(1e-13)
        assert abs(tiny.evaluate(np.array([0.5])) - 1 / 3) <= 1e-15
        for c in (2.0 ** -600, 1e-13, 1.0, 2.0 ** 600):
            with pytest.raises(DomainError):
                scaled(c).evaluate(np.array([[0.5], [2.0]]))
            with pytest.raises(DomainError):
                quotient_rule(scaled(c), 1)(np.array([[0.5], [2.0]]))

    def test_construction_takes_no_partial(self, monkeypatch):
        # a RationalMap is num / den; the partials belong to the quotient rule
        calls = []
        partial = MultiPoly.partial
        monkeypatch.setattr(MultiPoly, "partial", lambda self, index: calls.append(index) or partial(self, index))
        num = MultiPoly(3, {(1, 0, 2): 0.5, (0, 1, 0): 0.2j})
        den = MultiPoly(3, {(0, 0, 0): 2.0, (1, 1, 1): -0.5})
        rmap = RationalMap(num, den)
        rmap.evaluate(np.full((4, 3), 0.3 + 0.1j))
        assert calls == []


class TestCompose:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), nvars=st.integers(1, 3))
    def test_each_error_bounds_the_distance_to_the_exact_coefficient(self, data, nvars):
        # coefficients rounded to 12 decimals are 0 or above 1e-12, so no product underflows
        def poly():
            terms = data.draw(sparse_terms(nvars))
            return MultiPoly(nvars, {e: complex(round(c.real, 12), round(c.imag, 12))
                                     for e, c in terms.items()})

        polys, images = [poly(), poly()], [poly() for _ in range(nvars)]
        for p, q, composed in zip(polys, polys[::-1], _compose(polys, images, polys[::-1])):
            rational = exact.compose(p, images, q)
            for e in set(rational) | set(composed):
                value, error = composed.get(e, (0j, 0.0))
                re, im = rational.get(e, (0, 0))
                distance = (Fraction(value.real) - re) ** 2 + (Fraction(value.imag) - im) ** 2
                assert distance <= Fraction(error) ** 2
