"""Tests for idempotent self-maps of the polydisk and their normal forms."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aglerkit import fixedgraph, multipoly, retract
from aglerkit.errors import DomainError, InconsistencyError
from aglerkit.moebius import MoebiusAutomorphism
from aglerkit.multipoly import MultiPoly, RationalMap
from aglerkit.retract import (
    ROLE_CONSTANT,
    ROLE_COPY,
    ROLE_GENERIC,
    ROLE_IDENTITY,
    Conjugation,
    RetractMap,
    classify_components,
    normal_form,
    verify_idempotent,
)
from aglerkit.sampling import random_polydisk
from aglerkit.serialize import canonical_dumps, pair_to_complex

import exact

CONST = 0.3 - 0.2j


def duplicate_map():
    # (z1, z2) -> (z1, z1)
    z1 = MultiPoly(2, {(1, 0): 1.0})
    return RetractMap(2, (z1, z1))


def twisted_copy_map():
    # (z1, z2) -> (-z2, z2)
    return RetractMap(
        2, (MultiPoly(2, {(0, 1): -1.0}), MultiPoly(2, {(0, 1): 1.0}))
    )


def parabola_map():
    # (z1, z2) -> (z1, z1^2)
    return RetractMap(
        2, (MultiPoly(2, {(1, 0): 1.0}), MultiPoly(2, {(2, 0): 1.0}))
    )


def triple_product_map():
    # (z1, z2, z3) -> (z1, z2, z1 z2)
    return RetractMap(
        3,
        (
            MultiPoly(3, {(1, 0, 0): 1.0}),
            MultiPoly(3, {(0, 1, 0): 1.0}),
            MultiPoly(3, {(1, 1, 0): 1.0}),
        ),
    )


def cubic_curve_map():
    # (z1, z2, z3) -> (z1, z1^2, z1^3): two graphs, peeled off at depths 0 and 1
    return RetractMap(
        3,
        (
            MultiPoly(3, {(1, 0, 0): 1.0}),
            MultiPoly(3, {(2, 0, 0): 1.0}),
            MultiPoly(3, {(3, 0, 0): 1.0}),
        ),
    )


def averaging_map(n):
    # every component is m = (z1 + ... + zn) / n: n - 1 graphs, each peeled
    # slice with dF/dw = 1/n or more, so the joint Jacobian is full
    m = MultiPoly(n, {tuple(int(i == j) for i in range(n)): 1.0 / n for j in range(n)})
    return RetractMap(n, (m,) * n)


def _product(factors, n):
    # product of polynomials given as {exponent: coefficient} dicts in n variables
    out = {(0,) * n: 1.0}
    for factor in factors:
        terms = {}
        for e1, c1 in out.items():
            for e2, c2 in factor.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                terms[key] = terms.get(key, 0.0) + c1 * c2
        out = terms
    return out


def moebius_averaging_map(a):
    # the averaging retract conjugated coordinatewise by phi_i(z) = (z - a_i) /
    # (1 - conj(a_i) z): component j is psi_j(N / D) = (N + a_j D) / (D + conj(a_j) N)
    # for N / D = (phi_1(z_1) + ... + phi_n(z_n)) / n, rational and nonlinear in
    # every variable; with equal a_i it maps 0 to 0, else not
    n = len(a)
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    one = (0,) * n
    dens = [{one: 1.0, unit[i]: -np.conj(a[i])} for i in range(n)]
    D = _product(dens, n)
    N = {}
    for i in range(n):
        for key, c in _product([{unit[i]: 1.0, one: -a[i]}] + dens[:i] + dens[i + 1:], n).items():
            N[key] = N.get(key, 0.0) + c / n
    keys = set(N) | set(D)
    return RetractMap(n, tuple(
        RationalMap(MultiPoly(n, {e: N.get(e, 0.0) + a[j] * D.get(e, 0.0) for e in keys}),
                    MultiPoly(n, {e: D.get(e, 0.0) + np.conj(a[j]) * N.get(e, 0.0) for e in keys}))
        for j in range(n)))


def twisted_graph_map():
    # (z1, z2, z3, z4) -> (z2 z4, z2, -z2, z4): the graph sits in front of
    # the free block and a twisted copy, so the conjugation permutes all four
    return RetractMap(
        4,
        (
            MultiPoly(4, {(0, 1, 0, 1): 1.0}),
            MultiPoly(4, {(0, 1, 0, 0): 1.0}),
            MultiPoly(4, {(0, 1, 0, 0): -1.0}),
            MultiPoly(4, {(0, 0, 0, 1): 1.0}),
        ),
    )


def first_graph_map():
    # (z1, z2) -> (phi(z2), z2) with phi(w) = w^2 / 2 + i w / 4
    return RetractMap(
        2, (MultiPoly(2, {(0, 2): 0.5, (0, 1): 0.25j}), MultiPoly(2, {(0, 1): 1.0}))
    )


def rational_graph_map(scale=1.0):
    # (z1, z2) -> (z1, z1 / (2 - z1)), numerator and denominator both times scale
    z1 = MultiPoly(2, {(1, 0): 1.0})
    return RetractMap(2, (z1, RationalMap(MultiPoly(2, {(1, 0): scale}),
                                          MultiPoly(2, {(0, 0): 2 * scale, (1, 0): -scale}))))


# free coordinates identity components of rho -> (map, image of x in the original coordinates);
# perfbench's retract_forms maps are parabola, triple_product and cubic_curve
IDENTITY_FREE = {
    "parabola": (parabola_map, lambda x: [x[0], x[0] ** 2]),
    "triple_product": (triple_product_map, lambda x: [x[0], x[1], x[0] * x[1]]),
    "cubic_curve": (cubic_curve_map, lambda x: [x[0], x[0] ** 2, x[0] ** 3]),
    "first_graph": (first_graph_map, lambda x: [0.5 * x[0] ** 2 + 0.25j * x[0], x[0]]),
    "twisted_graph": (twisted_graph_map, lambda x: [x[0] * x[1], x[0], -x[0], x[1]]),
    "rational_graph": (rational_graph_map, lambda x: [x[0], x[0] / (2 - x[0])]),
}


def constant_second_map():
    # (z1, z2) -> (z1, c)
    return RetractMap(
        2, (MultiPoly(2, {(1, 0): 1.0}), MultiPoly(2, {(0, 0): CONST}))
    )


def swap_map():
    return RetractMap(
        2, (MultiPoly(2, {(0, 1): 1.0}), MultiPoly(2, {(1, 0): 1.0}))
    )


def explicit_above_map():
    # (m^2, m, m) with m = (z2 + z3) / 2: an explicit level above an implicit one
    m = MultiPoly(3, {(0, 1, 0): 0.5, (0, 0, 1): 0.5})
    return RetractMap(3, (MultiPoly(3, {(0, 2, 0): 0.25, (0, 1, 1): 0.5, (0, 0, 2): 0.25}), m, m))


def explicit_below_map():
    # (m, m, m^2) with m = (z1 + z2) / 2: an explicit level below an implicit one
    m = MultiPoly(3, {(1, 0, 0): 0.5, (0, 1, 0): 0.5})
    return RetractMap(3, (m, m, MultiPoly(3, {(2, 0, 0): 0.25, (1, 1, 0): 0.5, (0, 2, 0): 0.25})))


def explicit_between_map():
    # (m, m, m^2, p, p) on D^5 with m = (z1 + z2) / 2 and p = (z4 + z5) / 2: an
    # explicit level between two implicit ones
    m = MultiPoly(5, {(1, 0, 0, 0, 0): 0.5, (0, 1, 0, 0, 0): 0.5})
    p = MultiPoly(5, {(0, 0, 0, 1, 0): 0.5, (0, 0, 0, 0, 1): 0.5})
    square = MultiPoly(5, {(2, 0, 0, 0, 0): 0.25, (1, 1, 0, 0, 0): 0.5, (0, 2, 0, 0, 0): 0.25})
    return RetractMap(5, (m, m, square, p, p))


def hidden_term_map():
    # (z1, z1^2 + 1e-6 z2^150): rho(rho) - rho = 1e-6 ((z1^2 + 1e-6 z2^150)^150 - z2^150)
    # in the second component, below 1.5e-13 in modulus at radius 0.9
    return RetractMap(2, (MultiPoly(2, {(1, 0): 1.0}), MultiPoly(2, {(2, 0): 1.0, (0, 150): 1e-6})))


# every polynomial map of this file that maps the closed polydisk into itself
POLYNOMIAL = {
    "duplicate": duplicate_map, "twisted_copy": twisted_copy_map, "parabola": parabola_map,
    "triple_product": triple_product_map, "cubic_curve": cubic_curve_map,
    "diagonal": lambda: averaging_map(2), "averaging_3": lambda: averaging_map(3),
    "averaging_4": lambda: averaging_map(4), "twisted_graph": twisted_graph_map,
    "first_graph": first_graph_map, "constant_second": constant_second_map, "swap": swap_map,
    "identity_2": lambda: RetractMap.identity(2), "explicit_above": explicit_above_map,
    "explicit_below": explicit_below_map, "hidden_term": hidden_term_map,
}


def fractions_defect(rho):
    # max_j of the l1 norm of rho(rho)_j - rho_j, composed in exact rationals from
    # the float coefficients; each modulus is rounded up, so this bounds it above
    return max(sum(exact.sqrt_up(re * re + im * im) for re, im in exact.compose(c, rho.components, c).values())
               for c in rho.components)


def as_reduced_level(rho):
    # rho as a reduced map, whose roles and idempotence are sampled: rho plus a
    # first coordinate w that rho ignores and maps to 0, with w peeled where it sits
    n = rho.n
    full = RetractMap(n + 1, [MultiPoly(n + 1, {})] + [
        MultiPoly(n + 1, {(0,) + e: c for e, c in comp.terms.items()}) for comp in rho.components])
    return retract._ReducedMap(full, (0,), (0j,))


class TestRetractMap:
    def test_identity_evaluates_to_input(self):
        rho = RetractMap.identity(3)
        z = np.array([0.2, -0.4j, 0.1 + 0.1j])
        assert np.max(np.abs(rho(z) - z)) == 0.0

    def test_component_count_must_match(self):
        with pytest.raises(ValueError):
            RetractMap(2, (MultiPoly(2, {(1, 0): 1.0}),))

    def test_component_variable_count_must_match(self):
        with pytest.raises(ValueError):
            RetractMap(2, (MultiPoly(1, {(1,): 1.0}), MultiPoly(2, {(0, 1): 1.0})))

    def test_callable_components_raise_type_error(self):
        with pytest.raises(TypeError):
            RetractMap(2, (MultiPoly(2, {(1, 0): 1.0}), lambda z: z[0] * z[0]))

    def test_evaluate_batch_refuses_a_trailing_axis_of_another_length(self):
        rho = parabola_map()
        for points in (np.zeros((2, 3)), np.zeros(3), np.zeros((3, 2, 1)), 0.5):
            with pytest.raises(ValueError, match="trailing axis of length 2"):
                rho.evaluate_batch(points)
        assert rho.evaluate_batch(np.zeros((3, 2, 2))).shape == (6, 2)

    def test_columns_raise_at_a_pole_of_a_rational_component(self):
        # component 0 is z1 / (1 - z2 / 2), with a pole at z2 = 2
        den = MultiPoly(2, {(0, 0): 1.0, (0, 1): -0.5})
        rho = RetractMap(2, (RationalMap(MultiPoly(2, {(1, 0): 1.0}), den),
                             MultiPoly(2, {(0, 1): 1.0})))
        pts = np.array([[0.3, 0.1], [0.2, 2.0]], dtype=complex)
        with pytest.raises(DomainError, match="denominator vanishes"):
            rho._columns(pts, [0, 1])
        with pytest.raises(DomainError, match="denominator vanishes"):
            rho.evaluate_batch(pts)
        assert np.array_equal(rho._columns(pts, [1])[:, 0], pts[:, 1])
        assert abs(rho._columns(pts[:1], [0])[0, 0] - 0.3 / 0.95) <= 1e-15

    def test_columns_match_each_component_alone(self):
        den = MultiPoly(3, {(0, 0, 0): 2.0, (1, 1, 0): -0.5j})
        comps = (RationalMap(MultiPoly(3, {(0, 0, 2): 1.0, (1, 0, 0): 0.5}), den),
                 MultiPoly(3, {(1, 2, 0): 0.25, (0, 0, 0): 0.1j}),
                 MultiPoly(3, {(0, 0, 1): 1.0}))
        rho = RetractMap(3, comps)
        pts = random_polydisk(np.random.default_rng(73), 9, 3, 0.9)
        alone = np.stack([comp.evaluate(pts) for comp in comps], axis=1)
        assert np.max(np.abs(rho.evaluate_batch(pts) - alone)) <= 1e-15
        assert np.max(np.abs(rho._columns(pts, [2, 0]) - alone[:, [2, 0]])) <= 1e-15

    @pytest.mark.parametrize("make", [*POLYNOMIAL.values(), rational_graph_map,
                                      lambda: moebius_averaging_map([0.3, -0.2j, 0.1 + 0.25j])],
                             ids=[*POLYNOMIAL, "rational_graph", "moebius_averaging_3"])
    def test_holds_tells_which_variables_each_component_holds(self, make):
        # holds[i, j]: some numerator or denominator term of component j has a positive power of z_i
        rho = make()
        parts = [(c.numerator, c.denominator) if isinstance(c, RationalMap) else (c,) for c in rho.components]
        walk = [[any(e[i] > 0 for p in parts[j] for e in p.terms) for j in range(rho.n)] for i in range(rho.n)]
        assert rho._holds.tolist() == walk

    def test_evaluate_batch_shape(self):
        rho = parabola_map()
        pts = random_polydisk(np.random.default_rng(3), 7, 2, 0.8)
        out = rho.evaluate_batch(pts)
        assert out.shape == (7, 2)
        assert np.max(np.abs(out[:, 1] - pts[:, 0] ** 2)) <= 1e-14

    def test_serialization_round_trip(self):
        num = MultiPoly(2, {(1, 0): 1.0})
        den = MultiPoly(2, {(0, 0): 1.0, (1, 0): -0.25})
        rho = RetractMap(2, (RationalMap(num, den), MultiPoly(2, {(0, 0): 0.1})))
        clone = RetractMap.from_json(rho.to_json())
        assert canonical_dumps(clone.to_json()) == canonical_dumps(rho.to_json())
        z = np.array([0.3, -0.2j])
        assert np.max(np.abs(clone(z) - rho(z))) <= 1e-15

    def test_reduced_map_refuses_serialization(self):
        # the diagonal retract's level is implicit, so its reduced map peels
        # a coordinate by Newton; an explicit level's drops one by index, and
        # neither is an exact map of its own
        for rho in (averaging_map(2), parabola_map()):
            reduced, _ = retract._reduce(rho, rho.n - 1)
            with pytest.raises(ValueError):
                reduced.to_json()


class TestVerifyIdempotent:
    def test_duplicate_passes_exactly(self):
        report = verify_idempotent(duplicate_map())
        assert report["passed"] is True
        assert report["max_defect"] <= 1e-15

    def test_parabola_passes(self):
        report = verify_idempotent(parabola_map())
        assert report["passed"] is True
        assert report["max_defect"] <= 1e-12

    def test_swap_fails(self):
        report = verify_idempotent(swap_map())
        assert report["passed"] is False
        assert report["max_defect"] > 0.5
        assert "reason" in report

    def test_map_leaving_polydisk_fails(self):
        rho = RetractMap(
            2, (MultiPoly(2, {(1, 0): 2.0}), MultiPoly(2, {(0, 1): 1.0}))
        )
        report = verify_idempotent(rho)
        assert report["passed"] is False
        assert report["reason"] == "the map leaves the closed polydisk"

    def test_report_fields(self):
        report = verify_idempotent(duplicate_map(), samples=50, seed=3, radius=0.7)
        assert report["samples"] == 50
        assert report["radius"] == 0.7
        assert report["max_modulus"] <= 0.7 + 1e-12

    def test_zero_samples_is_rejected(self):
        with pytest.raises(ValueError):
            verify_idempotent(swap_map(), samples=0)

    @pytest.mark.parametrize("name", sorted(POLYNOMIAL))
    def test_exact_defect_dominates_the_defect_in_fractions(self, name):
        rho = POLYNOMIAL[name]()
        report = verify_idempotent(rho)
        assert report["method"] == "exact"
        assert Fraction(report["max_defect"]) >= fractions_defect(rho)
        assert report["passed"] is (name not in ("swap", "hidden_term"))

    @pytest.mark.parametrize("rho", [rational_graph_map(), rational_graph_map(2.0 ** -600),
                                     moebius_averaging_map([0.3 - 0.2j] * 3),
                                     moebius_averaging_map([0.3, -0.2j, 0.1 + 0.25j])],
                             ids=["rational_graph", "rational_graph_tiny", "moebius_averaging_3",
                                  "moebius_averaging_off_origin"])
    def test_rational_maps_are_sampled(self, rho):
        report = verify_idempotent(rho)
        assert report["method"] == "sampled"
        assert report["passed"] is True

    def test_exact_modulus_is_the_coefficient_bound(self):
        # max_j sum |c| r^|alpha| over the numerators: 0.25 + 0.5 r^2 for (z1, 0.25 + 0.5 z1 z2)
        rho = RetractMap(2, (MultiPoly(2, {(1, 0): 1.0}), MultiPoly(2, {(0, 0): 0.25, (1, 1): 0.5})))
        for radius in (0.3, 0.9):
            bound = max(radius, 0.25 + 0.5 * radius ** 2)
            assert verify_idempotent(rho, radius=radius)["max_modulus"] == bound

    def test_a_coefficient_bound_above_one_falls_back_to_samples(self):
        # (z1, 0.4 (1 + z1 - z1^2)) has sum |c| r^|alpha| = 1.084 at r = 0.9 but stays
        # inside the disk: the sample decides the modulus, the terms the defect
        f = MultiPoly(2, {(0, 0): 0.4, (1, 0): 0.4, (2, 0): -0.4})
        rho = RetractMap(2, (MultiPoly(2, {(1, 0): 1.0}), f))
        report = verify_idempotent(rho)
        sampled = verify_idempotent(RetractMap(2, (MultiPoly(2, {(1, 0): 1.0}), RationalMap(f))))
        assert (report["method"], sampled["method"]) == ("exact", "sampled")
        assert report["passed"] is True and report["max_defect"] <= 1e-15
        assert report["max_modulus"] == sampled["max_modulus"] < 1.0

    def test_a_composition_too_large_is_sampled(self):
        # (g, g, g) with g = m + (z1 - z2)^2 m^4 / 100 and m = (z1 + z2 + z3) / 3 is
        # idempotent, as g(w, w, w) = w, and (m^6, m^6, m^6) is not; composing either
        # takes more than multipoly._COMPOSE_WORK products, so samples decide both
        unit = [{(1, 0, 0): 1.0}, {(0, 1, 0): 1.0}, {(0, 0, 1): 1.0}]
        m = {e: 1 / 3 for u in unit for e in u}
        bump = _product([{(2, 0, 0): 1.0, (1, 1, 0): -2.0, (0, 2, 0): 1.0}] + [m] * 4, 3)
        g = MultiPoly(3, {**{e: c / 100 for e, c in bump.items()}, **m})
        for rho, idempotent in ((RetractMap(3, (g,) * 3), True),
                                (RetractMap(3, (MultiPoly(3, _product([m] * 6, 3)),) * 3), False)):
            assert multipoly._compose(rho.components, rho.components, rho.components) is None
            report = verify_idempotent(rho)
            assert report["method"] == "sampled" and report["passed"] is idempotent

    def test_a_hidden_term_fails_only_the_exact_check(self):
        # the defect is below 1.5e-13 at radius 0.9, but rho(rho) - rho has
        # coefficients of modulus 1e-6, so the exact check fails
        rho = hidden_term_map()
        sampled = verify_idempotent(as_reduced_level(rho), radius=0.9)
        assert sampled["method"] == "sampled" and sampled["passed"] is True
        report = verify_idempotent(rho, radius=0.9)
        assert report["method"] == "exact" and report["passed"] is False
        assert report["max_defect"] >= 2e-6
        with pytest.raises(InconsistencyError, match="not idempotent"):
            normal_form(rho)


class TestClassifyComponents:
    def test_duplicate_is_identity_plus_copy(self):
        roles = classify_components(duplicate_map())
        assert roles[0].kind == ROLE_IDENTITY
        assert roles[1].kind == ROLE_COPY
        assert roles[1].source == 0
        assert roles[1].moebius.is_identity()

    def test_twisted_copy_reports_the_moebius_map(self):
        roles = classify_components(twisted_copy_map())
        assert roles[1].kind == ROLE_IDENTITY
        assert roles[0].kind == ROLE_COPY
        assert roles[0].source == 1
        assert abs(roles[0].moebius(0.3) + 0.3) <= 1e-9

    def test_parabola_second_component_is_generic(self):
        roles = classify_components(parabola_map())
        assert roles[0].kind == ROLE_IDENTITY
        assert roles[1].kind == ROLE_GENERIC

    def test_constant_component_detected_with_value(self):
        roles = classify_components(constant_second_map())
        assert roles[1].kind == ROLE_CONSTANT
        assert abs(roles[1].value - CONST) <= 1e-12

    def test_triple_product_roles(self):
        roles = classify_components(triple_product_map())
        assert [r.kind for r in roles] == [ROLE_IDENTITY, ROLE_IDENTITY, ROLE_GENERIC]

    def test_automorphism_of_own_variable_raises(self):
        # (-z1, z2) negates its own coordinate, impossible for an idempotent
        rho = RetractMap(
            2, (MultiPoly(2, {(1, 0): -1.0}), MultiPoly(2, {(0, 1): 1.0}))
        )
        with pytest.raises(InconsistencyError):
            classify_components(rho)

    def test_copy_of_non_identity_source_raises(self):
        # (z1^2, z1): the copy in slot 2 points at a non-identity slot 1
        rho = RetractMap(
            2, (MultiPoly(2, {(2, 0): 1.0}), MultiPoly(2, {(1, 0): 1.0}))
        )
        with pytest.raises(InconsistencyError):
            classify_components(rho)

    def test_constant_value_is_the_coefficient(self):
        assert classify_components(constant_second_map())[1].value == CONST
        rational = RationalMap(MultiPoly(2, {(0, 0): 0.6}), MultiPoly(2, {(0, 0): 2.0}))
        roles = classify_components(RetractMap(2, (MultiPoly(2, {(1, 0): 1.0}), rational)))
        assert (roles[1].kind, roles[1].value) == (ROLE_CONSTANT, 0.3)

    def test_constant_outside_the_disk_raises(self):
        rho = RetractMap(2, (MultiPoly(2, {(1, 0): 1.0}), MultiPoly(2, {(0, 0): 1.0})))
        with pytest.raises(DomainError, match="outside the open disk"):
            classify_components(rho)

    @pytest.mark.parametrize("scale", [2.0 ** -600, 1.0, 2.0 ** 600])
    def test_rational_identity_is_relative_to_the_denominator(self, scale):
        # s z1 (1 - z2 / 2) / (s (1 - z2 / 2)) is z1 at every scale s
        den = MultiPoly(2, {(0, 0): scale, (0, 1): -scale / 2})
        num = MultiPoly(2, {(1, 0): scale, (1, 1): -scale / 2})
        roles = classify_components(RetractMap(2, (RationalMap(num, den), MultiPoly(2, {(0, 1): 1.0}))))
        assert [r.kind for r in roles] == [ROLE_IDENTITY, ROLE_IDENTITY]

    def test_rational_copy_reads_the_moebius_map_off_its_coefficients(self):
        # ((a - z2) / (1 - conj(a) z2), z2): a copy of z2 through phi(w) = (a - w) / (1 - conj(a) w)
        a = 0.3 - 0.4j
        copy = RationalMap(MultiPoly(2, {(0, 0): a, (0, 1): -1.0}),
                           MultiPoly(2, {(0, 0): 1.0, (0, 1): -np.conj(a)}))
        roles = classify_components(RetractMap(2, (copy, MultiPoly(2, {(0, 1): 1.0}))))
        assert (roles[0].kind, roles[0].source) == (ROLE_COPY, 1)
        assert (roles[0].moebius.factor, roles[0].moebius.point) == (1.0, a)

    def test_an_affine_slice_that_is_no_automorphism_is_generic(self):
        rho = RetractMap(2, (MultiPoly(2, {(1, 0): 1.0}), MultiPoly(2, {(1, 0): 0.5, (0, 0): 0.1})))
        assert [r.kind for r in classify_components(rho)] == [ROLE_IDENTITY, ROLE_GENERIC]


class TestConjugation:
    def test_permutation_apply_and_invert(self):
        conj = Conjugation((1, 0), (None, None))
        assert np.array_equal(conj.apply([1.0, 2.0]), [2.0, 1.0])
        assert np.array_equal(conj.apply_inverse(conj.apply([1.0, 2.0])), [1.0, 2.0])

    def test_moebius_map_touches_one_coordinate(self):
        phi = MoebiusAutomorphism(1.0, 0.0)  # w -> -w
        conj = Conjugation((0, 1), (None, phi))
        out = conj.apply([0.5, 0.25])
        assert abs(out[0] - 0.5) <= 1e-15
        assert abs(out[1] + 0.25) <= 1e-15
        back = conj.apply_inverse(out)
        assert np.max(np.abs(back - np.array([0.5, 0.25]))) <= 1e-15

    def test_inverse_undoes_apply(self):
        conj = Conjugation((1, 0), (MoebiusAutomorphism(1.0, 0.0), None))
        z = np.array([0.3 - 0.1j, 0.2 + 0.4j])
        assert np.max(np.abs(conj.apply_inverse(conj.apply(z)) - z)) <= 1e-15
        assert np.max(np.abs(conj.apply(conj.apply_inverse(z)) - z)) <= 1e-15

    def test_rows_act_like_single_points(self):
        conj = Conjugation(
            (2, 0, 1),
            (MoebiusAutomorphism(np.exp(0.4j), 0.2 - 0.3j), None,
             MoebiusAutomorphism(-1.0, 0.1j)),
        )
        rows = random_polydisk(np.random.default_rng(41), 9, 3, 0.8)
        for method in (conj.apply, conj.apply_inverse):
            batch = method(rows)
            assert batch.shape == rows.shape
            single = np.array([method(z) for z in rows])
            assert np.max(np.abs(batch - single)) <= 1e-12
        assert np.max(np.abs(conj.apply_inverse(conj.apply(rows)) - rows)) <= 1e-12


def reduce_last(level):
    # peel the level's last component, where it sits
    return retract._reduce(level, level.n - 1)


class TestReduce:
    @staticmethod
    def _explicit_anchor(anchor, z, w):
        # an explicit level's anchor is rho_last at the head of rho(0): no
        # iteration, dF/dw = 0 and no residual
        assert anchor.z == z and anchor.w == w
        assert (anchor.derivative, anchor.residual, anchor.iterations) == (0j, 0.0, 0)
        assert anchor.classification == fixedgraph.CLASS_INTERIOR

    def test_parabola_splits_into_square_graph(self, monkeypatch):
        # z2 appears in no term, so the graph is z1^2 itself and the level is
        # the top map with z2 dropped, by no Newton solve and no new map; it
        # evaluates as the head identity
        monkeypatch.setattr(fixedgraph, "_newton", None)
        rho = parabola_map()
        reduced, anchor = reduce_last(rho)
        self._explicit_anchor(anchor, (0j,), 0j)
        assert (reduced.full, reduced.peeled, reduced.dropped, reduced.n) == (rho, (), (1,), 1)
        monkeypatch.undo()
        assert reduced([0.4])[0] == 0.4
        assert verify_idempotent(reduced)["passed"] is True

    def test_triple_product_splits_into_product_graph(self, monkeypatch):
        monkeypatch.setattr(fixedgraph, "_newton", None)
        rho = triple_product_map()
        reduced, anchor = reduce_last(rho)
        self._explicit_anchor(anchor, (0j, 0j), 0j)
        assert (reduced.full, reduced.peeled, reduced.dropped, reduced.n) == (rho, (), (2,), 2)
        monkeypatch.undo()
        z = np.array([0.3, -0.2j])
        assert np.array_equal(reduced(z), z)
        assert verify_idempotent(reduced, samples=100)["passed"] is True

    def test_constant_component_gives_constant_graph(self):
        reduced, anchor = reduce_last(constant_second_map())
        self._explicit_anchor(anchor, (0j,), CONST)
        assert reduced.dropped == (1,)
        assert reduced([0.7])[0] == 0.7

    @pytest.mark.parametrize("make", [triple_product_map, lambda: averaging_map(3)],
                             ids=["triple_product", "averaging_3"])
    def test_reduced_map_rows_match_single_points(self, make):
        # an explicit level (the triple product's) and an implicit one
        reduced, _ = reduce_last(make())
        pts = random_polydisk(np.random.default_rng(43), 12, 2, 0.8)
        batch = reduced.evaluate_batch(pts)
        single = np.array([reduced(z) for z in pts])
        assert batch.shape == (12, 2)
        assert np.max(np.abs(batch - single)) <= 1e-12

    def test_twice_reduced_map_rows_match_single_points(self):
        # averaging_3 -> diagonal-like -> (z1): both levels are implicit, so
        # the twice-reduced map solves both peeled coordinates jointly, and
        # the second anchor's dF/dw is the reduced last column's, 1/2
        once, first = reduce_last(averaging_map(3))
        twice, second = reduce_last(once)
        assert first.iterations >= 1 and second.iterations >= 1
        assert abs(first.derivative - 1 / 3) <= 1e-15
        assert abs(second.derivative - 1 / 2) <= 1e-15
        pts = random_polydisk(np.random.default_rng(47), 10, 1, 0.8)
        batch = twice.evaluate_batch(pts)
        single = np.array([twice(z) for z in pts])
        assert np.max(np.abs(batch - single)) <= 1e-12
        assert np.max(np.abs(batch - pts)) <= 1e-10
        # (z1, z1^2, z1^3) -> (z1, z1^2) -> (z1): two explicit levels
        once, _ = reduce_last(cubic_curve_map())
        twice, anchor = reduce_last(once)
        self._explicit_anchor(anchor, (0j,), 0j)
        assert (twice.peeled, twice.dropped, twice.n) == ((), (2, 1), 1)

    def test_identity_last_component_is_flagged(self):
        # the w-slice of the last component is the identity automorphism
        with pytest.raises(InconsistencyError):
            reduce_last(RetractMap.identity(2))

    def test_explicit_anchor_on_the_circle_is_flagged(self):
        # (z1, 1): the explicit anchor w = 1 is no interior fixed point
        rho = RetractMap(2, (MultiPoly(2, {(1, 0): 1.0}), MultiPoly(2, {(0, 0): 1.0})))
        with pytest.raises(InconsistencyError, match="interior anchor"):
            reduce_last(rho)


class TestNormalForm:
    def test_identity_map(self):
        nf = normal_form(RetractMap.identity(2))
        assert (nf.n, nf.k) == (2, 2)
        assert nf.e_sources == ()
        assert nf.graph_count == 0
        assert nf.diagnostics["normal_form_residual"] <= 1e-9
        x = np.array([0.2, -0.3j])
        assert np.max(np.abs(nf.image_point(x) - x)) <= 1e-12

    def test_duplicate_map(self):
        nf = normal_form(duplicate_map())
        assert (nf.k, nf.copy_count, nf.graph_count) == (1, 1, 0)
        assert nf.e_sources == (0,)
        assert np.max(np.abs(nf.image_point([0.5]) - np.array([0.5, 0.5]))) <= 1e-12
        assert nf.diagnostics["normal_form_residual"] <= 1e-9

    def test_twisted_copy_map_uses_a_moebius_step(self):
        nf = normal_form(twisted_copy_map())
        assert (nf.k, nf.copy_count, nf.graph_count) == (1, 1, 0)
        assert nf.e_sources == (0,)
        assert nf.conjugation.maps[1] is not None
        v = nf.image_point([0.4 - 0.1j])
        assert np.max(np.abs(nf.normalized_map(v) - v)) <= 1e-9

    def test_a_high_degree_term_normalizes(self):
        # (z1, z1^2 + 1e-9 z2^200000) is too large to compose, so sampled points decide
        # its idempotence; a table holds 3 powers of each variable, not 200,001
        rho = RetractMap(2, (MultiPoly(2, {(1, 0): 1.0}), MultiPoly(2, {(2, 0): 1.0, (0, 200000): 1e-9})))
        nf = normal_form(rho)
        assert nf.diagnostics["idempotence"]["method"] == "sampled"
        assert (nf.k, nf.copy_count, nf.graph_count) == (1, 0, 1)

    def test_parabola_map_has_square_graph(self):
        nf = normal_form(parabola_map())
        assert (nf.k, nf.copy_count, nf.graph_count) == (1, 0, 1)
        comp = nf.f_components[0]
        assert abs(comp.evaluate([0.3]) - 0.09) <= 1e-10
        axis = comp.axes[0]
        assert np.max(np.abs(comp.values - axis**2)) <= 1e-9
        assert comp.max_residual <= 1e-9
        assert comp.provenance["method"] == "fixed_point_composition"

    def test_triple_product_map(self):
        nf = normal_form(triple_product_map())
        assert (nf.k, nf.copy_count, nf.graph_count) == (2, 0, 1)
        a, b = 0.31 - 0.05j, -0.22 + 0.4j
        point = nf.image_point([a, b])
        assert abs(point[2] - a * b) <= 1e-9

    def test_free_coordinates_of_the_wrong_width_are_rejected(self):
        nf = normal_form(triple_product_map())
        for x in ([[0.3]], [0.3], [0.3, 0.2, 0.1], 0.3):
            with pytest.raises(ValueError):
                nf.image_point(x)
        for x in ([0.3], [0.3, 0.2, 0.1], [[0.3, 0.2, 0.1]]):
            with pytest.raises(ValueError, match="point dimension does not match the graph axes"):
                nf.f_components[0].evaluate(x)

    @pytest.mark.parametrize("radius", [0.0, -0.5, 1.5])
    def test_radius_outside_unit_interval_is_rejected(self, radius):
        with pytest.raises(ValueError):
            normal_form(parabola_map(), radius=radius)

    def test_cubic_curve_has_two_nested_graphs(self):
        nf = normal_form(cubic_curve_map())
        assert (nf.k, nf.copy_count, nf.graph_count) == (1, 0, 2)
        assert nf.diagnostics["normal_form_residual"] <= 1e-8
        rng = np.random.default_rng(53)
        for x in 0.6 * np.exp(2j * np.pi * rng.random((20, 1))) * np.sqrt(rng.random((20, 1))):
            original = nf.conjugation.apply_inverse(nf.image_point(x))
            assert np.max(np.abs(original - np.array([x[0], x[0] ** 2, x[0] ** 3]))) <= 1e-8

    def test_level_graph_grids_are_output_only(self, monkeypatch):
        # a level keeps only its anchor record, which is its graph's
        # provenance source; no level solves a grid, so image points come
        # from the anchor values alone
        assert not hasattr(retract, "continue_graph")
        monkeypatch.setattr(fixedgraph, "continue_graph", None)
        rng = np.random.default_rng(57)
        xs = 0.6 * np.sqrt(rng.random((20, 1))) * np.exp(2j * np.pi * rng.random((20, 1)))
        for rho, closed_form in ((cubic_curve_map(), lambda x: [x, x ** 2, x ** 3]),
                                 (averaging_map(3), lambda x: [x, x, x])):
            nf = normal_form(rho)
            anchors = nf._anchors
            assert [c.provenance["source"] for c in nf.f_components] == [a.to_json() for a in anchors]
            original = nf.conjugation.apply_inverse(nf.image_point(xs))
            assert np.max(np.abs(original - np.hstack(closed_form(xs)))) <= 1e-12

    def test_image_point_rows_match_single_points(self):
        rng = np.random.default_rng(59)
        for rho in (triple_product_map(), cubic_curve_map(), duplicate_map()):
            nf = normal_form(rho)
            xs = 0.6 * (rng.uniform(-1, 1, (15, nf.k)) + 1j * rng.uniform(-1, 1, (15, nf.k))) / np.sqrt(2)
            batch = nf.image_point(xs)
            assert batch.shape == (15, nf.n)
            single = np.array([nf.image_point(x) for x in xs])
            assert single.shape == (15, nf.n)
            assert np.max(np.abs(batch - single)) <= 1e-12

    def test_image_point_columns_are_the_component_values(self):
        # the kernel route, the Newton route and a constant column
        rng = np.random.default_rng(61)
        for rho in (triple_product_map(), cubic_curve_map(), averaging_map(3), explicit_between_map(),
                    constant_second_map()):
            nf = normal_form(rho)
            k, m = nf.k, nf.copy_count
            xs = 0.6 * (rng.uniform(-1, 1, (12, k)) + 1j * rng.uniform(-1, 1, (12, k))) / np.sqrt(2)
            image = nf.image_point(xs)
            assert np.array_equal(image[:, :k], xs)
            assert np.array_equal(image[:, k : k + m], xs[:, list(nf.e_sources)])
            for t, comp in enumerate(nf.f_components):
                assert np.array_equal(image[:, k + m + t], comp.evaluate(xs))

    @staticmethod
    def _count_newton(monkeypatch):
        calls = []
        newton = fixedgraph._newton

        def counted(*args, **kwargs):
            calls.append(1)
            return newton(*args, **kwargs)

        monkeypatch.setattr(fixedgraph, "_newton", counted)
        return calls

    @pytest.mark.parametrize("rho", [averaging_map(2), averaging_map(3), averaging_map(4)],
                             ids=["diagonal", "averaging_3", "averaging_4"])
    def test_image_point_solves_each_graph_column_once(self, monkeypatch, rho):
        # no free coordinate is an identity component of these maps, so every
        # graph column of a query comes from one joint Newton solve of all
        # the peeled coordinates, whatever the recursion depth
        nf = normal_form(rho)
        calls = self._count_newton(monkeypatch)
        nf.image_point([0.3 - 0.1j])
        assert len(calls) == 1

    @pytest.mark.parametrize("name", sorted(IDENTITY_FREE))
    def test_image_point_reads_graph_columns_off_rho(self, monkeypatch, name):
        # every free coordinate is an identity component of rho, so the
        # graph columns are read off rho(x, 0) with no Newton solve
        nf = normal_form(IDENTITY_FREE[name][0]())
        calls = self._count_newton(monkeypatch)
        nf.image_point([0.3 - 0.1j] * nf.k)
        nf.image_point(np.full((5, nf.k), 0.2j))
        nf.f_components[-1].evaluate([0.1] * nf.k)
        assert calls == []

    @pytest.mark.parametrize("name", sorted(IDENTITY_FREE))
    def test_images_read_off_rho_are_fixed_points(self, name):
        make, closed_form = IDENTITY_FREE[name]
        rho = make()
        nf = normal_form(rho)
        rng = np.random.default_rng(79)
        xs = 0.95 * np.sqrt(rng.random((30, nf.k))) * np.exp(2j * np.pi * rng.random((30, nf.k)))
        xs[0] = np.exp(0.7j)  # the closed polydisk includes its torus
        image = nf.image_point(xs)
        assert np.array_equal(image[:, : nf.k], xs)
        original = nf.conjugation.apply_inverse(image)
        expected = np.array([closed_form(x) for x in xs])
        assert np.max(np.abs(original - expected)) <= 1e-12
        assert np.max(np.abs(rho.evaluate_batch(original) - original)) <= 1e-12

    @pytest.mark.parametrize("name", sorted(IDENTITY_FREE))
    def test_kernel_graph_columns_are_rho_at_the_free_block(self, name):
        # the kernel keeps only rho's terms in the free variables, which
        # vanish nowhere else at (x, 0): its graph columns are rho's there,
        # bit for bit, batched and one point at a time
        rho = IDENTITY_FREE[name][0]()
        nf = normal_form(rho)
        order, g = list(nf.conjugation.order), len(nf._anchors)
        rng = np.random.default_rng(97)
        xs = 0.95 * np.sqrt(rng.random((40, nf.k))) * np.exp(2j * np.pi * rng.random((40, nf.k)))
        full = np.zeros((40, nf.n), dtype=complex)
        full[:, order[: nf.k]] = xs
        assert nf.image_point(xs)[:, nf.n - g :].tobytes() == rho._columns(full, order[nf.n - g :]).tobytes()
        for x, row in zip(xs, full):
            assert nf.image_point(x)[nf.n - g :].tobytes() == rho._columns(row[None], order[nf.n - g :]).tobytes()

    def test_rational_graph_keeps_its_pole_tolerance(self):
        # (z1, z1 / (2 - z1)) reads its graph off rho(x, 0); with num and den
        # both scaled by 2^k the images keep their bits, as the kernel column
        # keeps the component's pole tolerance, relative to the denominator
        rng = np.random.default_rng(101)
        xs = 0.95 * np.sqrt(rng.random((20, 1))) * np.exp(2j * np.pi * rng.random((20, 1)))
        rho = rational_graph_map()
        nf = normal_form(rho)
        images = nf.image_point(xs)
        assert nf._base is None
        assert np.array_equal(nf.conjugation.apply_inverse(images), rho.evaluate_batch(np.hstack([xs, 0 * xs])))
        for k in range(-600, 601):
            scaled = rational_graph_map(2.0 ** k)
            form = normal_form(scaled)
            assert form._pole_tols[-1] == scaled.components[1]._pole_tol
            assert form.image_point(xs).tobytes() == images.tobytes()
            assert form.image_point(xs[k % 20]).tobytes() == images[k % 20].tobytes()

    @pytest.mark.parametrize("name", sorted(IDENTITY_FREE))
    def test_kernel_query_evaluates_one_table(self, monkeypatch, name):
        # a query whose graphs the kernel holds evaluates one table, one
        # point or a batch, and never rho itself
        nf = normal_form(IDENTITY_FREE[name][0]())
        calls, columns = [], []
        stack_call = multipoly._Stack.__call__

        def counted(self, points):
            calls.append(len(points))
            return stack_call(self, points)

        monkeypatch.setattr(multipoly._Stack, "__call__", counted)
        monkeypatch.setattr(RetractMap, "_columns", lambda *args: columns.append(1))
        nf.image_point([0.3 - 0.1j] * nf.k)
        nf.image_point(np.full((5, nf.k), 0.2j))
        nf.f_components[-1].evaluate([0.1] * nf.k)
        assert (calls, columns) == ([1, 5, 1], [])

    def test_diagonal_retract_images_come_from_newton(self):
        # rho(v, 0) = (v/2, v/2) has free block v/2, not v, so it is not the
        # image point of v; the joint Newton solve gives (v, v)
        rho = averaging_map(2)
        nf = normal_form(rho)
        assert nf._base is not None
        v = np.array([0.3 - 0.1j, -0.5j, 0.6])
        assert np.max(np.abs(rho(np.array([v[0], 0])) - v[0] / 2)) <= 1e-15
        original = nf.conjugation.apply_inverse(nf.image_point(v[:, None]))
        assert np.max(np.abs(original - v[:, None])) <= 1e-12

    @pytest.mark.parametrize("rho", [cubic_curve_map(), averaging_map(3)],
                             ids=["cubic_curve", "averaging_3"])
    def test_free_coordinates_outside_the_closed_polydisk_are_refused(self, monkeypatch, rho):
        # one domain rule on both routes, before any map is evaluated
        nf = normal_form(rho)
        calls = []
        monkeypatch.setattr(multipoly._Stack, "__call__", lambda *args: calls.append(1))
        for x in ([np.nan], [np.inf], [1.0 + 1e-12], [[0.2], [0.9 + 0.9j]], [complex(np.nan, 0.1)]):
            with pytest.raises(ValueError, match="closed unit polydisk"):
                nf.image_point(x)
            with pytest.raises(ValueError, match="closed unit polydisk"):
                nf.f_components[0].evaluate(x)
        assert calls == []

    @pytest.mark.parametrize("rho", [cubic_curve_map(), averaging_map(4)],
                             ids=["cubic_curve", "averaging_4"])
    def test_empty_batch_evaluates_no_map(self, monkeypatch, rho):
        nf = normal_form(rho)
        calls = []
        stack_call = multipoly._Stack.__call__

        def counted(self, points):
            calls.append(len(points))
            return stack_call(self, points)

        monkeypatch.setattr(multipoly._Stack, "__call__", counted)
        assert nf.image_point(np.zeros((0, nf.k))).shape == (0, nf.n)
        assert calls == []

    @pytest.mark.parametrize("n", [3, 4])
    def test_averaging_retract_images_are_the_diagonal(self, n):
        # the peeled graphs depend on w (dF/dw = 1/2, 1/3, ...), so the joint
        # Jacobian has off-diagonal terms; the image of x is (x, ..., x)
        nf = normal_form(averaging_map(n))
        assert (nf.k, nf.copy_count, nf.graph_count) == (1, 0, n - 1)
        assert nf.diagnostics["normal_form_residual"] <= 1e-12
        rng = np.random.default_rng(67)
        xs = 0.6 * np.sqrt(rng.random((25, 1))) * np.exp(2j * np.pi * rng.random((25, 1)))
        original = nf.conjugation.apply_inverse(nf.image_point(xs))
        assert np.max(np.abs(original - xs)) <= 1e-12
        for x, row in zip(xs, original):
            assert np.max(np.abs(nf.conjugation.apply_inverse(nf.image_point(x)) - row)) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4])
    def test_averaging_graph_derivatives_are_exact(self, n):
        # graph t (deepest first) peels a slice (a + w) / (t + 2) with a free
        # of w; its anchor record holds dF/dw there
        nf = normal_form(averaging_map(n))
        derivatives = [pair_to_complex(c.provenance["source"]["derivative"]) for c in nf.f_components]
        assert np.max(np.abs(np.array(derivatives) - 1.0 / np.arange(2, n + 1))) <= 1e-15

    @pytest.mark.parametrize("rho, implicit", [(cubic_curve_map(), 0),
                                               (moebius_averaging_map([0.3 - 0.2j] * 4), 3)],
                             ids=["cubic_curve", "averaging_4"])
    def test_reduced_last_column_differentiates_exactly(self, rho, implicit):
        # each level's anchor dF/dw (0 at an explicit level; at an implicit one
        # a + b (I - D)^-1 c from its joint solve's Jacobian) matches a central
        # difference of that level's last component; the Moebius-conjugated
        # averaging map is nonlinear in w, and its levels 1 and 2 are reduced maps
        h, level, solved = 1e-6, rho, 0
        while level.n > 1:
            reduced, anchor = reduce_last(level)
            up, down = np.array(anchor.z + (anchor.w + h,)), np.array(anchor.z + (anchor.w - h,))
            central = (level(up)[-1] - level(down)[-1]) / (2 * h)
            assert abs(anchor.derivative - central) <= 1e-8
            assert abs(anchor.derivative - (1 / level.n if implicit else 0)) <= 1e-14
            solved += anchor.iterations > 0
            level = reduced
        assert solved == implicit

    @pytest.mark.parametrize("name", ["parabola", "triple_product", "cubic_curve"])
    def test_explicit_levels_make_no_newton_call(self, monkeypatch, name):
        # every level of these maps is explicit and every free coordinate an
        # identity component, so neither the levels nor the image grid solve
        monkeypatch.setattr(fixedgraph, "_newton", None)
        nf = normal_form(IDENTITY_FREE[name][0]())
        assert [a.iterations for a in nf._anchors] == [0] * nf.graph_count
        assert nf.diagnostics["normal_form_residual"] <= 1e-15

    def test_explicit_level_above_an_implicit_level(self, monkeypatch):
        # (m^2, m, m) with m = (z2 + z3) / 2: z1 appears in no term, so the
        # top level is explicit and leaves the diagonal retract (m, m), whose
        # level is implicit; images take the Newton route over the top map
        nf = normal_form(explicit_above_map())
        assert (nf.k, nf.copy_count, nf.graph_count) == (1, 0, 2)
        implicit, explicit = nf._anchors
        assert explicit.iterations == 0 and implicit.iterations >= 1
        assert nf._base is not None
        rng = np.random.default_rng(83)
        xs = 0.9 * np.sqrt(rng.random((30, 1))) * np.exp(2j * np.pi * rng.random((30, 1)))
        calls = self._count_newton(monkeypatch)
        original = nf.conjugation.apply_inverse(nf.image_point(xs))
        assert len(calls) == 1
        assert np.max(np.abs(original - np.hstack([xs ** 2, xs, xs]))) <= 1e-12

    def test_explicit_level_below_an_implicit_level(self, monkeypatch):
        # (m, m, m^2) with m = (z1 + z2) / 2: z1 is peeled implicitly, then z3,
        # which no term of the top map holds, explicitly: that level makes no
        # Newton call, and drops z3 from the top map by its index
        rho = explicit_below_map()
        top, implicit = retract._reduce(rho, 0)
        calls = self._count_newton(monkeypatch)
        bottom, explicit = reduce_last(top)
        assert calls == []
        assert implicit.iterations >= 1 and explicit.iterations == 0
        assert (bottom.full, bottom.peeled, bottom.dropped, bottom.anchors) == (rho, (0,), (2,), top.anchors)
        nf = normal_form(rho)
        assert [a.iterations for a in nf._anchors] == [0, implicit.iterations]
        rng = np.random.default_rng(103)
        xs = 0.9 * np.sqrt(rng.random((30, 1))) * np.exp(2j * np.pi * rng.random((30, 1)))
        original = nf.conjugation.apply_inverse(nf.image_point(xs))
        assert np.max(np.abs(original - np.hstack([xs, xs, xs ** 2]))) <= 1e-12

    def test_explicit_level_between_implicit_levels(self):
        # z1 is peeled implicitly, z3 dropped, then z4 peeled: the last level's
        # Newton table holds the head, then z4 and z1, and no column for z3
        rho = explicit_between_map()
        level = rho
        for g in (0, 1, 1):
            level, _ = retract._reduce(level, g)
        assert (list(level._head), level.dropped, level.peeled) == ([1, 4], (2,), (3, 0))
        nf = normal_form(rho)
        assert (nf.k, nf.copy_count, nf.graph_count) == (2, 0, 3)
        assert [a.iterations for a in nf._anchors] == [1, 0, 1]
        rng = np.random.default_rng(109)
        xs = 0.9 * np.sqrt(rng.random((30, 2))) * np.exp(2j * np.pi * rng.random((30, 2)))
        original = nf.conjugation.apply_inverse(nf.image_point(xs))
        assert np.max(np.abs(rho.evaluate_batch(original) - original)) <= 1e-12

    def test_newton_route_query_evaluates_one_table_per_newton_step(self, monkeypatch):
        # every peeled component of averaging_4 and its partials come from one
        # table per Newton step, and no other table is evaluated: the free
        # column is x itself, so this route has no kernel
        nf = normal_form(averaging_map(4))
        tables, steps = [], []
        stack_call, rows = multipoly._Stack.__call__, retract._ReducedMap._rows
        monkeypatch.setattr(multipoly._Stack, "__call__",
                            lambda self, points: tables.append(1) or stack_call(self, points))
        monkeypatch.setattr(retract._ReducedMap, "_rows",
                            lambda self, *args, **kwargs: steps.append(1) or rows(self, *args, **kwargs))
        nf.image_point([0.3 - 0.1j])
        assert nf._kernel is None
        assert steps and len(tables) == len(steps)

    def test_anchors_off_the_origin_give_fixed_images(self):
        # coordinatewise distinct Moebius maps move rho(0) off the origin; each
        # level's anchor sits at the head of its exact map at 0, a fixed point
        rho = moebius_averaging_map([0.3, -0.2j, 0.1 + 0.25j])
        assert np.min(np.abs(rho(np.zeros(3)))) > 0.1
        nf = normal_form(rho)
        assert (nf.k, nf.graph_count) == (1, 2)
        assert nf.diagnostics["normal_form_residual"] <= 1e-11
        rng = np.random.default_rng(107)
        xs = 0.9 * np.sqrt(rng.random((30, 1))) * np.exp(2j * np.pi * rng.random((30, 1)))
        original = nf.conjugation.apply_inverse(nf.image_point(xs))
        assert np.max(np.abs(rho.evaluate_batch(original) - original)) <= 1e-11

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_implicit_images_match_the_bottom_reduced_map(self, n):
        # the top map with every graph peeled, and every anchor, is the bottom
        # level's reduced map: the same bits
        rho = averaging_map(n)
        nf = normal_form(rho)
        bottom = rho
        for _ in range(n - 1):  # each level peels its first component, where it sits
            bottom, _ = retract._reduce(bottom, 0)
        rng = np.random.default_rng(89)
        xs = 0.9 * np.sqrt(rng.random((50, 1))) * np.exp(2j * np.pi * rng.random((50, 1)))
        assert np.array_equal(nf.image_point(xs)[:, 1:], bottom._peel(xs))
        assert np.array_equal(nf.image_point(xs[7])[1:], bottom._peel(xs[7:8])[0])

    def test_constant_component_map(self):
        nf = normal_form(constant_second_map())
        assert (nf.k, nf.copy_count, nf.graph_count) == (1, 0, 1)
        comp = nf.f_components[0]
        assert abs(comp.evaluate([0.5]) - CONST) <= 1e-12
        assert comp.provenance["method"] == "constant"

    def test_normalized_map_fixes_first_block(self):
        nf = normal_form(twisted_copy_map())
        w = nf.normalized_map(np.array([0.3, -0.4]))
        assert abs(w[0] - 0.3) <= 1e-9
        assert abs(w[1] - 0.3) <= 1e-9

    def test_swap_is_rejected(self):
        with pytest.raises(InconsistencyError):
            normal_form(swap_map())

    def test_one_variable_square_is_rejected(self):
        rho = RetractMap(1, (MultiPoly(1, {(2,): 1.0}),))
        with pytest.raises(InconsistencyError):
            normal_form(rho)

    def test_one_variable_rigidity_cases(self):
        nf_id = normal_form(RetractMap.identity(1))
        assert (nf_id.k, nf_id.graph_count) == (1, 0)
        nf_const = normal_form(RetractMap(1, (MultiPoly(1, {(0,): CONST}),)))
        assert (nf_const.k, nf_const.graph_count) == (0, 1)
        assert abs(nf_const.image_point([])[0] - CONST) <= 1e-12

    def test_range_consistency_on_samples(self):
        rho = parabola_map()
        nf = normal_form(rho)
        pts = random_polydisk(np.random.default_rng(29), 50, 2, 0.8)
        for z in pts:
            target = rho(z)
            rebuilt = nf.image_point(target[: nf.k])
            assert np.max(np.abs(rebuilt - target)) <= 1e-7

    def test_serialization_and_determinism(self):
        first = normal_form(parabola_map())
        second = normal_form(parabola_map())
        assert canonical_dumps(first.to_json()) == canonical_dumps(second.to_json())
        payload = first.to_json()
        assert payload["k"] == 1
        assert payload["e_sources"] == []
        assert len(payload["f_components"]) == 1
        assert payload["conjugation"] == {"order": [0, 1], "moebius": [None, None]}
        assert payload["diagnostics"]["idempotence"]["passed"] is True


def spy(monkeypatch, module, name, calls):
    # record each call of module.name in calls, then make it
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs))


@st.composite
def graph_retracts(draw):
    """(x, f(x)) over k free coordinates, each f_j a constant, a rotated free
    coordinate or a polynomial in the free block with sum |c| <= 1; in one
    draw in four a free coordinate is scaled by 0.3..0.7, which is not idempotent."""
    k, r = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    n = k + r
    unit = [tuple(int(v == i) for v in range(n)) for i in range(n)]
    phase = st.floats(0.0, 2 * np.pi).map(lambda t: complex(np.exp(1j * t)))
    comps = [MultiPoly(n, {unit[i]: 1.0}) for i in range(k)]
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, k - 1))
        comps[i] = MultiPoly(n, {unit[i]: draw(st.floats(0.3, 0.7))})
    for _ in range(r):
        kind = draw(st.sampled_from(["constant", "copy", "generic"]))
        if kind == "constant":
            terms = {(0,) * n: draw(st.floats(0.0, 0.95)) * draw(phase)}
        elif kind == "copy":
            terms = {unit[draw(st.integers(0, k - 1))]: draw(phase)}
        else:
            free = st.tuples(*[st.integers(0, 2)] * k).map(lambda e: e + (0,) * r)
            count = draw(st.integers(1, 4))
            terms = {draw(free): draw(st.floats(0.05, 1.0)) * draw(phase) for _ in range(count)}
            total = sum(abs(c) for c in terms.values())
            terms = {e: c / max(total, 1.0) for e, c in terms.items()}
        comps.append(MultiPoly(n, terms))
    return RetractMap(n, comps)


def _roles_or_error(rho):
    try:
        return classify_components(rho)
    except (InconsistencyError, DomainError) as exc:
        return type(exc)


class TestRoutes:
    @pytest.mark.parametrize("name", ["parabola", "triple_product", "cubic_curve"])
    def test_exact_maps_sample_no_role_and_divide_no_query(self, monkeypatch, name):
        # roles and idempotence come off the terms, and no image column is rational
        calls = []
        for attr in ("detect_automorphism", "_active_variables", "random_polydisk", "_sampled_roles"):
            spy(monkeypatch, retract, attr, calls)
        nf = normal_form(IDENTITY_FREE[name][0]())
        assert nf.diagnostics["idempotence"]["method"] == "exact"
        spy(monkeypatch, multipoly, "_quotients", calls)
        nf.image_point([0.3 - 0.1j] * nf.k)
        nf.image_point(np.full((5, nf.k), 0.2j))
        nf.f_components[-1].evaluate([0.1] * nf.k)
        assert calls == []

    def test_rational_graph_columns_take_one_pole_test(self, monkeypatch):
        nf = normal_form(rational_graph_map())
        calls = []
        spy(monkeypatch, multipoly, "_quotients", calls)
        nf.image_point([0.3 - 0.1j])
        assert calls == ["_quotients"]

    @pytest.mark.parametrize("n", [2, 3], ids=["diagonal", "averaging_3"])
    def test_implicit_levels_classify_by_sampling(self, monkeypatch, n):
        # the top map's roles come off its terms; each implicit level below it
        # is a reduced map, sampled
        levels = []
        sampled = retract._sampled_roles
        monkeypatch.setattr(retract, "_sampled_roles",
                            lambda rho, *args: levels.append((type(rho), rho.n)) or sampled(rho, *args))
        nf = normal_form(averaging_map(n))
        assert levels == [(retract._ReducedMap, d) for d in range(n - 1, 0, -1)]
        assert nf.diagnostics["idempotence"]["method"] == "exact"

    def test_a_copy_at_an_implicit_level_is_found_by_sampling(self):
        # (m, m, -m) with m = (z1 + z2) / 2: peeling z1 leaves (v, -v), a copy through w -> -w
        m = MultiPoly(3, {(1, 0, 0): 0.5, (0, 1, 0): 0.5})
        rho = RetractMap(3, (m, m, MultiPoly(3, {(1, 0, 0): -0.5, (0, 1, 0): -0.5})))
        nf = normal_form(rho)
        assert (nf.k, nf.copy_count, nf.graph_count) == (1, 1, 1)
        assert abs(nf.conjugation.maps[1](0.3) + 0.3) <= 1e-12
        xs = np.array([[0.3 - 0.1j], [-0.5j], [0.6]])
        assert np.max(np.abs(nf.conjugation.apply_inverse(nf.image_point(xs)) - xs * [1, 1, -1])) <= 1e-12

    @pytest.mark.parametrize("rho", [parabola_map(), duplicate_map(), constant_second_map(),
                                     twisted_copy_map(), averaging_map(2)],
                             ids=["parabola", "duplicate", "constant_second", "twisted_copy", "diagonal"])
    def test_free_and_copy_columns_keep_the_bits_of_x(self, rho):
        # -0.9j has real part -0.0: the free and plain copy columns are x itself
        nf = normal_form(rho)
        plain = [c for c in range(nf.k, nf.k + nf.copy_count) if nf.conjugation.maps[c] is None]
        for x in (np.array([-0.9j]), np.array([complex(0.3, -0.0)]), np.array([[-0.9j], [-0.0 - 0.0j]])):
            image = nf.image_point(x)
            assert image[..., :1].tobytes() == x.tobytes()
            for c in plain:
                assert image[..., c : c + 1].tobytes() == x.tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(graph_retracts())
    def test_exact_roles_and_verdicts_match_the_sampled_route(self, rho):
        # the same map as a reduced level is classified and checked on samples
        level = as_reduced_level(rho)
        exact, sampled = verify_idempotent(rho), verify_idempotent(level)
        assert (exact["method"], sampled["method"]) == ("exact", "sampled")
        assert exact["passed"] is sampled["passed"]
        roles, reference = _roles_or_error(rho), _roles_or_error(level)
        if not isinstance(roles, list):
            assert roles is reference
            return
        assert [(r.kind, r.source) for r in roles] == [(r.kind, r.source) for r in reference]
        for role, ref in zip(roles, reference):
            if role.kind == ROLE_CONSTANT:
                assert abs(role.value - ref.value) <= 1e-12
            if role.kind == ROLE_COPY:
                assert abs(role.moebius.factor - ref.moebius.factor) <= 1e-9
                assert abs(role.moebius.point - ref.moebius.point) <= 1e-9

    @pytest.mark.parametrize("make", [parabola_map, triple_product_map, cubic_curve_map,
                                      lambda: averaging_map(3)],
                             ids=["parabola", "triple_product", "cubic_curve", "averaging_3"])
    def test_levels_build_no_permuted_map(self, monkeypatch, make):
        # a regression guard that counts instead of timing: every level is the
        # top map and its index sets, so no level builds a map; a restricted
        # exact map per explicit level built 1, 1 and 2 here, and a permuted
        # copy of the exact map per level built 3 and 3 on the last two
        rho, maps = make(), []
        init = RetractMap.__init__
        monkeypatch.setattr(RetractMap, "__init__",
                            lambda self, *args, **kwargs: maps.append(1) or init(self, *args, **kwargs))
        normal_form(rho)
        assert maps == []

    @pytest.mark.parametrize("name", ["parabola", "triple_product", "cubic_curve"])
    def test_explicit_anchors_evaluate_the_exact_map_once(self, monkeypatch, name):
        # an explicit level's anchor is the entry of q = full(0) itself, as
        # full(q) = q, and every level's full is the top map, which computes q
        # once: one one-point evaluation per normal form (once per level would
        # make 2 on the cubic curve, and evaluating full(q) as well 4)
        rows, columns = [], RetractMap._columns
        monkeypatch.setattr(RetractMap, "_columns",
                            lambda self, pts, cols: rows.append(len(pts)) or columns(self, pts, cols))
        normal_form(IDENTITY_FREE[name][0]())
        assert rows.count(1) == 1


def conjugated(rho, sigma):
    # P rho P^-1 for (P z)_i = z_sigma(i): component i is rho_sigma(i), in which
    # variable sigma(i) is renamed i
    def rename(p):
        return MultiPoly(rho.n, {tuple(e[s] for s in sigma): c for e, c in p.terms.items()})

    return RetractMap(rho.n, [RationalMap(rename(c.numerator), rename(c.denominator))
                              if isinstance(c, RationalMap) else rename(c)
                              for c in (rho.components[s] for s in sigma)])


def _permutations(n):
    # every permutation of n <= 3 coordinates, six seeded ones of n = 4
    if n <= 3:
        return list(itertools.permutations(range(n)))
    rng = np.random.default_rng(113)
    return [tuple(int(i) for i in rng.permutation(n)) for _ in range(6)]


PERMUTED = {
    "cubic_curve": cubic_curve_map, "triple_product": triple_product_map,
    "averaging_3": lambda: averaging_map(3), "explicit_above": explicit_above_map,
    "explicit_below": explicit_below_map, "explicit_between": explicit_between_map,
    "twisted_graph": twisted_graph_map, "rational_graph": rational_graph_map,
    "moebius_averaging": lambda: moebius_averaging_map([0.3, -0.2j, 0.1 + 0.25j]),
}


@pytest.mark.parametrize("name", PERMUTED)
def test_every_coordinate_permutation_gives_the_same_form(name):
    # a generic component is peeled where it sits, at every position: P rho P^-1
    # has rho's block sizes, and its image points are fixed points of it
    rho = PERMUTED[name]()
    shape = normal_form(rho)
    rng = np.random.default_rng(127)
    for sigma in _permutations(rho.n):
        conj = conjugated(rho, sigma)
        nf = normal_form(conj)
        assert (nf.k, nf.copy_count, nf.graph_count) == (shape.k, shape.copy_count, shape.graph_count)
        xs = 0.7 * np.sqrt(rng.random((20, nf.k))) * np.exp(2j * np.pi * rng.random((20, nf.k)))
        points = nf.conjugation.apply_inverse(nf.image_point(xs))
        assert np.max(np.abs(conj.evaluate_batch(points) - points)) <= 1e-11
