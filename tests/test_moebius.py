"""Tests for disk automorphisms and their detection from a slice function."""

import numpy as np
import pytest

from aglerkit.errors import DomainError
from aglerkit.moebius import MoebiusAutomorphism, detect_automorphism


def recording(fn, calls):
    def slice_fn(w):
        calls.append(np.shape(w))
        return fn(w)

    return slice_fn


class TestDetectAutomorphism:
    def test_recovers_factor_and_point(self):
        u, a = np.exp(0.7j), 0.3 - 0.4j
        calls = []
        phi = detect_automorphism(recording(MoebiusAutomorphism(u, a), calls))
        assert phi is not None
        assert abs(phi.factor - u) <= 1e-9
        assert abs(phi.point - a) <= 1e-9
        # one call: 0, the probe and the 50 check nodes
        assert calls == [(52,)]

    def test_degree_two_blaschke_product_is_not_an_automorphism(self):
        a = 0.3 + 0.2j
        assert detect_automorphism(lambda w: w * (w - a) / (1 - np.conj(a) * w)) is None

    def test_constant_is_not_an_automorphism(self):
        assert detect_automorphism(lambda w: np.full(np.shape(w), 0.2 - 0.1j)) is None

    def test_failing_slice_gives_none(self):
        def slice_fn(w):
            raise DomainError("pole")

        assert detect_automorphism(slice_fn) is None

    def test_programming_error_in_a_slice_propagates(self):
        def slice_fn(w):
            raise TypeError("not a slice")

        with pytest.raises(TypeError):
            detect_automorphism(slice_fn)

    def test_value_within_rounding_of_the_circle_is_refused_quietly(self):
        # |c| < 1, but conj(c) c rounds to 1, so a constant slice would make
        # u = 0 / 0; a RuntimeWarning fails the suite
        c = complex(0.849044521859272, 0.528321303659771)
        assert detect_automorphism(lambda w: np.full(np.shape(w), c)) is None

    def test_seeded_sweep_recovers_automorphisms_and_rejects_near_misses(self):
        rng = np.random.default_rng(2026)
        worst = 0.0
        for _ in range(200):
            u = np.exp(2j * np.pi * rng.random())
            a = 0.95 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            b = 0.9 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            phi = MoebiusAutomorphism(u, a)
            found = detect_automorphism(phi)
            assert found is not None
            worst = max(worst, abs(found.factor - u), abs(found.point - a))
            near_misses = (
                lambda w: 0.999 * phi(w),
                lambda w: phi(w) * (w - b) / (1 - np.conj(b) * w),
                lambda w: phi(w) ** 2,
                lambda w: (phi(w) + w) / 2,
            )
            assert all(detect_automorphism(h) is None for h in near_misses)
        assert worst <= 1e-12


class TestFromCoefficients:
    def test_seeded_sweep_recovers_automorphisms_at_any_scale(self):
        # phi(w) = (-u w + u a) / (-conj(a) w + 1), numerator and denominator times s
        rng = np.random.default_rng(2027)
        nodes = np.array([0.0, 0.5, -0.3j, 0.7 + 0.2j])
        for _ in range(200):
            u = np.exp(2j * np.pi * rng.random())
            a = 0.95 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            s = 10.0 ** rng.uniform(-200, 200) * np.exp(2j * np.pi * rng.random())
            found = MoebiusAutomorphism.from_coefficients(-u * s, u * a * s, -np.conj(a) * s, s)
            phi = MoebiusAutomorphism(u, a)
            assert abs(found.factor - u) <= 1e-12 and abs(found.point - a) <= 1e-12
            assert np.max(np.abs(found(nodes) - phi(nodes))) <= 1e-12

    @pytest.mark.parametrize("coefficients", [
        (0.5, 0.0, 0.0, 1.0),           # w / 2
        (1.0, 0.5, 0.0, 1.0),           # w + 1/2
        (-1.0, 2.0, -0.5, 1.0),         # the point 2 lies outside the disk
        (-1.0, 0.5, -0.5 + 1e-6, 1.0),  # gamma / delta misses -conj(a)
        (0.0, 1.0, 1.0, 0.0),           # 1 / w
        (1.0, 0.0, 1.0, 0.0),           # the constant 1
    ])
    def test_maps_that_are_no_automorphism_give_none(self, coefficients):
        assert MoebiusAutomorphism.from_coefficients(*coefficients) is None

    def test_the_identity_and_a_rotation(self):
        assert MoebiusAutomorphism.from_coefficients(1.0, 0.0, 0.0, 1.0).is_identity()
        rotation = MoebiusAutomorphism.from_coefficients(1j, 0.0, 0.0, 1.0)
        assert abs(rotation(0.5) - 0.5j) <= 1e-15 and not rotation.is_identity()
