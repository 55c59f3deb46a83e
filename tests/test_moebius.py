"""Tests for disk automorphisms and their detection from a slice function."""

import numpy as np

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
        # the slice is called on the node arrays, not one point at a time
        assert calls == [(3,), (50,)]

    def test_degree_two_blaschke_product_is_not_an_automorphism(self):
        a = 0.3 + 0.2j
        assert detect_automorphism(lambda w: w * (w - a) / (1 - np.conj(a) * w)) is None

    def test_constant_is_not_an_automorphism(self):
        assert detect_automorphism(lambda w: np.full(np.shape(w), 0.2 - 0.1j)) is None

    def test_failing_slice_gives_none(self):
        def slice_fn(w):
            raise ZeroDivisionError("pole")

        assert detect_automorphism(slice_fn) is None
