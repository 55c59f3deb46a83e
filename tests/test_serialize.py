"""Tests for the JSON helpers."""

import math

import numpy as np
import pytest

from aglerkit.serialize import canonical_dumps, complex_to_pair, matrix_to_pairs, pairs_to_matrix


def recursive_pairs(mat):
    """Nested [re, im] lists built one element at a time, by recursion over the first axis."""
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim == 0:
        return complex_to_pair(arr[()])
    return [recursive_pairs(sub) for sub in arr]


@pytest.mark.parametrize("shape", [(), (1,), (4,), (3, 2), (2, 3, 4), (0,), (0, 3), (3, 0), (2, 0, 2)])
def test_matrix_to_pairs_matches_the_recursion_byte_for_byte(shape):
    rng = np.random.default_rng(sum(shape) + len(shape))
    size = int(np.prod(shape))
    flat = rng.standard_normal(size) / 3.0 + 1j * rng.standard_normal(size)
    # signed zeros in either part, which the bytes must keep
    for value in (complex(-0.0, 0.0), complex(0.5, -0.0), complex(-0.0, -0.0)):
        flat[rng.random(size) < 0.25] = value
    if size:
        flat[0] = complex(-0.0, -0.0)
    arr = flat.reshape(shape)
    assert canonical_dumps(matrix_to_pairs(arr)) == canonical_dumps(recursive_pairs(arr))


def test_negative_zero_survives_a_round_trip():
    pairs = [[-0.0, 1.0], [2.0, -0.0]]
    arr = pairs_to_matrix(pairs)
    assert math.copysign(1.0, arr[0].real) == -1.0
    assert math.copysign(1.0, arr[1].imag) == -1.0
    back = matrix_to_pairs(arr)
    assert back == pairs
    assert [math.copysign(1.0, v) for pair in back for v in pair] == [-1.0, 1.0, 1.0, -1.0]
