"""Tests for the JSON helpers."""

import math

from aglerkit.serialize import matrix_to_pairs, pairs_to_matrix


def test_negative_zero_survives_a_round_trip():
    pairs = [[-0.0, 1.0], [2.0, -0.0]]
    arr = pairs_to_matrix(pairs)
    assert math.copysign(1.0, arr[0].real) == -1.0
    assert math.copysign(1.0, arr[1].imag) == -1.0
    back = matrix_to_pairs(arr)
    assert back == pairs
    assert [math.copysign(1.0, v) for pair in back for v in pair] == [-1.0, 1.0, 1.0, -1.0]
