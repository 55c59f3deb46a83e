"""Tests for the JSON helpers."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aglerkit.serialize import (
    canonical_dumps,
    complex_to_pair,
    matrix_to_pairs,
    pair_to_complex,
    pairs_to_matrix,
)


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


@pytest.mark.parametrize("pair", [[math.nan, 0.0], [0.0, math.inf], [-math.inf, 1.0], ["nan", 0.0]])
def test_pair_with_a_non_finite_part_is_refused(pair):
    with pytest.raises(ValueError, match="non-finite"):
        pair_to_complex(pair)


@pytest.mark.parametrize("pairs", [[[math.nan, 0.0]], [[0.0, 1.0], [0.0, math.inf]], [[[1e999, 0.0]]], [["nan", 0.0]]])
def test_pairs_with_a_non_finite_part_are_refused(pairs):
    with pytest.raises(ValueError, match="non-finite"):
        pairs_to_matrix(pairs)


def test_finite_pair_keeps_its_signed_zeros():
    z = pair_to_complex([-0.0, -0.0])
    assert z == 0 and math.copysign(1.0, z.real) == math.copysign(1.0, z.imag) == -1.0


def reference(obj):
    """The stdlib text that canonical_dumps must match byte for byte."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def outcome(dump, obj):
    """dump(obj), or the type of the exception it raises."""
    try:
        return dump(obj)
    except (TypeError, ValueError) as exc:
        return type(exc)


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.floats(),  # NaN and the infinities too
    FINITE,
    st.text(),
    st.text(alphabet=st.sampled_from('"\\/\x00\x1f\x7f\n\té☃\U0001f600 a')),
)
FLOAT_LISTS = st.lists(FINITE, min_size=1)
MIXED_LISTS = st.tuples(FINITE, st.sampled_from([2, True, None, "x"])).map(list)  # [1.0, 2], [1.0, True], ...
KEYS = [st.text(), st.integers(), st.floats(), st.booleans(), st.none(), st.one_of(st.integers(), FINITE)]
TREES = st.recursive(
    st.one_of(SCALARS, FLOAT_LISTS, st.lists(FLOAT_LISTS), MIXED_LISTS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.one_of(FLOAT_LISTS, FLOAT_LISTS.map(tuple), st.just([])), max_size=4),
        *(st.dictionaries(key, children, max_size=4) for key in KEYS),
    ),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(TREES)
def test_canonical_dumps_is_the_reference_encoding(obj):
    assert outcome(canonical_dumps, obj) == outcome(reference, obj)


def test_int_keys_become_strings():
    assert canonical_dumps({1: 2.0}) == '{\n  "1": 2.0\n}\n' == reference({1: 2.0})


def test_a_certificate_tree_is_the_reference_encoding():
    obj = {"format": "aglerkit/1", "G": matrix_to_pairs(np.arange(6).reshape(2, 3) * (0.1 - 0.3j)),
           "list": [], "map": {}, "name": "\u00e9\"", "bidegree": [1, 2], "passed": True, "none": None}
    assert canonical_dumps(obj) == reference(obj)


BAD_FLOATS = [math.nan, math.inf, -math.inf, np.float64("nan")]
UNWRITABLE = [np.int64(3), 1j, {1}, np.array([1.0]), np.bool_(True), np.float32(1.0)]
PLACES = [lambda v: v, lambda v: [1.0, v, 2.0], lambda v: [[1.0, 2.0], [v, 0.5]], lambda v: {"a": 1.0, "b": v},
          lambda v: {"a": [v]}]


@pytest.mark.parametrize("place", range(len(PLACES)))
@pytest.mark.parametrize("value, error", [(v, ValueError) for v in BAD_FLOATS] + [(v, TypeError) for v in UNWRITABLE])
def test_bad_values_raise_the_reference_error(value, error, place):
    obj = PLACES[place](value)
    with pytest.raises(error):
        reference(obj)
    with pytest.raises(error):
        canonical_dumps(obj)


@pytest.mark.parametrize("obj, error", [({math.nan: 1}, ValueError), ({(1, 2): 1}, TypeError),
                                        ({1: 1, "a": 2}, TypeError), ([math.nan, {1}], ValueError),
                                        ([{1}, math.nan], TypeError)])
def test_the_first_bad_item_in_order_decides_the_error(obj, error):
    assert outcome(canonical_dumps, obj) is outcome(reference, obj) is error
