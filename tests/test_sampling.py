"""Tests for the seeded and deterministic point samplers."""

import numpy as np
import pytest

from aglerkit.sampling import random_disk, random_polydisk


@pytest.mark.parametrize("count, dim, radius", [(0, 1, 0.5), (0, 3, 0.9), (1, 1, 1.0), (7, 1, 0.85),
                                                (60, 4, 0.85), (400, 3, 0.95), (13, 6, 2.5)])
def test_random_polydisk_is_one_random_disk_per_coordinate(count, dim, radius):
    # one draw for every coordinate takes the stream in the order of the
    # per-coordinate draws, and the same arithmetic gives the same bits
    seed = 1000 * count + 10 * dim
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    pts = random_polydisk(rng, count, dim, radius)
    reference = np.stack([random_disk(ref_rng, count, radius) for _ in range(dim)], axis=1)
    assert pts.shape == (count, dim) and pts.dtype == complex and pts.flags.c_contiguous
    assert pts.tobytes() == reference.tobytes()
    assert rng.random() == ref_rng.random()  # the stream is left at the same place
