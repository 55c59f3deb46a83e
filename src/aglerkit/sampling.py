"""Point sampling on disks and polydisks (deterministic grids and seeded draws)."""

from __future__ import annotations

import numpy as np

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def disk_points(count: int, radius: float) -> np.ndarray:
    """Deterministic quasi-uniform points in the closed disk of the given radius.

    Sunflower layout: radii grow like sqrt so density is uniform in area, angles
    step by the golden angle.  Point 0 sits near the center.
    """
    if count < 1:
        raise ValueError("count must be positive")
    k = np.arange(count)
    r = radius * np.sqrt((k + 0.5) / count)
    theta = k * _GOLDEN_ANGLE
    return r * np.exp(1j * theta)


def random_disk(rng: np.random.Generator, count: int, radius: float) -> np.ndarray:
    """Seeded uniform samples from the disk of the given radius."""
    r = radius * np.sqrt(rng.random(count))
    theta = 2.0 * np.pi * rng.random(count)
    return r * np.exp(1j * theta)


def random_polydisk(rng: np.random.Generator, count: int, dim: int, radius: float) -> np.ndarray:
    """Seeded uniform samples from a polydisk, shape (count, dim): one draw taken
    in the order of a random_disk call per coordinate, so the same samples."""
    u = rng.random((dim, 2, count))
    return np.ascontiguousarray((radius * np.sqrt(u[:, 0]) * np.exp(1j * (2.0 * np.pi * u[:, 1]))).T)
