"""Stability scan for bivariate polynomials on the bidisk.

A polynomial is stable when it has no zeros in the open bidisk; zeros on the
boundary are allowed and do not disqualify the StableOpen verdict.  The scan
fixes one variable on torus and interior-disk sample grids and takes the roots
of every univariate slice, in both variable orders, from one batched companion
eigensolve per companion size.  A slice proposes its smallest root inside, and
an interior slice that vanishes identically proposes w = 0.  The first
proposal in scan order (z1 fixed, then z2; torus samples first) on an interior
slice where p is small, about which a disk that holds a zero of p lies inside,
is the ZeroFound witness; any other makes the verdict Inconclusive.  So no
boundary zero becomes a witness, even one that rounding moved or split inside.
This is a sampling certificate: verdicts are exact about the witnesses they
report and honest (Inconclusive) when a candidate zero cannot be confirmed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import roots_rows
from .poly2 import BivariatePolynomial
from .serialize import FORMAT_TAG, complex_to_pair

STABLE_OPEN = "StableOpen"
STABLE_CLOSED_STRICT = "StableClosedStrict"
ZERO_FOUND = "ZeroFound"
INCONCLUSIVE = "Inconclusive"


@dataclass
class StabilityReport:
    verdict: str
    witness: tuple[complex, complex] | None
    min_modulus: float
    min_root_modulus: float
    torus_grid: int
    disk_grid: int
    tolerance: float

    @property
    def stable(self) -> bool:
        return self.verdict in (STABLE_OPEN, STABLE_CLOSED_STRICT)

    def to_json(self) -> dict:
        return {
            "format": FORMAT_TAG,
            "verdict": self.verdict,
            "witness": None if self.witness is None else [
                complex_to_pair(self.witness[0]),
                complex_to_pair(self.witness[1]),
            ],
            "min_modulus": self.min_modulus,
            # infinity means no slice had any root at all; JSON gets null
            "min_root_modulus": (
                float(self.min_root_modulus)
                if np.isfinite(self.min_root_modulus)
                else None
            ),
            "torus_grid": self.torus_grid,
            "disk_grid": self.disk_grid,
            "tolerance": self.tolerance,
        }


def _fixed_samples(torus_grid: int, disk_grid: int) -> np.ndarray:
    torus = np.exp(2j * np.pi * np.arange(torus_grid) / torus_grid)
    k = np.arange(disk_grid)
    radii = 0.999 * np.sqrt((k + 0.5) / disk_grid)
    angles = np.exp(2j * np.pi * np.arange(disk_grid) / disk_grid)
    interior = np.concatenate([[0.0 + 0.0j], np.outer(radii, angles).ravel()])
    return np.concatenate([torus, interior])


def check_stability(
    p: BivariatePolynomial,
    torus_grid: int = 512,
    disk_grid: int = 64,
    tol: float = 1e-9,
) -> StabilityReport:
    """Scan for zeros of p in the bidisk; see the module docstring."""
    if torus_grid < 4 or disk_grid < 2:
        raise ValueError("grids are too coarse")
    coeff_scale = float(np.max(np.abs(p.coeffs)))
    if coeff_scale == 0.0:
        raise ValueError("the zero polynomial is identically zero on the bidisk")

    samples = _fixed_samples(torus_grid, disk_grid)
    # scan order: z1 fixed, then z2 fixed; in each, the samples in order
    fixed = np.tile(samples, 2)
    swapped = np.repeat([False, True], samples.size)
    degenerate = np.zeros(fixed.size, dtype=bool)
    # roots[r] holds row r's roots, NaN-padded; a spare column serves constants
    roots = np.full((fixed.size, max(p.coeffs.shape)), np.nan, dtype=complex)
    for half, coeff_grid in enumerate((p.coeffs, p.coeffs.T)):
        part = slice(half * samples.size, (half + 1) * samples.size)
        # slice_coeffs[s, k] is the coefficient of w**k in p(fixed_s, w)
        powers = samples.reshape(-1, 1) ** np.arange(coeff_grid.shape[0])
        slice_coeffs = powers @ coeff_grid
        flat = np.max(np.abs(slice_coeffs), axis=1) <= tol * coeff_scale
        degenerate[part] = flat
        roots[part][~flat, : slice_coeffs.shape[1] - 1] = roots_rows(
            slice_coeffs[~flat], lead_tol=1e-13
        )

    moduli = np.nan_to_num(np.abs(roots), nan=np.inf)
    row_min = np.min(moduli, axis=1)
    # torus rows by index, as |exp(2 pi i k / N)| can round below 1
    interior = np.tile(np.arange(samples.size) >= torus_grid, 2)
    # proposed zeros of p: (fixed, 0) on a degenerate interior slice, and the
    # smallest root on a slice with a root inside
    rows = np.flatnonzero((degenerate & interior) | (row_min < 1.0 - tol))
    root = np.where(degenerate[rows], 0j, roots[rows, np.argmin(moduli[rows], axis=1)])
    flip, at = swapped[rows], fixed[rows]
    w1, w2 = np.where(flip, root, at), np.where(flip, at, root)
    # a proposal counts if p is small there, its slice is an interior one, and
    # along the coordinate it was found in (the fixed one on a degenerate
    # slice) a disk that holds a zero of p lies inside
    confirmed = np.abs(p(w1, w2)) <= tol * max(1.0, coeff_scale)
    confirmed &= (_zero_reach(p, w1, w2, flip != degenerate[rows]) < 1.0) & interior[rows]

    min_modulus = _torus_min_modulus(p, torus_grid)
    min_root_modulus = np.min(row_min)
    if np.any(confirmed):
        # the first in scan order ends the scan
        k = np.argmax(confirmed)
        verdict, min_root_modulus = ZERO_FOUND, np.min(row_min[: rows[k] + 1])
    elif rows.size:
        verdict, k = INCONCLUSIVE, -1  # the last proposal is pending
    elif min_root_modulus > 1.0 + tol and min_modulus > tol:
        verdict = STABLE_CLOSED_STRICT
    else:
        verdict = STABLE_OPEN
    witness = (complex(w1[k]), complex(w2[k])) if rows.size else None
    return StabilityReport(
        verdict=verdict,
        witness=witness,
        min_modulus=min_modulus,
        min_root_modulus=float(min_root_modulus),
        torus_grid=torus_grid,
        disk_grid=disk_grid,
        tolerance=tol,
    )


def _zero_reach(p, w1, w2, in_z1):
    """|w| + r, with r the radius of a disk about w that holds a zero of f.

    w is w1 (in_z1) or w2, and f is p along w.  f of degree d has a zero
    within d |f(w) / f'(w)| of w (f'/f sums 1/(w - zeta)), and within
    |f(w) / a_d|^(1/d) for a multiple one; each value is widened by its
    rounding error.
    """
    f = _widened(p, w1, w2, 1.0)
    n, m = p.bidegree
    radii = []
    for d, variable, lead in ((m, 2, p.coeffs[:, -1:]), (n, 1, p.coeffs[-1:, :])):
        slope = _widened(p.derivative(variable), w1, w2, -1.0)
        top = _widened(BivariatePolynomial(lead), w1, w2, -1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            radius = np.minimum(d * f / slope, (f / top) ** (1.0 / max(d, 1)))
        # f == 0: every term of p vanishes exactly at w
        radii.append(np.where(f == 0.0, 0.0, radius))
    return np.abs(np.where(in_z1, w1, w2)) + np.where(in_z1, radii[1], radii[0])


def _widened(q: BivariatePolynomial, w1, w2, sign: float) -> np.ndarray:
    """|q(w1, w2)| plus sign times a bound on its rounding error, at least 0."""
    n, m = q.bidegree
    majorant = np.abs(BivariatePolynomial(np.abs(q.coeffs))(np.abs(w1), np.abs(w2)))
    error = 8 * (n + m + 2) * np.finfo(float).eps * majorant
    return np.maximum(np.abs(q(w1, w2)) + sign * error, 0.0)


def _torus_min_modulus(p: BivariatePolynomial, torus_grid: int) -> float:
    torus = np.exp(2j * np.pi * np.arange(torus_grid) / torus_grid)
    z1, z2 = np.meshgrid(torus, torus, indexing="ij")
    return float(np.min(np.abs(p(z1, z2))))
