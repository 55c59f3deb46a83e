"""Stability scan for bivariate polynomials on the bidisk.

A polynomial is stable when it has no zeros in the open bidisk; zeros on the
boundary are allowed and do not disqualify the StableOpen verdict.  The scan
fixes one variable on torus and interior-disk sample grids and takes the roots
of the univariate slices, in both variable orders, from batched companion
eigensolves: every torus slice, then each interior slice that Cauchy's bound
does not clear.  It clears a slice whose roots all lie beyond both 1 - tol and
the smallest root of its order's torus slices, as such a slice can neither
propose a zero nor hold the smallest root; on strictly stable inputs about 1
slice in 8 is eigensolved.  A slice proposes its smallest root inside, and
an interior slice that vanishes identically proposes w = 0.  The first
proposal in scan order (z1 fixed, then z2; torus samples first) on an interior
slice where p is small, about which a disk that holds a zero of p lies inside,
is the ZeroFound witness; any other makes the verdict Inconclusive.  So no
boundary zero becomes a witness, even one that rounding moved or split inside.
The smallest |p| on the torus grid (min_modulus) comes from the same slice
rows: the torus rows times the torus powers give p on the whole grid.
This is a sampling certificate: verdicts are exact about the witnesses they
report and honest (Inconclusive) when a candidate zero cannot be confirmed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval2d

from .numerics import roots_rows
from .poly2 import BivariatePolynomial
from .serialize import FORMAT_TAG, complex_to_pair

STABLE_OPEN = "StableOpen"
STABLE_CLOSED_STRICT = "StableClosedStrict"
ZERO_FOUND = "ZeroFound"
INCONCLUSIVE = "Inconclusive"
_SCREEN = 2.0 ** -10  # Cauchy screen margin: rounding in its sum and eigvals' error


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
    if not 0.0 <= tol < 1.0:
        raise ValueError("tol must lie in [0, 1)")
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
    powers = samples.reshape(-1, 1) ** np.arange(max(p.coeffs.shape))
    on_torus = np.arange(samples.size) < torus_grid
    for half, coeff_grid in enumerate((p.coeffs, p.coeffs.T)):
        part = slice(half * samples.size, (half + 1) * samples.size)
        found = roots[part, : coeff_grid.shape[1] - 1]  # a view into roots
        # slice_coeffs[s, k] is the coefficient of w**k in p(fixed_s, w)
        slice_coeffs = powers[:, : coeff_grid.shape[0]] @ coeff_grid
        mag = np.abs(slice_coeffs)
        flat = np.max(mag, axis=1) <= tol * coeff_scale
        degenerate[part] = flat
        found[~flat & on_torus] = roots_rows(slice_coeffs[~flat & on_torus], lead_tol=1e-13)
        # Cauchy: no root in |w| <= bar when sum_{k>=1} |c_k| bar^k < |c_0|, so
        # an interior row cleared here can neither propose a zero nor hold the
        # smallest root, as this order's torus rows, earlier in scan order, hold low
        low = np.min(np.nan_to_num(np.abs(found[on_torus]), nan=np.inf), initial=np.inf)
        bar = (1.0 + _SCREEN) * max(low, 1.0 - tol)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN sums clear nothing
            cleared = mag[:, 1:] @ bar ** np.arange(1, mag.shape[1]) <= (1 - _SCREEN) * mag[:, 0]
        solve = ~flat & ~on_torus & ~cleared
        found[solve] = roots_rows(slice_coeffs[solve], lead_tol=1e-13)

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
    modulus, reach = _zero_reach(p, w1, w2, flip != degenerate[rows])
    confirmed = (modulus <= tol * max(1.0, coeff_scale)) & (reach < 1.0) & interior[rows]

    # the last order's torus rows times the torus powers: p on the torus grid
    torus = powers[:torus_grid, : slice_coeffs.shape[1]]
    min_modulus = float(np.min(np.abs(slice_coeffs[:torus_grid] @ torus.T)))
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
    """|p(w)| and |w| + r, with r the radius of a disk about w that holds a zero of f.

    w is w1 (in_z1) or w2, and f is p along w.  f of degree d has a zero
    within d |f(w) / f'(w)| of w (f'/f sums 1/(w - zeta)), and within
    |f(w) / a_d|^(1/d) for a multiple one; each value is widened by its
    rounding error.  p, dp/dz2, the z2-leading coefficient, dp/dz1 and the
    z1-leading coefficient share one zero-padded grid, evaluated once with
    its majorant.  Zero padding does not change Horner values, and the
    whole grid's error bound 8 (n + m + 2) eps times the majorant is at
    least each polynomial's own, so the disk still holds a zero.
    """
    n, m = p.bidegree
    lead2, lead1 = BivariatePolynomial(p.coeffs[:, -1:]), BivariatePolynomial(p.coeffs[-1:, :])
    parts = (p, p.derivative(2), lead2, p.derivative(1), lead1)
    stack = np.stack([q.padded((n, m)).coeffs for q in parts], axis=-1)
    values = np.abs(polyval2d(w1, w2, stack))
    error = 8 * (n + m + 2) * np.finfo(float).eps * polyval2d(np.abs(w1), np.abs(w2), np.abs(stack))
    f = values[0] + error[0]
    low = np.maximum(values - error, 0.0)
    # row 0 of radius is along z2 (degree m), row 1 along z1 (degree n)
    d = np.array([[m], [n]])
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = np.minimum(d * f / low[1::2], (f / low[2::2]) ** (1.0 / np.maximum(d, 1)))
    # f == 0: every term of p vanishes exactly at w
    radius = np.where(f == 0.0, 0.0, radius)
    return values[0], np.where(in_z1, np.abs(w1) + radius[1], np.abs(w2) + radius[0])
