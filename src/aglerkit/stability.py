"""Stability test for bivariate polynomials on the bidisk.

p is stable when it has no zeros in the open bidisk; boundary zeros do not
disqualify StableOpen.  Slices fix one variable on torus and interior-disk
samples, in scan order: z1 fixed, then z2; in each, the torus, then 0, then
the disk.  p(0, .), the first interior slice, goes first: a confirmed proposal
there (below) is the scan's own ZeroFound witness.  Then the Schur-Cohn test
(Huang; Geronimo and Woerdeman): p has no zero on the closed bidisk exactly
when p(0, .) and det G have none on the closed disk, G the outer factor of the
moments M(z2) of sos; run on p(r z1, r z2), r = 1 + 2 max(tol, eps^(1/degree)),
it gives StableClosedStrict.  Any other input is scanned: companion eigensolves
give the roots of every torus slice and of each interior one that Cauchy's
bound does not place beyond 1 - tol and its order's smallest torus root.  A
slice proposes its smallest root inside, and an interior slice that vanishes
identically proposes w = 0.  The first proposal in scan order on an interior
slice where p is small, about which a disk that holds a zero of p lies inside,
is the ZeroFound witness; any other, even a boundary zero that rounding moved
inside, makes the verdict Inconclusive.  min_modulus, the least |p| on the
torus grid, is the torus slice rows times the torus powers.  Scan verdicts are
a sampling certificate, exact about the witnesses they report.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval2d

from .numerics import roots_rows
from .poly2 import BivariatePolynomial
from .serialize import FORMAT_TAG, complex_to_pair
from .sos import _outer_factor

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


@functools.lru_cache(maxsize=8)
def _sample_powers(torus_grid, disk_grid, count):
    """The samples and their powers 0..count-1, a row each; read-only, as calls share them."""
    samples = _fixed_samples(torus_grid, disk_grid)
    powers = samples.reshape(-1, 1) ** np.arange(count)
    samples.flags.writeable = powers.flags.writeable = False
    return samples, powers


def check_stability(
    p: BivariatePolynomial,
    torus_grid: int = 512,
    disk_grid: int = 64,
    tol: float = 1e-9,
) -> StabilityReport:
    """Decide whether p has zeros in the bidisk; see the module docstring."""
    return _scan(p, torus_grid, disk_grid, tol, shortcuts=True)


def _scan(p, torus_grid=512, disk_grid=64, tol=1e-9, shortcuts=False):
    """check_stability, by the slice scan alone unless shortcuts is set."""
    if torus_grid < 4 or disk_grid < 2:
        raise ValueError("grids are too coarse")
    if not 0.0 <= tol < 1.0:
        raise ValueError("tol must lie in [0, 1)")
    coeff_scale = float(np.max(np.abs(p.coeffs)))
    if coeff_scale == 0.0:
        raise ValueError("the zero polynomial is identically zero on the bidisk")

    samples, powers = _sample_powers(torus_grid, disk_grid, max(p.coeffs.shape))
    # slices[h][s, k] is the coefficient of w**k in p(samples[s], w) (h = 0) or p(w, samples[s])
    slices = [powers[:, : grid.shape[0]] @ grid for grid in (p.coeffs, p.coeffs.T)]
    # the last order's torus rows times the torus powers: p on the torus grid
    torus = powers[:torus_grid, : slices[1].shape[1]]
    min_modulus = float(np.min(np.abs(slices[1][:torus_grid] @ torus.T)))
    decided = shortcuts and _shortcut(p, samples[torus_grid], slices, torus_grid, min_modulus, tol)
    if decided:
        return StabilityReport(*decided, min_modulus, torus_grid, disk_grid, tol)

    # scan order: z1 fixed, then z2 fixed; in each, the samples in order
    fixed = np.tile(samples, 2)
    swapped = np.repeat([False, True], samples.size)
    degenerate = np.zeros(fixed.size, dtype=bool)
    # roots[r] holds row r's roots, NaN-padded; a spare column serves constants
    roots = np.full((fixed.size, max(p.coeffs.shape)), np.nan, dtype=complex)
    on_torus = np.arange(samples.size) < torus_grid
    for half, slice_coeffs in enumerate(slices):
        part = slice(half * samples.size, (half + 1) * samples.size)
        found = roots[part, : slice_coeffs.shape[1] - 1]  # a view into roots
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

    if np.any(confirmed):
        verdict, k = ZERO_FOUND, np.argmax(confirmed)  # the first in scan order ends the scan
    elif rows.size:
        verdict, k = INCONCLUSIVE, -1  # the last proposal is pending
    elif np.min(row_min) > 1.0 + tol and min_modulus > tol:
        verdict = STABLE_CLOSED_STRICT
    else:
        verdict = STABLE_OPEN
    witness = (complex(w1[k]), complex(w2[k])) if rows.size else None
    return StabilityReport(verdict, witness, min_modulus, torus_grid, disk_grid, tol)


def _shortcut(p, zero, slices, torus_grid, min_modulus, tol):
    """ZeroFound on p(0, .), or StableClosedStrict by the Schur-Cohn test; None if neither."""
    (n, m), coeff_scale = p.bidegree, float(np.max(np.abs(p.coeffs)))
    margin = max(tol, np.finfo(float).eps ** (1.0 / max(n, m, 1)))  # covers the scan's rounding
    radius = 1.0 + 2.0 * margin
    row = slices[0][torus_grid:torus_grid + 1]
    mag = np.abs(row[0])
    flat = np.max(mag) <= tol * coeff_scale
    with np.errstate(over="ignore", invalid="ignore"):  # Cauchy, as in the scan: no root within
        far = mag[1:] @ ((1 + _SCREEN) * radius) ** np.arange(1, mag.size) <= (1 - _SCREEN) * mag[0]
    roots = np.zeros(0, dtype=complex) if flat or far else roots_rows(row, lead_tol=1e-13)[0]
    moduli = np.nan_to_num(np.abs(roots), nan=np.inf)
    low = np.min(moduli, initial=np.inf)
    if flat or low < 1.0 - tol:
        root = 0j if flat else roots[np.argmin(moduli)]
        modulus, reach = _zero_reach(p, np.array([zero]), np.array([root]), flat)
        confirmed = modulus[0] <= tol * max(1.0, coeff_scale) and reach[0] < 1.0
        return (ZERO_FOUND, (complex(zero), complex(root))) if confirmed else None
    exponents = np.add.outer(np.arange(n + 1), np.arange(m + 1))
    # with no zero on the closed bidisk |p| is least on the torus, at least min_modulus less
    # pi/N sum (a + b + 1) |c_ab| (the 1 for rounding): above tol * scale, no slice is flat
    gap = np.pi / torus_grid * np.sum((exponents + 1) * np.abs(p.coeffs))
    if low > radius and min_modulus - gap > tol * max(1.0, coeff_scale) and (
            not n or _outer_factor_clears(p.coeffs / coeff_scale * radius ** exponents, margin)):
        return STABLE_CLOSED_STRICT, None


def _outer_factor_clears(coeffs, margin):
    """Whether det G has no zero on the closed disk (n >= 1): the block companion of
    G_0^-1 G_j has spectral radius below 1, and G meets M_k = sum_j G_(j+k) G_j* to margin."""
    n, m = coeffs.shape[0] - 1, coeffs.shape[1] - 1
    try:
        moments, outer = _outer_factor(coeffs)
        miss = max(np.max(np.abs(moments[m + k] - np.einsum(
            "jab,jcb->ac", outer[k:], outer[: m + 1 - k].conj()))) for k in range(m + 1))
        companion = np.eye(n * m, k=-n, dtype=complex)
        if m:
            companion[:n] = -np.linalg.solve(outer[0], np.concatenate(outer[1:], axis=1))
        rho = np.max(np.abs(np.linalg.eigvals(companion)), initial=0.0)
    except np.linalg.LinAlgError:  # M is singular on the circle, or nearly so
        return False
    return miss <= margin * np.max(np.abs(moments)) and rho < 1.0


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
