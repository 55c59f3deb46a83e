"""Stability test for bivariate polynomials on the bidisk.

p is stable when it has no zeros in the open bidisk; boundary zeros do not
disqualify StableOpen.  Slices fix one variable on torus and interior-disk
samples, in scan order: z1 fixed, then z2; in each, the torus, then 0, then
the disk.  p(0, .), the first interior slice, goes first: a confirmed proposal
there (below) is the scan's own ZeroFound witness.  Then StableClosedStrict, if p
has no zero on the closed bidisk of radius r = 1 + 2 max(tol, eps^(1/degree)):
by Cauchy's bound, if |c_00| exceeds the sum of the other |c_ab| r^(a+b), else by
one-variable tests on q = p(r z1, r z2) (DeCarlo, Murray and Saeks; Strintzis):
q has no zero on the closed bidisk when q(0, .) and q(., 1) have none on the
closed disk (Cauchy's bound or a certified Schur-Cohn recursion) and q has none
on the torus (its torus grid minimum exceeds a Lipschitz gap).  Any other input is
scanned: companion eigensolves give the roots of each slice that neither Cauchy's
bound nor a Schur-Cohn recursion with a rounding bound clears of roots within
(1 + tol)(1 + 2^-10), as no other can propose a zero or block StableClosedStrict.
A slice proposes its smallest root inside, and an interior slice that vanishes
identically proposes w = 0.  The first proposal in scan order on an interior
slice where p is small, about which a disk that holds a zero of p lies inside,
is the ZeroFound witness; any other, even a boundary zero that rounding moved
inside, makes the verdict Inconclusive.  min_modulus, the least |p| on the torus
grid, is the torus slice rows times the torus powers, in the rows that a
Lipschitz bound does not clear.  p is first scaled by the exact power of two
that puts its largest real or imaginary part in [1, 2): tol is relative to p's
size, and min_modulus is scaled back.  Verdicts before the scan are proved; scan
verdicts are a sampling certificate, exact about the witnesses they report.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval2d

from .multipoly import _ROUND, _table_product
from .poly2 import BivariatePolynomial
from .serialize import FORMAT_TAG, complex_to_pair

STABLE_OPEN = "StableOpen"
STABLE_CLOSED_STRICT = "StableClosedStrict"
ZERO_FOUND = "ZeroFound"
INCONCLUSIVE = "Inconclusive"
_SCREEN = 2.0 ** -10  # screen margin: eigvals' error, and rounding in Cauchy's sum
_LEAD_TOL = 1e-13  # roots_rows trims leading coefficients <= this times max|row|; the screen trims the same


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
        witness = None if self.witness is None else [complex_to_pair(w) for w in self.witness]
        return {"format": FORMAT_TAG, **dataclasses.asdict(self), "witness": witness}


def roots_rows(rows, lead_tol: float = 0.0) -> np.ndarray:
    """Roots of each row's sum(rows[r, k] * w**k), NaN-padded to k_max columns.

    Leading coefficients with modulus <= lead_tol * max|row| are trimmed first,
    then each row's roots are np.roots' of the rest, bit for bit: the same
    companion matrices, one eigvals call per companion size, and the exact
    zero low-order coefficients appended as roots at 0.  A zero row is
    rejected.
    """
    c = np.asarray(rows, dtype=complex)
    if c.ndim != 2 or c.shape[1] == 0:
        raise ValueError("coefficients must form nonempty rows")
    mag = np.abs(c)
    top = np.max(mag, axis=1)
    if np.any(top == 0.0):
        raise ValueError("zero polynomial has no well-defined root set")
    degree = c.shape[1] - 1 - np.argmax((mag > lead_tol * top[:, None])[:, ::-1], axis=1)
    low = np.argmax(c != 0, axis=1)
    size = degree - low
    cols = np.arange(c.shape[1] - 1)
    roots = np.where((cols >= size[:, None]) & (cols < degree[:, None]), 0j, np.nan)
    for n in np.unique(size[size > 0]):
        sel = np.flatnonzero(size == n)
        desc = np.take_along_axis(c[sel], degree[sel, None] - np.arange(n + 1), axis=1)
        companion = np.zeros((sel.size, n, n), dtype=complex)
        companion[:, 0, :] = -desc[:, 1:] / desc[:, :1]
        companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        roots[sel, :n] = np.linalg.eigvals(companion)
    return roots


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
    top = float(np.max(np.abs(p.coeffs.view(float))))
    if top == 0.0:
        raise ValueError("the zero polynomial is identically zero on the bidisk")
    shift = int(np.frexp(top)[1]) - 1
    if shift:
        p = BivariatePolynomial(np.ldexp(p.coeffs.view(float), -shift).view(complex))
    coeff_scale = float(np.max(np.abs(p.coeffs)))

    samples, powers = _sample_powers(torus_grid, disk_grid, max(p.coeffs.shape))
    # ring[s, k] is the coefficient of z1**k in p(z1, samples[s]), s on the torus
    ring = _table_product(powers[:torus_grid, : p.coeffs.shape[1]], p.coeffs.T)
    min_modulus = _torus_minimum(p, ring, powers[:torus_grid, : ring.shape[1]])
    reported = float(np.ldexp(min_modulus, shift))
    # p(0, .) from a product of two rows, which sums as the full slice table does
    zero_row = (powers[torus_grid:torus_grid + 2, : p.coeffs.shape[0]] @ p.coeffs)[:1]
    decided = shortcuts and _shortcut(p, zero_row, powers[:torus_grid], min_modulus, tol)
    if decided:
        return StabilityReport(*decided, reported, torus_grid, disk_grid, tol)

    # table[k, h, s] is the coefficient of w**k in p(samples[s], w) (h = 0) or p(w, samples[s]),
    # zero-padded; as (k, r) with r = h * samples.size + s, scan order is column order
    table = np.zeros((max(p.coeffs.shape), 2, samples.size), dtype=complex)
    for half, grid in enumerate((p.coeffs, p.coeffs.T)):
        table[: grid.shape[1], half] = _table_product(powers[:, : grid.shape[0]], grid).T
    table = table.reshape(len(table), -1)
    mag = np.abs(table)
    flat = np.max(mag, axis=0) <= tol * coeff_scale
    # only a row with a root within 1 + tol can propose a zero or block StableClosedStrict
    live = np.flatnonzero(~flat & ~_cauchy_clears(mag.T, np.arange(len(mag)), 1.0 + tol))
    solve = live[~_schur_cohn_clears(table.take(live, axis=1).T, (1.0 + tol) * (1 + _SCREEN))]
    roots = roots_rows(table.take(solve, axis=1).T, lead_tol=_LEAD_TOL)
    moduli = np.nan_to_num(np.abs(roots), nan=np.inf)
    row_min = np.min(moduli, axis=1, initial=np.inf)
    # torus rows by index, as |exp(2 pi i k / N)| can round below 1
    interior = np.arange(table.shape[1]) % samples.size >= torus_grid
    # proposed zeros of p: (fixed, 0) on a degenerate interior slice, and the
    # smallest root on a slice with a root inside
    inside = row_min < 1.0 - tol
    rows = np.concatenate([np.flatnonzero(flat & interior), solve[inside]])
    if not rows.size:
        strict = np.min(row_min, initial=np.inf) > 1.0 + tol and min_modulus > tol
        return StabilityReport(STABLE_CLOSED_STRICT if strict else STABLE_OPEN, None, reported,
                               torus_grid, disk_grid, tol)
    rows, order = np.sort(rows), np.argsort(rows)
    root = np.concatenate([np.zeros(rows.size - np.count_nonzero(inside), dtype=complex),
                           roots[inside, np.argmin(moduli[inside], axis=1)]])[order]
    flip, at = rows >= samples.size, samples[rows % samples.size]
    w1, w2 = np.where(flip, root, at), np.where(flip, at, root)
    # a proposal counts if p is small there, its slice is an interior one, and
    # along the coordinate it was found in (the fixed one on a degenerate
    # slice) a disk that holds a zero of p lies inside
    modulus, reach = _zero_reach(p, w1, w2, flip != flat[rows])
    confirmed = (modulus <= tol * coeff_scale) & (reach < 1.0) & interior[rows]
    # the first confirmed proposal in scan order ends the scan; else the last is pending
    verdict, k = (ZERO_FOUND, np.argmax(confirmed)) if np.any(confirmed) else (INCONCLUSIVE, -1)
    return StabilityReport(verdict, (complex(w1[k]), complex(w2[k])), reported, torus_grid, disk_grid, tol)


def _shortcut(p, row, torus, min_modulus, tol):
    """ZeroFound on p(0, .), the (1, m + 1) row, or StableClosedStrict by Cauchy's bound on the bidisk or
    else, with p(0, .) cleared within r, by _decarlo_strintzis_clears on p(r z1, r z2); None if neither.
    torus holds the torus grid's powers, a row per point.  p's largest coefficient is at least 1."""
    (n, m), coeff_scale = p.bidegree, float(np.max(np.abs(p.coeffs)))
    margin = max(tol, np.finfo(float).eps ** (1.0 / max(n, m, 1)))  # covers the scan's rounding
    radius = 1.0 + 2.0 * margin
    mag = np.abs(row[0])
    flat = np.max(mag) <= tol * coeff_scale
    far = _cauchy_clears(mag, np.arange(mag.size), radius)
    roots = np.zeros(0, dtype=complex) if flat or far else roots_rows(row, lead_tol=_LEAD_TOL)[0]
    moduli = np.nan_to_num(np.abs(roots), nan=np.inf)
    low = np.min(moduli, initial=np.inf)
    if flat or low < 1.0 - tol:
        root = 0j if flat else roots[np.argmin(moduli)]
        modulus, reach = _zero_reach(p, np.zeros(1, dtype=complex), np.array([root]), flat)
        confirmed = modulus[0] <= tol * coeff_scale and reach[0] < 1.0
        return (ZERO_FOUND, (0j, complex(root))) if confirmed else None
    exponents, moduli = np.add.outer(np.arange(n + 1), np.arange(m + 1)), np.abs(p.coeffs)
    # with no zero on the closed bidisk |p| is least on the torus, at least min_modulus less
    # pi/N sum (a + b + 1) |c_ab| (the 1 for rounding): above tol * scale, no slice is flat
    gap = np.pi / len(torus) * np.sum((exponents + 1) * moduli)
    if min_modulus - gap > tol * coeff_scale and (far or _schur_cohn_clears(row, radius)[0]) and (
            not n or _cauchy_clears(moduli.ravel(), exponents.ravel(), radius)
            or _decarlo_strintzis_clears(p.coeffs * radius ** exponents, exponents, torus)):
        return STABLE_CLOSED_STRICT, None


def _decarlo_strintzis_clears(q, exponents, torus):
    """Whether q, with q(0, .) free of zeros on the closed disk, has none on the closed bidisk (DeCarlo,
    Murray and Saeks 1977; Strintzis 1977): Cauchy's bound or _schur_cohn_clears clears the row q(., 1),
    and q's least modulus on the torus grid, from torus (the grid's powers), exceeds pi/N sum (a + b + 1)
    |q_ab|.  For each z2 on the circle q(., z2) then has as many zeros in the disk as at z2 = 1, none;
    so for each z1 in the closed disk q(z1, .) has as many as at z1 = 0, none.  The gap's 1 covers the
    rounding of q and of its torus values, and by Rouche's theorem that of the summed row q(., 1)."""
    row = q.sum(axis=1)
    if not (_cauchy_clears(np.abs(row), np.arange(row.size), 1.0) or _schur_cohn_clears(row[None], 1.0)[0]):
        return False
    gap = np.pi / len(torus) * np.sum((exponents + 1) * np.abs(q))
    ring = _table_product(torus[:, : q.shape[1]], q.T)
    return _torus_minimum(BivariatePolynomial(q), ring, torus[:, : q.shape[0]], floor=gap) > gap


def _cauchy_clears(mag, degrees, radius):
    """Cauchy's bound: no zero within radius if sum_(k>=1) mag[..., k] ((1 + _SCREEN) radius)^degrees[k]
    <= (1 - _SCREEN) mag[..., 0], the constant term's modulus; inf and NaN sums clear nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        return mag[..., 1:] @ ((1 + _SCREEN) * radius) ** degrees[1:] <= (1 - _SCREEN) * mag[..., 0]


def _schur_cohn_clears(rows, radius):
    """Whether each nonzero row, its leading coefficients <= _LEAD_TOL max|row| trimmed as in roots_rows,
    provably has no zero on the closed disk of this radius: the Schur-Cohn recursion (Jury 1964;
    Bistritz 1984) on q(w) = row(radius w).  q of formal degree d has none exactly when |q_0| > |q_d|
    and conj(q_0) q - q_d w^d conj(q(1 / conj w)), of formal degree d - 1, has none (Rouche's theorem).
    err[k] bounds |q_k| less the exact value on the trimmed row: the trimmed terms and rounding, then
    a running error bound (multipoly._compose): 2 _ROUND per step, 2^-1060 for underflow, 1 + 2^-20
    for its own rounding.  Each step scales q by the power of two that puts max |q_k| in [1/2, 1)."""
    c = np.ascontiguousarray(np.asarray(rows, dtype=complex).T)  # c[k]: each row's w**k coefficient
    width, powers = len(c), np.cumprod([1.0] + [radius] * (len(c) - 1))[:, None]
    top, alive = np.max(np.abs(c), axis=0), np.ones(c.shape[1], dtype=bool)
    c = c * powers
    mag = np.abs(c)
    err = (1 + 2.0 ** -20) * (width * _ROUND * mag + _LEAD_TOL * powers * top) + 2.0 ** -1060
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(width - 1, 0, -1):
            scale = np.ldexp(1.0, -np.frexp(np.max(mag, axis=0))[1])
            c, mag, err = c * scale, mag * scale, err * scale
            ok = mag[0] - mag[d] > (1 + 2.0 ** -20) * (err[0] + err[d] + _ROUND * (mag[0] + mag[d]))
            if not ok.all():
                alive[alive] = ok
                c, mag, err = (np.compress(ok, x, axis=1) for x in (c, mag, err))
            c = np.conj(c[0]) * c[:d] - c[d] * np.conj(c[d:0:-1])
            err = (1 + 2.0 ** -20) * ((err[0] + 2 * _ROUND * mag[0]) * mag[:d] + (mag[0] + err[0]) * err[:d]
                                      + (err[d] + 2 * _ROUND * mag[d]) * mag[d:0:-1]
                                      + (mag[d] + err[d]) * err[d:0:-1]) + 2.0 ** -1060
            mag = np.abs(c)
    return alive


def _torus_minimum(p, ring, torus, floor=np.inf):
    """The least |p| on the torus grid, min |ring @ torus.T| bit for bit, in O(N) memory; or, where
    that exceeds floor, a value that does too.

    Row s is p(., w_s), w_s = exp(2 pi i s / N).  From N = 256 on, every 8th row is
    evaluated first, then each row whose evaluated neighbours' least value, less L =
    sum_b b sum_a |c_ab| (p's change per radian of w) times their angle and twice
    16 (n + m + 2) eps sum |c_ab| (a computed value's distance from p), is below both
    the least value found and floor; lip and slack also cover the bound's own rounding."""
    (n, m), size = p.bidegree, len(ring)
    if size < 256:  # pruning saves less than it costs
        return float(np.min(np.abs(_table_product(ring, torus.T))))
    head, rest = np.arange(0, size, 8), np.flatnonzero(np.arange(size) % 8)
    minima = _row_minima(ring[head], torus)
    before, after = rest // 8, (rest // 8 + 1) % head.size  # evaluated neighbours, in head
    lip = (1.0 + 2.0 ** -20) * 2.0 * np.pi / size * np.sum(np.arange(m + 1) * np.abs(p.coeffs))
    slack = 40 * (n + m + 2) * np.finfo(float).eps * np.sum(np.abs(p.coeffs))
    low = np.maximum(minima[before] - (rest - head[before]) * lip,
                     minima[after] - (head[after] - rest) % size * lip) - slack
    left = rest[(low < np.min(minima)) & (low <= floor)]
    return float(np.min(np.concatenate([minima, _row_minima(ring[left], torus)])))


def _row_minima(rows, torus):
    """min_t |rows[r] @ torus[t]| per row r, the full product's values, 64 rows at a time for memory."""
    minima = np.empty(len(rows))
    for start in range(0, len(rows), 64):
        minima[start:start + 64] = np.min(np.abs(_table_product(rows[start:start + 64], torus.T)), axis=1)
    return minima


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
