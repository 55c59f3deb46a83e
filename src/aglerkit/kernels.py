"""Kernel realizations of certified decompositions and their verification.

From factor vectors a = (a_1..a_r), b = (b_1..b_s) for p, with componentwise
reflections a~, b~, the function f = p~/p satisfies

    1 - f(z) conj(f(w)) = (1 - z1 conj(w1)) K1(z, w) + (1 - z2 conj(w2)) K2(z, w)
    f(z) - f(w)         = (z1 - w1) L1(z, w) + (z2 - w2) L2(z, w)

where

    K1(z, w) = sum_k a_k(z) conj(a_k(w)) / (p(z) conj(p(w)))
    L1(z, w) = sum_k a~_k(z) a_k(w) / (p(z) p(w))

and likewise K2, L2 from b.  The kernels are evaluated from factor
polynomials, so K_j(z, z) >= 0 holds structurally; when a bundle is built
from a certificate the factors are re-derived from the stored Gram matrices
so that those matrices are what verification actually tests.
KernelBundle.from_certificate closes the vectors under reflection, so the
pointwise bound |L_j(z, w)|^2 <= K_j(z, z) K_j(w, w) holds as well, and on
the diagonal L_j(z, z) equals the partial derivative of f.

A bundle holds p, the factors and their reflections as the columns of one
coefficient matrix over the monomials z1^i z2^j; a point set's table, (p, f),
(a, a~), (b, b~), is its monomial table times that matrix, f = p~/p after
multipoly's pole test, so f, K_j and L_j raise DomainError at a zero of p,
and at a point outside the closed bidisk, where the kernels are not defined.
The checks build one table per point set and read the positivity subsets of
the sample points out of it.  Each property has one check:
verify_decomposition samples the identities, Cauchy-Schwarz and positivity
on point pairs, check_bounds the growth bound K_j(z, z) <= 1/(1 - |z_j|^2)
and the sum defect on one point set.  A check's draws depend on its (seed,
samples) alone, so they are taken once per process and shared read-only (the
four latest pairs are kept): 32 * samples bytes for check_bounds, 64 * samples
for verify_decomposition.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from . import multipoly
from .errors import DomainError
from .poly2 import BivariatePolynomial
from .sampling import random_polydisk
from .serialize import FORMAT_TAG, complex_to_pair
from .sos import SosCertificate, factors_from_gram

SAMPLE_RADIUS = 0.95
PSD_SUBSETS = 10
PSD_SUBSET_SIZE = 10


class KernelBundle:
    """A rational inner function together with factor vectors for its kernels."""

    def __init__(
        self,
        p: BivariatePolynomial,
        a_vec: list[BivariatePolynomial],
        b_vec: list[BivariatePolynomial],
    ):
        """a_vec and b_vec: polynomials, or their grids, within bidegrees (n - 1, m) and (n, m - 1)."""
        n, m = p.bidegree
        self.p = p
        self._vectors = _grids(a_vec, (n - 1, m)), _grids(b_vec, (n, m - 1))
        # each group, then its reflections (a conj flip at its degree box): a column per polynomial
        groups = [np.concatenate([g, np.conj(g[:, ::-1, ::-1])]) for g in (p.coeffs[None], *self._vectors)]
        bounds = np.cumsum([len(g) for g in groups])
        matrix = np.zeros(p.coeffs.shape + (bounds[-1],), dtype=complex)
        for g, stop in zip(groups, bounds):
            matrix[: g.shape[1], : g.shape[2], stop - len(g):stop] = g.transpose(1, 2, 0)
        self._matrix, self._bounds = matrix.reshape(-1, bounds[-1]), bounds[:2]
        self._powers = np.arange(n + 1), np.arange(m + 1)
        self._pole_tol = multipoly._POLE_TOL * np.abs(p.coeffs).max()  # |p| at or below it is a zero of p

    # the factor vectors as polynomials on their degree boxes
    a_vec = property(lambda self: [BivariatePolynomial(g) for g in self._vectors[0]])
    b_vec = property(lambda self: [BivariatePolynomial(g) for g in self._vectors[1]])

    @classmethod
    def from_certificate(cls, cert: SosCertificate) -> "KernelBundle":
        """Build from a certificate.

        The kernel vectors are re-derived from the stored Gram matrices, so
        verification genuinely exercises G_A and G_B: tampering with either
        matrix changes the kernels and the identity checks fail with a
        proportional residual.  The vectors are then closed under
        reflection, which the pointwise Cauchy-Schwarz bound requires.
        """
        n, m = cert.p.bidegree
        halves = [_grids(factors_from_gram(gram, box), box) * (1.0 / np.sqrt(2.0))
                  for gram, box in ((cert.gram_a, (n - 1, m)), (cert.gram_b, (n, m - 1)))]
        return cls(cert.p, *(np.concatenate([h, np.conj(h[:, ::-1, ::-1])]) for h in halves))

    # -- evaluation ---------------------------------------------------

    def _table(self, z1, z2):
        """Values at the points, three stacks on axis 0: (p, f), (a, a~), (b, b~).

        The points are the rows of their monomial table times the coefficient matrix,
        by multipoly's table product, so batched calls give one-point values exactly;
        f = p~/p takes multipoly's pole test.
        """
        z1, z2 = np.broadcast_arrays(np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex))
        x1, x2 = (x.reshape(-1, 1) ** k for x, k in zip((z1, z2), self._powers))
        mono = (x1[:, :, None] * x2[:, None, :]).reshape(z1.size, -1)
        values = multipoly._table_product(mono, self._matrix).T.reshape((-1,) + z1.shape)
        table = np.split(values, self._bounds)
        table[0][1] = multipoly._quotients(table[0][1], table[0][0], self._pole_tol)
        return table

    def _bidisk_table(self, z1, z2):
        """_table at points of the closed bidisk; DomainError at any other, a non-finite one included."""
        if not ((np.abs(z1) <= 1.0 + 1e-12).all() and (np.abs(z2) <= 1.0 + 1e-12).all()):
            raise DomainError("evaluation outside the closed bidisk")
        return self._table(z1, z2)

    def eval_f(self, z1, z2):
        """f = p~/p; rejects points outside the closed bidisk or too close to a zero of p."""
        return self._bidisk_table(z1, z2)[0][1]

    def K(self, j, z, w):
        """Pick-type kernel K_j(z, w), on the closed bidisk as eval_f."""
        return _K(j, self._bidisk_table(*z), self._bidisk_table(*w))

    def L(self, j, z, w):
        """Difference-quotient kernel L_j(z, w), on the closed bidisk as eval_f; note p(z) p(w),
        no conjugation."""
        return _L(j, self._bidisk_table(*z), self._bidisk_table(*w))


def _grids(polys, box):
    """The grids of the polynomials (or grids) on the degree box, stacked; ValueError if one exceeds it."""
    grids = np.zeros((len(polys), box[0] + 1, box[1] + 1), dtype=complex)
    for grid, q in zip(grids, polys):
        q = getattr(q, "coeffs", q)
        grid[: q.shape[0], : q.shape[1]] = q
    return grids


def _half(table, j):
    """Length of kernel j's vector; its stack holds the vector, then the reflections."""
    if j not in (1, 2):
        raise ValueError("kernel index must be 1 or 2")
    return len(table[j]) // 2


def _K(j, tz, tw):
    """K_j from the tables at z and at w."""
    r = _half(tz, j)
    return np.sum(tz[j][:r] * tw[j][:r].conj(), axis=0) / (tz[0][0] * np.conj(tw[0][0]))


def _L(j, tz, tw):
    r = _half(tz, j)
    return np.sum(tz[j][r:] * tw[j][:r], axis=0) / (tz[0][0] * tw[0][0])


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------

@dataclass
class VerificationReport:
    identity1_max: float
    identity2_max: float
    cs_max_violation: float
    psd_min_eig: float
    witnesses: list
    samples: int
    tol: float
    passed: bool

    def to_json(self) -> dict:
        return {"format": FORMAT_TAG, **dataclasses.asdict(self)}


@dataclass
class BoundReport:
    bound_margin: float  # min over samples of 1/(1-|z_j|^2) - K_j(z,z)
    sum_defect_max: float  # max over samples of (1-|z_j|^2) K_j - (1 - |f|^2) excess
    samples: int
    tol: float
    passed: bool

    def to_json(self) -> dict:
        return {"format": FORMAT_TAG, **dataclasses.asdict(self)}


@functools.lru_cache(maxsize=4)
def _draws(seed, samples, pairs):
    """A check's seeded draws, read-only, in one generator's order: the point sets z and, for
    pairs, w, each as its coordinates (z1, z2); then the positivity subsets (none without pairs)."""
    rng = np.random.default_rng(seed)
    points = [random_polydisk(rng, samples, 2, SAMPLE_RADIUS) for _ in range(1 + pairs)]
    size = min(PSD_SUBSET_SIZE, samples)
    subsets = np.array([rng.choice(samples, size=size, replace=False) for _ in range(PSD_SUBSETS * pairs)])
    for array in (*points, subsets):
        array.flags.writeable = False
    return tuple((zs[:, 0], zs[:, 1]) for zs in points), subsets


def _witness(kind, value, z, w=None):
    entry = {"check": kind, "value": float(value), "z": [complex_to_pair(z[0]), complex_to_pair(z[1])]}
    if w is not None:
        entry["w"] = [complex_to_pair(w[0]), complex_to_pair(w[1])]
    return entry


def verify_decomposition(
    bundle: KernelBundle,
    samples: int = 500,
    seed: int = 1234,
    tol: float = 1e-9,
) -> VerificationReport:
    """Check both kernel identities, the Cauchy-Schwarz bound, and sampled Gram positivity."""
    if samples < 1:
        raise ValueError("need at least one sample pair")
    (z, w), idx = _draws(seed, samples, True)
    tz, tw = bundle._table(*z), bundle._table(*w)

    fz, fw = tz[0][1], tw[0][1]
    k1, k2 = _K(1, tz, tw), _K(2, tz, tw)
    l1, l2 = _L(1, tz, tw), _L(2, tz, tw)

    id1 = np.abs(1.0 - fz * fw.conj()
                 - (1.0 - z[0] * w[0].conj()) * k1
                 - (1.0 - z[1] * w[1].conj()) * k2)
    id2 = np.abs(fz - fw - (z[0] - w[0]) * l1 - (z[1] - w[1]) * l2)

    cs1 = np.abs(l1) ** 2 - _K(1, tz, tz).real * _K(1, tw, tw).real
    cs2 = np.abs(l2) ** 2 - _K(2, tz, tz).real * _K(2, tw, tw).real

    subsets = [t[:, idx] for t in tz]  # the positivity subsets' rows of the sample table
    rows, cols = [t[..., :, None] for t in subsets], [t[..., None, :] for t in subsets]
    grid = np.stack([_K(j, rows, cols) for j in (1, 2)])  # (kernel, subset, point, point)
    psd_min = float(np.linalg.eigvalsh(0.5 * (grid + grid.conj().swapaxes(-1, -2)))[..., 0].min())

    witnesses = []
    i1 = int(np.argmax(id1))
    witnesses.append(_witness("identity_pick", id1[i1], (z[0][i1], z[1][i1]), (w[0][i1], w[1][i1])))
    i2 = int(np.argmax(id2))
    witnesses.append(_witness("identity_difference", id2[i2], (z[0][i2], z[1][i2]),
                              (w[0][i2], w[1][i2])))
    cs_viol = float(max(cs1.max(), cs2.max()))
    ic = int(np.argmax(np.maximum(cs1, cs2)))
    witnesses.append(_witness("cauchy_schwarz", max(cs1[ic], cs2[ic]),
                              (z[0][ic], z[1][ic]), (w[0][ic], w[1][ic])))

    passed = bool(id1.max() <= tol and id2.max() <= tol and cs_viol <= tol and psd_min >= -tol)
    return VerificationReport(
        identity1_max=float(id1.max()),
        identity2_max=float(id2.max()),
        cs_max_violation=cs_viol,
        psd_min_eig=float(psd_min),
        witnesses=witnesses,
        samples=samples,
        tol=tol,
        passed=passed,
    )


def check_bounds(
    bundle: KernelBundle,
    samples: int = 1000,
    seed: int = 99,
    tol: float = 1e-9,
) -> BoundReport:
    """Growth bound K_j(z,z) <= 1/(1-|z_j|^2) and sum defect (1-|z_j|^2) K_j <= 1-|f|^2.

    One point set, one table; Cauchy-Schwarz needs pairs and is verify_decomposition's.
    """
    if samples < 1:
        raise ValueError("need at least one sample point")
    (z,), _ = _draws(seed, samples, False)
    tz = bundle._table(*z)
    residual = 1.0 - np.abs(tz[0][1]) ** 2
    room = np.stack([1.0 - np.abs(x) ** 2 for x in z])  # 1 - |z_j|^2, a row per kernel
    k = np.stack([_K(j, tz, tz).real for j in (1, 2)])
    margin = float((1.0 / room - k).min())
    defect = float((room * k - residual).max())
    passed = bool(margin >= -tol and defect <= tol)
    return BoundReport(
        bound_margin=margin,
        sum_defect_max=defect,
        samples=samples,
        tol=tol,
        passed=passed,
    )
