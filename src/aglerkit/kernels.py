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
so that those matrices are what verification actually tests.  When the
vectors are reflection-closed (KernelBundle.from_certificate with
symmetrized=True) the pointwise bound |L_j(z, w)|^2 <= K_j(z, z) K_j(w, w)
holds as well, and on the diagonal L_j(z, z) equals the partial derivative
of f.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .poly2 import BivariatePolynomial
from .sampling import random_polydisk
from .serialize import FORMAT_TAG, complex_to_pair
from .sos import SosCertificate, factors_from_gram

SAMPLE_RADIUS = 0.95


def _eval_stack(polys, z1, z2) -> np.ndarray:
    """Stack of polynomial values, shape (len(polys),) + broadcast shape."""
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    if not polys:
        return np.zeros((0,) + np.broadcast(z1, z2).shape, dtype=complex)
    return np.stack([q(z1, z2) for q in polys])


class KernelBundle:
    """A rational inner function together with factor vectors for its kernels."""

    def __init__(
        self,
        p: BivariatePolynomial,
        a_vec: list[BivariatePolynomial],
        b_vec: list[BivariatePolynomial],
        a_degrees=None,
        b_degrees=None,
    ):
        n, m = p.bidegree
        self.p = p
        self.p_tilde = p.reflect()
        self.a_vec = list(a_vec)
        self.b_vec = list(b_vec)
        self.a_degrees = a_degrees if a_degrees is not None else (n - 1, m)
        self.b_degrees = b_degrees if b_degrees is not None else (n, m - 1)
        self.a_tilde = [q.reflect(self.a_degrees) for q in self.a_vec]
        self.b_tilde = [q.reflect(self.b_degrees) for q in self.b_vec]

    @classmethod
    def from_certificate(cls, cert: SosCertificate, symmetrized: bool = True) -> "KernelBundle":
        """Build from a certificate.

        The kernel vectors are re-derived from the stored Gram matrices, so
        verification genuinely exercises G_A and G_B: tampering with either
        matrix changes the kernels and the identity checks fail with a
        proportional residual.  symmetrized=True additionally closes the
        vectors under reflection, which the pointwise Cauchy-Schwarz bound
        requires.
        """
        n, m = cert.p.bidegree
        a_deg, b_deg = (n - 1, m), (n, m - 1)
        a_polys = factors_from_gram(cert.gram_a, a_deg)
        b_polys = factors_from_gram(cert.gram_b, b_deg)
        if not symmetrized:
            return cls(cert.p, a_polys, b_polys, a_deg, b_deg)
        inv = 1.0 / np.sqrt(2.0)
        a_half = [q.padded(a_deg).scale(inv) for q in a_polys]
        b_half = [q.padded(b_deg).scale(inv) for q in b_polys]
        return cls(
            cert.p,
            a_half + [q.reflect(a_deg) for q in a_half],
            b_half + [q.reflect(b_deg) for q in b_half],
            a_deg,
            b_deg,
        )

    # -- evaluation ---------------------------------------------------

    def eval_f(self, z1, z2):
        """f = p~/p; rejects points outside the closed bidisk or too close to a zero of p."""
        z1 = np.asarray(z1, dtype=complex)
        z2 = np.asarray(z2, dtype=complex)
        if np.any(np.abs(z1) > 1.0 + 1e-12) or np.any(np.abs(z2) > 1.0 + 1e-12):
            raise DomainError("evaluation outside the closed bidisk")
        den = self.p(z1, z2)
        if np.any(np.abs(den) <= 1e-12):
            raise DomainError("denominator p vanishes at an evaluation point")
        return self.p_tilde(z1, z2) / den

    def _pair(self, j):
        if j == 1:
            return self.a_vec, self.a_tilde
        if j == 2:
            return self.b_vec, self.b_tilde
        raise ValueError("kernel index must be 1 or 2")

    def K(self, j, z, w):
        """Pick-type kernel K_j(z, w)."""
        vec, _ = self._pair(j)
        vz = _eval_stack(vec, *z)
        vw = _eval_stack(vec, *w)
        num = np.sum(vz * vw.conj(), axis=0)
        return num / (self.p(*z) * np.conj(self.p(*w)))

    def L(self, j, z, w):
        """Difference-quotient kernel L_j(z, w); note p(z) p(w), no conjugation."""
        vec, tilde = self._pair(j)
        tz = _eval_stack(tilde, *z)
        vw = _eval_stack(vec, *w)
        num = np.sum(tz * vw, axis=0)
        return num / (self.p(*z) * self.p(*w))


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
        return {
            "format": FORMAT_TAG,
            "identity1_max": self.identity1_max,
            "identity2_max": self.identity2_max,
            "cs_max_violation": self.cs_max_violation,
            "psd_min_eig": self.psd_min_eig,
            "witnesses": self.witnesses,
            "samples": self.samples,
            "tol": self.tol,
            "passed": self.passed,
        }


@dataclass
class BoundReport:
    bound_margin: float  # min over samples of 1/(1-|z_j|^2) - K_j(z,z)
    sum_defect_max: float  # max over samples of (1-|z_j|^2) K_j - (1 - |f|^2) excess
    cs_max_violation: float
    samples: int
    tol: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "format": FORMAT_TAG,
            "bound_margin": self.bound_margin,
            "sum_defect_max": self.sum_defect_max,
            "cs_max_violation": self.cs_max_violation,
            "samples": self.samples,
            "tol": self.tol,
            "passed": self.passed,
        }


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
    radius: float = SAMPLE_RADIUS,
    psd_subsets: int = 10,
    psd_subset_size: int = 10,
) -> VerificationReport:
    """Check both kernel identities, the Cauchy-Schwarz bound, and sampled Gram positivity."""
    if samples < 1:
        raise ValueError("need at least one sample pair")
    rng = np.random.default_rng(seed)
    zs = random_polydisk(rng, samples, 2, radius)
    ws = random_polydisk(rng, samples, 2, radius)
    z = (zs[:, 0], zs[:, 1])
    w = (ws[:, 0], ws[:, 1])

    fz = bundle.eval_f(*z)
    fw = bundle.eval_f(*w)
    k1, k2 = bundle.K(1, z, w), bundle.K(2, z, w)
    l1, l2 = bundle.L(1, z, w), bundle.L(2, z, w)

    id1 = np.abs(1.0 - fz * fw.conj()
                 - (1.0 - z[0] * w[0].conj()) * k1
                 - (1.0 - z[1] * w[1].conj()) * k2)
    id2 = np.abs(fz - fw - (z[0] - w[0]) * l1 - (z[1] - w[1]) * l2)

    k1_zz = bundle.K(1, z, z).real
    k2_zz = bundle.K(2, z, z).real
    k1_ww = bundle.K(1, w, w).real
    k2_ww = bundle.K(2, w, w).real
    cs1 = np.abs(l1) ** 2 - k1_zz * k1_ww
    cs2 = np.abs(l2) ** 2 - k2_zz * k2_ww

    psd_min = np.inf
    for _ in range(psd_subsets):
        idx = rng.choice(samples, size=min(psd_subset_size, samples), replace=False)
        sub = (z[0][idx], z[1][idx])
        for j in (1, 2):
            grid = bundle.K(j, (sub[0][:, None], sub[1][:, None]),
                            (sub[0][None, :], sub[1][None, :]))
            grid = 0.5 * (grid + grid.conj().T)
            psd_min = min(psd_min, float(np.linalg.eigvalsh(grid)[0]))

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
    radius: float = SAMPLE_RADIUS,
) -> BoundReport:
    """Diagonal kernel growth bounds: K_j(z,z) <= 1/(1-|z_j|^2)."""
    rng = np.random.default_rng(seed)
    zs = random_polydisk(rng, samples, 2, radius)
    z = (zs[:, 0], zs[:, 1])
    fz = bundle.eval_f(*z)
    k1 = bundle.K(1, z, z).real
    k2 = bundle.K(2, z, z).real
    cap1 = 1.0 / (1.0 - np.abs(z[0]) ** 2)
    cap2 = 1.0 / (1.0 - np.abs(z[1]) ** 2)
    margin = float(min((cap1 - k1).min(), (cap2 - k2).min()))
    residual = 1.0 - np.abs(fz) ** 2
    defect = float(max(
        ((1.0 - np.abs(z[0]) ** 2) * k1 - residual).max(),
        ((1.0 - np.abs(z[1]) ** 2) * k2 - residual).max(),
    ))

    ws = random_polydisk(rng, samples, 2, radius)
    w = (ws[:, 0], ws[:, 1])
    cs = -np.inf
    for j in (1, 2):
        kzw = bundle.K(j, z, w)
        kzz = bundle.K(j, z, z).real
        kww = bundle.K(j, w, w).real
        cs = max(cs, float((np.abs(kzw) ** 2 - kzz * kww).max()))

    passed = bool(margin >= -tol and defect <= tol and cs <= tol)
    return BoundReport(
        bound_margin=margin,
        sum_defect_max=defect,
        cs_max_violation=float(cs),
        samples=samples,
        tol=tol,
        passed=passed,
    )
