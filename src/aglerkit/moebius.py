"""Disk automorphisms and their detection from samples.

An automorphism of the unit disk has the form

    phi(w) = u * (a - w) / (1 - conj(a) * w),   |u| = 1, |a| < 1,

so two values fix it: with c = phi(0) and d = phi(w0),

    u = (c - d) / (w0 * (1 - conj(c) * d)),   a = c * conj(u).

Detection reads (u, a) off a one-variable slice at 0 and one probe w0, then
keeps the map only if u is unimodular, c lies inside the disk (by the
tolerance, so that no division can vanish) and the map matches the slice
on a batch of check nodes.  ``from_coefficients`` reads (u, a) off the four
coefficients of an exact map (alpha w + beta) / (gamma w + delta) instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateContinuationError, DomainError
from .sampling import disk_points
from .serialize import complex_to_pair

_PROBE = 0.37 + 0.11j  # w0
_CHECK_NODES = disk_points(50, 0.9)
_NODES = np.concatenate([[0.0, _PROBE], _CHECK_NODES])
_FIT_TOL = 1e-8  # largest error of |u| - 1 and of the map on the check nodes


@dataclass(frozen=True)
class MoebiusAutomorphism:
    factor: complex  # unimodular u
    point: complex   # a, inside the disk

    def __post_init__(self):
        if abs(abs(self.factor) - 1.0) > 1e-8:
            raise ValueError("factor must be unimodular")
        if abs(self.point) >= 1.0:
            raise ValueError("point must lie inside the open disk")

    @classmethod
    def from_coefficients(cls, alpha, beta, gamma, delta):
        """(alpha w + beta) / (gamma w + delta) if, over delta, it reads
        (-u w + u a) / (1 - conj(a) w) with |u| = 1, |a| < 1 (to _FIT_TOL); else None."""
        u = -alpha / delta if delta else 0
        a = beta / delta / u if u else np.inf
        fits = abs(abs(u) - 1.0) <= _FIT_TOL and abs(a) < 1.0 - _FIT_TOL  # so delta != 0
        return cls(u / abs(u), a) if fits and abs(gamma / delta + np.conj(a)) <= _FIT_TOL else None

    def __call__(self, w):
        w = np.asarray(w, dtype=complex)
        value = self.factor * (self.point - w) / (1.0 - np.conj(self.point) * w)
        return value if value.shape else complex(value)

    def inverse(self) -> "MoebiusAutomorphism":
        # phi^{-1}(v) = conj(u) * (u a - v) / (1 - conj(u a) v)
        return MoebiusAutomorphism(np.conj(self.factor), self.factor * self.point)

    def is_identity(self) -> bool:
        """Whether the map moves no probe point by more than detection's _FIT_TOL."""
        probes = np.array([0.0, 0.5, -0.3j, 0.2j])
        return bool(np.max(np.abs(self(probes) - probes)) <= _FIT_TOL)

    def to_json(self) -> dict:
        return {"factor": complex_to_pair(self.factor), "point": complex_to_pair(self.point)}


def detect_automorphism(slice_fn):
    """Return the disk automorphism matching slice_fn on the disk, or None.

    slice_fn maps a 1-d array of disk points to the array of its values; it
    is called once, on 0, the probe w0 and the check nodes.  A slice that
    meets a pole or a failed solve is not an automorphism; any other error
    propagates.
    """
    try:
        values = np.asarray(slice_fn(_NODES), dtype=complex)
    except (DomainError, DegenerateContinuationError, np.linalg.LinAlgError):
        return None
    c, d = values[0], values[1]
    if not (abs(c) < 1.0 - _FIT_TOL and abs(d) < 1.0):
        return None  # beyond, 1 - conj(c) d can vanish in rounding
    u = (c - d) / (_PROBE * (1.0 - np.conj(c) * d))
    if not abs(abs(u) - 1.0) <= _FIT_TOL:
        return None
    u = u / abs(u)
    phi = MoebiusAutomorphism(u, c * np.conj(u))
    if np.max(np.abs(phi(_CHECK_NODES) - values[2:])) <= _FIT_TOL:
        return phi
    return None
