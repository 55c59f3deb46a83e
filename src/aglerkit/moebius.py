"""Disk automorphisms and their detection from samples.

An automorphism of the unit disk has the form

    phi(w) = u * (a - w) / (1 - conj(a) * w),   |u| = 1, |a| < 1.

Detection fits a general Moebius map (a w + b) / (c w + 1) through three
sample values of a one-variable slice, verifies the fit on a batch of fresh
nodes, and then checks that the map really is a disk automorphism (unimodular
on the circle, center maps inside) before extracting (u, a).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import disk_points
from .serialize import complex_to_pair, pair_to_complex

_FIT_NODES = np.array([0.30 + 0.00j, -0.35 + 0.20j, 0.10 + 0.45j])
_CIRCLE_NODES = np.exp(2j * np.pi * np.arange(8) / 8)
_CHECK_NODES = disk_points(50, 0.9)
_FIT_TOL = 1e-8  # largest fit error on the check nodes, and of |phi| - 1 on the circle


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
    def identity(cls) -> "MoebiusAutomorphism":
        return cls(factor=-1.0 + 0.0j, point=0.0 + 0.0j)

    def __call__(self, w):
        w = np.asarray(w, dtype=complex)
        value = self.factor * (self.point - w) / (1.0 - np.conj(self.point) * w)
        return value if value.shape else complex(value)

    def inverse(self) -> "MoebiusAutomorphism":
        # phi^{-1}(v) = conj(u) * (u a - v) / (1 - conj(u a) v)
        return MoebiusAutomorphism(np.conj(self.factor), self.factor * self.point)

    def is_identity(self, tol: float = 1e-9) -> bool:
        probes = np.array([0.0, 0.5, -0.3j, 0.2j])
        return bool(np.max(np.abs(self(probes) - probes)) <= tol)

    def to_json(self) -> dict:
        return {"factor": complex_to_pair(self.factor), "point": complex_to_pair(self.point)}

    @classmethod
    def from_json(cls, obj) -> "MoebiusAutomorphism":
        return cls(pair_to_complex(obj["factor"]), pair_to_complex(obj["point"]))


def fit_moebius(nodes, values):
    """Exact-fit coefficients (a, b, c) of (a w + b)/(c w + 1); None if degenerate."""
    nodes = np.asarray(nodes, dtype=complex)
    values = np.asarray(values, dtype=complex)
    lhs = np.stack([nodes, np.ones_like(nodes), -values * nodes], axis=1)
    try:
        coeffs = np.linalg.solve(lhs, values)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(coeffs)):
        return None
    return tuple(coeffs)


def detect_automorphism(slice_fn):
    """Return the disk automorphism matching slice_fn on the disk, or None.

    slice_fn maps a 1-d array of disk points to the array of its values; it
    is called twice, on the three fit nodes and on the verification nodes.
    The decision is sample-based: a three-point Moebius fit, a verification
    batch, a circle/unimodularity test, and a final re-verification of the
    extracted (u, a) form.
    """
    try:
        fit_values = np.asarray(slice_fn(_FIT_NODES), dtype=complex)
    except Exception:
        return None
    coeffs = fit_moebius(_FIT_NODES, fit_values)
    if coeffs is None:
        return None
    a_c, b_c, c_c = coeffs

    def mu(w):
        return (a_c * w + b_c) / (c_c * w + 1.0)

    target = np.asarray(slice_fn(_CHECK_NODES), dtype=complex)
    if np.max(np.abs(mu(_CHECK_NODES) - target)) > _FIT_TOL:
        return None

    # automorphism test: unimodular on the circle, center strictly inside
    denom = c_c * _CIRCLE_NODES + 1.0
    if np.min(np.abs(denom)) < 1e-12:
        return None
    circle_vals = (a_c * _CIRCLE_NODES + b_c) / denom
    if np.max(np.abs(np.abs(circle_vals) - 1.0)) > _FIT_TOL:
        return None
    center = mu(0.0)
    if abs(center) >= 1.0 - 1e-9:
        return None

    if abs(a_c) <= 1e-12:
        return None  # constant numerator, not invertible
    a_point = -b_c / a_c
    if abs(a_point) >= 1.0 - 1e-12:
        return None
    probe = 0.37 + 0.11j
    if abs(probe - a_point) < 1e-6:
        probe = -0.29 + 0.41j
    u = mu(probe) * (1.0 - np.conj(a_point) * probe) / (a_point - probe)
    if abs(abs(u) - 1.0) > _FIT_TOL:
        return None
    phi = MoebiusAutomorphism(u / abs(u), a_point)
    if np.max(np.abs(phi(_CHECK_NODES) - target)) > 10 * _FIT_TOL:
        return None
    return phi
