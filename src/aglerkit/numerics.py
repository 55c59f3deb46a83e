"""Shared numerical kernels: Hermitian eigensolves, PSD projection and
factorization, univariate roots.  The projection onto the Gram coefficient
constraints is not a generic least-squares solve: it is closed-form per
displacement class and lives in sos.DisplacementProjector.

Backed by LAPACK through numpy; the contracts (ordering, tolerances, error
behavior) are what the rest of the package relies on.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import AglerkitError, NotPSDError

HERMITIAN_TOL = 1e-14


class EigenDecomposition(NamedTuple):
    eigenvalues: np.ndarray  # real, ascending
    eigenvectors: np.ndarray  # unitary columns, M = V diag(w) V*


def hermitize(mat) -> np.ndarray:
    """Nearest Hermitian matrix, (M + M*) / 2."""
    mat = np.asarray(mat, dtype=complex)
    return 0.5 * (mat + mat.conj().T)


def hermitian_defect(mat) -> float:
    mat = np.asarray(mat, dtype=complex)
    if mat.size == 0:
        return 0.0
    return float(np.max(np.abs(mat - mat.conj().T)))


def require_hermitian(mat, tol=1e-10) -> np.ndarray:
    """Validate near-Hermitianness (relative to scale) and symmetrize exactly."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    scale = 1.0 + (float(np.max(np.abs(mat))) if mat.size else 0.0)
    if hermitian_defect(mat) > tol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return hermitize(mat)


def eig_hermitian(mat) -> EigenDecomposition:
    """Eigendecomposition of a (near-)Hermitian matrix, eigenvalues ascending."""
    mat = require_hermitian(mat)
    if mat.size == 0:
        return EigenDecomposition(np.zeros(0), np.zeros((0, 0), dtype=complex))
    try:
        w, v = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise AglerkitError(f"hermitian eigensolve failed: {exc}") from exc
    return EigenDecomposition(w, v)


def project_psd(mat) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix (eigenvalue clipping).

    The input must be exactly Hermitian, as every Dykstra iterate is by
    construction; it is not re-validated, and a PSD input comes back as is.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.size == 0:
        return mat
    w, v = np.linalg.eigh(mat)
    if w[0] >= 0.0:
        return mat
    return hermitize((v * np.clip(w, 0.0, None)) @ v.conj().T)


def psd_factor(mat, rank_tol: float = 1e-9) -> np.ndarray:
    """Rank-revealing factor W with M ~= W @ W.conj().T.

    Eigenvalues below rank_tol (relative to the largest) are dropped; an
    eigenvalue below -rank_tol relative to scale raises NotPSDError.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.size == 0:
        return np.zeros((mat.shape[0], 0), dtype=complex)
    w, v = eig_hermitian(mat)
    top = max(float(w[-1]), 0.0)
    if w[0] < -rank_tol * (1.0 + top):
        raise NotPSDError(f"matrix has eigenvalue {w[0]:.3e}, below the PSD tolerance")
    keep = w > rank_tol * top
    return v[:, keep] * np.sqrt(w[keep])


def roots_univariate(coeffs, lead_tol: float = 0.0) -> np.ndarray:
    """Roots of sum(coeffs[k] * w**k) via companion-matrix eigenvalues.

    Leading coefficients with modulus <= lead_tol * max|c| are trimmed first.
    The zero polynomial (everything trimmed) is rejected.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must form a nonempty vector")
    top = float(np.max(np.abs(c)))
    if top == 0.0:
        raise ValueError("zero polynomial has no well-defined root set")
    cutoff = lead_tol * top
    degree = c.size - 1
    while degree > 0 and abs(c[degree]) <= cutoff:
        degree -= 1
    if degree == 0:
        if abs(c[0]) <= cutoff:
            raise ValueError("zero polynomial has no well-defined root set")
        return np.zeros(0, dtype=complex)
    return np.roots(c[: degree + 1][::-1])

