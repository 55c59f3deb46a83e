"""Shared numerical kernels: Hermitian validation and eigensolves, the
roots of many univariate polynomials at once.

Backed by LAPACK through numpy; the contracts (ordering, tolerances, error
behavior) are what the rest of the package relies on.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import AglerkitError

_HERMITIAN_TOL = 1e-10  # largest |M - M*| relative to 1 + max|M|


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


def require_hermitian(mat) -> np.ndarray:
    """Validate near-Hermitianness (relative to scale) and symmetrize exactly."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    scale = 1.0 + (float(np.max(np.abs(mat))) if mat.size else 0.0)
    if hermitian_defect(mat) > _HERMITIAN_TOL * scale:
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
