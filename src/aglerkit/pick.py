"""Nevanlinna-Pick interpolation on the unit disk.

Given nodes lambda_i and targets w_i in the disk, the Pick matrix

    P[i, j] = (1 - w_i conj(w_j)) / (1 - lambda_i conj(lambda_j))

is positive semidefinite exactly when a Schur-class interpolant exists.  The
solver runs the Schur-Nevanlinna reduction and picks the zero free parameter
at the final stage, so it returns one distinguished ("central") solution; in
the singular case that solution is the unique one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotSolvableError
from .serialize import FORMAT_TAG, complex_to_pair, pair_to_complex

SOLVABLE = "Solvable"
SOLVABLE_UNIQUE = "SolvableUnique"
NOT_SOLVABLE = "NotSolvable"

_UNIMODULAR_TOL = 1e-8
_CONSISTENCY_TOL = 1e-6


@dataclass
class PickProblem:
    nodes: np.ndarray
    targets: np.ndarray
    tol: float = 1e-9

    def __post_init__(self):
        self.nodes = np.atleast_1d(np.asarray(self.nodes, dtype=complex))
        self.targets = np.atleast_1d(np.asarray(self.targets, dtype=complex))
        if self.nodes.size != self.targets.size or self.nodes.size == 0:
            raise ValueError("need equally many nodes and targets, at least one")
        if np.any(np.abs(self.nodes) >= 1.0) or np.any(np.abs(self.targets) >= 1.0):
            raise ValueError("nodes and targets must lie in the open unit disk")
        gaps = np.abs(self.nodes[:, None] - self.nodes[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() < 1e-12:
            raise ValueError("nodes must be pairwise distinct")
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be finite and positive")

    def to_json(self) -> dict:
        return {
            "format": FORMAT_TAG,
            "nodes": [complex_to_pair(t) for t in self.nodes],
            "targets": [complex_to_pair(t) for t in self.targets],
            "tol": self.tol,
        }

    @classmethod
    def from_json(cls, obj) -> "PickProblem":
        return cls(
            nodes=[pair_to_complex(t) for t in obj["nodes"]],
            targets=[pair_to_complex(t) for t in obj["targets"]],
            tol=float(obj.get("tol", 1e-9)),
        )


def pick_matrix(nodes, targets) -> np.ndarray:
    """The Pick matrix of the data, returned as its Hermitian part 0.5 (P + P*)."""
    nodes = np.atleast_1d(np.asarray(nodes, dtype=complex))
    targets = np.atleast_1d(np.asarray(targets, dtype=complex))
    num = 1.0 - targets[:, None] * targets[None, :].conj()
    den = 1.0 - nodes[:, None] * nodes[None, :].conj()
    mat = num / den
    return 0.5 * (mat + mat.conj().T)


def is_solvable(problem: PickProblem) -> tuple[str, float]:
    """Three-way verdict from the smallest Pick eigenvalue."""
    min_eig = float(np.linalg.eigh(pick_matrix(problem.nodes, problem.targets))[0][0])
    if min_eig < -problem.tol:
        return NOT_SOLVABLE, min_eig
    if min_eig <= problem.tol:
        return SOLVABLE_UNIQUE, min_eig
    return SOLVABLE, min_eig


def _blaschke(a, z):
    return (z - a) / (1.0 - np.conj(a) * z)


@dataclass
class SchurInterpolant:
    """Moebius-chain form of a Schur-class function.

    stages is a list of (node, parameter) pairs from the Schur-Nevanlinna
    reduction; terminal is the innermost function value (0 for the central
    choice, or a unimodular constant in the degenerate case).  Evaluation
    folds the chain back:  g -> (par + b_node * g) / (1 + conj(par) * b_node * g).
    """

    stages: list = field(default_factory=list)
    terminal: complex = 0.0 + 0.0j

    @property
    def degree(self) -> int:
        return len(self.stages)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        g = np.full(z.shape, self.terminal, dtype=complex)
        for node, par in reversed(self.stages):
            bg = _blaschke(node, z) * g
            g = (par + bg) / (1.0 + np.conj(par) * bg)
        return g if g.shape else complex(g)

    def to_json(self) -> dict:
        return {
            "stages": [[complex_to_pair(node), complex_to_pair(par)] for node, par in self.stages],
            "terminal": complex_to_pair(self.terminal),
        }

    @classmethod
    def from_json(cls, obj) -> "SchurInterpolant":
        return cls(
            stages=[(pair_to_complex(n), pair_to_complex(p)) for n, p in obj["stages"]],
            terminal=pair_to_complex(obj["terminal"]),
        )


def solve(problem: PickProblem) -> SchurInterpolant:
    """Central Schur-class interpolant via the Schur-Nevanlinna reduction.

    Raises NotSolvableError when the data admit no Schur-class solution.  The
    returned solution is one admissible interpolant (unique only when the
    Pick matrix is singular); no canonical-form claim is made beyond the zero
    free parameter.
    """
    nodes = list(problem.nodes)
    targets = list(problem.targets)
    stages: list[tuple[complex, complex]] = []

    while nodes:
        values = np.asarray(targets, dtype=complex)
        moduli = np.abs(values)
        if np.any(moduli > 1.0 + _UNIMODULAR_TOL):
            raise NotSolvableError(
                f"reduced target modulus {moduli.max():.6f} exceeds 1; no Schur interpolant"
            )
        near_boundary = moduli >= 1.0 - _UNIMODULAR_TOL
        if np.any(near_boundary):
            constant = values[np.argmax(moduli)]
            constant /= abs(constant)
            if np.max(np.abs(values - constant)) > _CONSISTENCY_TOL:
                raise NotSolvableError(
                    "a reduced target reached the unit circle but the remaining "
                    "targets disagree; no Schur interpolant"
                )
            return SchurInterpolant(stages=stages, terminal=complex(constant))
        lam, par = complex(nodes[0]), complex(targets[0])
        stages.append((lam, par))
        new_targets = [_blaschke(par, w) / _blaschke(lam, mu)
                       for mu, w in zip(nodes[1:], targets[1:])]
        nodes, targets = nodes[1:], new_targets

    return SchurInterpolant(stages=stages, terminal=0.0 + 0.0j)

