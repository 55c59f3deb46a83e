"""Certified Agler decompositions of rational inner functions on the bidisk.

The package turns a stable bivariate polynomial p into a transfer-function
representation p~/p of its distinguished inner function, produces a
sum-of-squares Gram certificate for the two-kernel decomposition, and
verifies everything by independent sampling.  Around that core sit
Nevanlinna-Pick interpolation on the disk, fixed-point graphs of
Schur-class maps in a distinguished variable, and normal forms of
holomorphic retracts of the polydisk.  All certificates serialize to
canonical JSON.
"""

from .errors import (
    AglerkitError,
    DegenerateContinuationError,
    DomainError,
    InconsistencyError,
    InfeasibleError,
    NotSolvableError,
)
from .fixedgraph import (
    CLASS_AUTOMORPHISM,
    CLASS_BOUNDARY,
    CLASS_INTERIOR,
    FixedPointRecord,
    GraphFunction,
    SchurMap,
    continue_graph,
    find_fixed_w,
)
from .kernels import (
    BoundReport,
    KernelBundle,
    VerificationReport,
    check_bounds,
    verify_decomposition,
)
from .moebius import MoebiusAutomorphism, detect_automorphism
from .multipoly import MultiPoly, RationalMap
from .pick import (
    NOT_SOLVABLE,
    SOLVABLE,
    SOLVABLE_UNIQUE,
    PickProblem,
    SchurInterpolant,
    is_solvable,
    pick_matrix,
)
from .pick import solve as solve_pick
from .poly2 import BivariatePolynomial
from .retract import (
    ComponentRole,
    Conjugation,
    NormalForm,
    RetractMap,
    classify_components,
    normal_form,
    verify_idempotent,
)
from .sampling import disk_points, random_disk, random_polydisk
from .serialize import FORMAT_TAG, canonical_dumps, load_json, write_json_atomic
from .sos import (
    SosCertificate,
    gram_pair_tensor,
    solve_gram,
    sos_residual,
    sos_target_tensor,
    factors_from_gram,
)
from .stability import (
    INCONCLUSIVE,
    STABLE_CLOSED_STRICT,
    STABLE_OPEN,
    ZERO_FOUND,
    StabilityReport,
    check_stability,
)

__version__ = "0.1.0"

__all__ = [
    "AglerkitError",
    "BivariatePolynomial",
    "BoundReport",
    "CLASS_AUTOMORPHISM",
    "CLASS_BOUNDARY",
    "CLASS_INTERIOR",
    "ComponentRole",
    "Conjugation",
    "DegenerateContinuationError",
    "DomainError",
    "FORMAT_TAG",
    "FixedPointRecord",
    "GraphFunction",
    "INCONCLUSIVE",
    "InconsistencyError",
    "InfeasibleError",
    "KernelBundle",
    "MoebiusAutomorphism",
    "MultiPoly",
    "NOT_SOLVABLE",
    "NormalForm",
    "NotSolvableError",
    "PickProblem",
    "RationalMap",
    "RetractMap",
    "STABLE_CLOSED_STRICT",
    "STABLE_OPEN",
    "SOLVABLE",
    "SOLVABLE_UNIQUE",
    "SchurInterpolant",
    "SchurMap",
    "SosCertificate",
    "StabilityReport",
    "VerificationReport",
    "ZERO_FOUND",
    "canonical_dumps",
    "check_bounds",
    "check_stability",
    "classify_components",
    "continue_graph",
    "detect_automorphism",
    "disk_points",
    "find_fixed_w",
    "gram_pair_tensor",
    "is_solvable",
    "load_json",
    "normal_form",
    "pick_matrix",
    "random_disk",
    "random_polydisk",
    "solve_gram",
    "solve_pick",
    "sos_residual",
    "sos_target_tensor",
    "factors_from_gram",
    "verify_decomposition",
    "verify_idempotent",
    "write_json_atomic",
]
