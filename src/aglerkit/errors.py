"""Exception types shared across the package."""


class AglerkitError(Exception):
    """Base class for all package errors."""


class DomainError(AglerkitError):
    """Evaluation requested outside the admissible domain (or too close to a pole)."""


class InfeasibleError(AglerkitError):
    """The Gram feasibility problem did not reach the requested residual."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class NotSolvableError(AglerkitError):
    """A Pick interpolation problem has no Schur-class solution."""


class InconsistencyError(AglerkitError):
    """Numerical findings contradict a structural rigidity property of the input."""


class DegenerateContinuationError(AglerkitError):
    """Graph continuation hit a point where the implicit function theorem degenerates."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location
