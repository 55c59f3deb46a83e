"""Dense bivariate complex polynomials with a declared bidegree.

The coefficient grid has shape (n+1, m+1): ``coeffs[a, b]`` multiplies
``z1**a * z2**b``.  The declared bidegree (n, m) is part of the data, not
inferred from the support, because the reflection

    p~(z1, z2) = z1**n * z2**m * conj(p(1/conj(z1), 1/conj(z2)))

depends on it.  Reflection is computed by the coefficient formula
``out[a, b] = conj(in[n-a, m-b])``, which is exact and has no singularity at
zero coordinates.  On the unit torus |p| = |p~| pointwise, and for stable p
(no zeros in the open bidisk) the quotient p~/p is a rational inner function.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.polynomial import polyval2d

from .serialize import matrix_to_pairs, pairs_to_matrix


class BivariatePolynomial:
    """Polynomial in (z1, z2) stored as a dense complex coefficient grid."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=complex, copy=True)
        if c.ndim == 0:
            c = c.reshape(1, 1)
        elif c.ndim == 1:
            c = c.reshape(1, -1)
        if c.ndim != 2 or c.size == 0:
            raise ValueError("coefficient grid must be a nonempty 2-d array")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c.setflags(write=False)
        self.coeffs = c

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, bidegree=(0, 0)) -> "BivariatePolynomial":
        n, m = bidegree
        return cls(np.zeros((n + 1, m + 1), dtype=complex))

    @classmethod
    def constant(cls, value, bidegree=(0, 0)) -> "BivariatePolynomial":
        n, m = bidegree
        c = np.zeros((n + 1, m + 1), dtype=complex)
        c[0, 0] = value
        return cls(c)

    # -- structure ----------------------------------------------------

    @property
    def bidegree(self) -> tuple[int, int]:
        return (self.coeffs.shape[0] - 1, self.coeffs.shape[1] - 1)

    def actual_bidegree(self) -> tuple[int, int]:
        """Largest exponents with nonzero coefficient; (0, 0) for the zero polynomial."""
        nz = np.argwhere(self.coeffs != 0)
        if nz.size == 0:
            return (0, 0)
        return (int(nz[:, 0].max()), int(nz[:, 1].max()))

    def padded(self, bidegree) -> "BivariatePolynomial":
        """Same polynomial on a grid declaring at least the given bidegree."""
        n, m = bidegree
        rows, cols = self.coeffs.shape
        if n + 1 < rows or m + 1 < cols:
            raise ValueError("padding cannot shrink the grid")
        c = np.zeros((n + 1, m + 1), dtype=complex)
        c[:rows, :cols] = self.coeffs
        return BivariatePolynomial(c)

    def coeff_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    # -- evaluation ---------------------------------------------------

    def __call__(self, z1, z2):
        return polyval2d(np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex), self.coeffs)

    # -- reflection ---------------------------------------------------

    def reflect(self, bidegree=None) -> "BivariatePolynomial":
        """Reflection at the given (default: declared) bidegree.

        Requires the reflection bidegree to dominate the actual degree,
        otherwise the operation would not be an involution.
        """
        n, m = bidegree if bidegree is not None else self.bidegree
        an, am = self.actual_bidegree()
        if n < an or m < am:
            raise ValueError(
                f"reflection bidegree ({n}, {m}) is below the actual degree ({an}, {am})"
            )
        padded = self.padded((n, m)).coeffs
        return BivariatePolynomial(np.conj(padded[::-1, ::-1]))

    # -- calculus -----------------------------------------------------

    def derivative(self, variable: int) -> "BivariatePolynomial":
        """Partial derivative with respect to z1 (variable=1) or z2 (variable=2)."""
        c = self.coeffs
        if variable == 1:
            if c.shape[0] == 1:
                return BivariatePolynomial.zero((0, c.shape[1] - 1))
            mult = np.arange(1, c.shape[0]).reshape(-1, 1)
            return BivariatePolynomial(c[1:, :] * mult)
        if variable == 2:
            if c.shape[1] == 1:
                return BivariatePolynomial.zero((c.shape[0] - 1, 0))
            mult = np.arange(1, c.shape[1]).reshape(1, -1)
            return BivariatePolynomial(c[:, 1:] * mult)
        raise ValueError("variable must be 1 or 2")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        n = max(self.coeffs.shape[0], other.coeffs.shape[0])
        m = max(self.coeffs.shape[1], other.coeffs.shape[1])
        c = np.zeros((n, m), dtype=complex)
        c[: self.coeffs.shape[0], : self.coeffs.shape[1]] += self.coeffs
        c[: other.coeffs.shape[0], : other.coeffs.shape[1]] += other.coeffs
        return BivariatePolynomial(c)

    __radd__ = __add__

    def __neg__(self):
        return BivariatePolynomial(-self.coeffs)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return BivariatePolynomial(self.coeffs * complex(other))
        small, big = sorted((self.coeffs, _coerce(other).coeffs), key=np.size)
        out = np.zeros(np.add(small.shape, big.shape) - 1, dtype=complex)
        for (a, b), c in np.ndenumerate(small):
            out[a:a + big.shape[0], b:b + big.shape[1]] += c * big
        return BivariatePolynomial(out)

    __rmul__ = __mul__

    def scale(self, factor) -> "BivariatePolynomial":
        return BivariatePolynomial(self.coeffs * complex(factor))

    # -- io -----------------------------------------------------------

    def to_json(self) -> dict:
        n, m = self.bidegree
        return {"bidegree": [n, m], "coeffs": matrix_to_pairs(self.coeffs)}

    @classmethod
    def from_json(cls, obj) -> "BivariatePolynomial":
        coeffs = pairs_to_matrix(obj["coeffs"])
        n, m = obj["bidegree"]
        if coeffs.shape != (n + 1, m + 1):
            raise ValueError("coefficient grid does not match declared bidegree")
        return cls(coeffs)

    def __repr__(self):
        n, m = self.bidegree
        return f"BivariatePolynomial(bidegree=({n}, {m}))"


def _coerce(value) -> BivariatePolynomial:
    if isinstance(value, BivariatePolynomial):
        return value
    if isinstance(value, (int, float, complex, np.number)):
        return BivariatePolynomial.constant(complex(value))
    raise TypeError(f"cannot interpret {type(value).__name__} as a polynomial")
