"""Sparse polynomials and rational maps in several complex variables.

``poly2`` keeps dense coefficient grids, which is the right shape for
bidegree bookkeeping and reflection.  The fixed-point and retract layers
work with maps of three or more variables where dense grids get wasteful,
so this module stores a sparse exponent-to-coefficient table instead and
adds exact partial derivatives for quotients.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import DomainError
from .serialize import complex_to_pair, pair_to_complex


def _normalize_key(exponents, nvars):
    key = tuple(int(e) for e in exponents)
    if len(key) != nvars:
        raise ValueError(
            "exponent tuple %r does not match nvars=%d" % (key, nvars)
        )
    if any(e < 0 for e in key):
        raise ValueError("negative exponent in %r" % (key,))
    return key


class MultiPoly:
    """Polynomial in ``nvars`` complex variables with sparse storage.

    Terms are kept as a dict mapping exponent tuples to complex
    coefficients.  Evaluation is vectorized over arbitrary batches of
    points supplied as arrays with a trailing axis of length ``nvars``.
    """

    def __init__(self, nvars, terms=None):
        nvars = int(nvars)
        if nvars < 1:
            raise ValueError("nvars must be at least 1")
        self.nvars = nvars
        table = {}
        for expo, coef in (terms or {}).items():
            key = _normalize_key(expo, nvars)
            table[key] = table.get(key, 0.0 + 0.0j) + complex(coef)
        self.terms = {key: table[key] for key in sorted(table) if table[key] != 0}
        if self.terms:
            keys = sorted(self.terms)
            self._expo = np.array(keys, dtype=int)
            self._coef = np.array([self.terms[k] for k in keys], dtype=complex)
        else:
            self._expo = np.zeros((0, nvars), dtype=int)
            self._coef = np.zeros(0, dtype=complex)

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: complex(value)})

    @classmethod
    def variable(cls, nvars, index):
        index = int(index)
        if not 0 <= index < nvars:
            raise ValueError("variable index out of range")
        expo = [0] * nvars
        expo[index] = 1
        return cls(nvars, {tuple(expo): 1.0 + 0.0j})

    @classmethod
    def monomial(cls, nvars, exponents, coeff=1.0):
        return cls(nvars, {tuple(exponents): complex(coeff)})

    def coeff_norm(self):
        if self._coef.size == 0:
            return 0.0
        return float(np.max(np.abs(self._coef)))

    def evaluate(self, points):
        """Evaluate at points given as an array of shape ``(..., nvars)``."""
        pts = np.asarray(points, dtype=complex)
        if pts.ndim == 0 or pts.shape[-1] != self.nvars:
            raise ValueError(
                "points must have a trailing axis of length %d" % self.nvars
            )
        if self._coef.size == 0:
            return np.zeros(pts.shape[:-1], dtype=complex)
        powers = pts[..., None, :] ** self._expo
        return powers.prod(axis=-1) @ self._coef

    def __call__(self, *coords):
        if len(coords) != self.nvars:
            raise ValueError(
                "expected %d coordinate arguments, got %d" % (self.nvars, len(coords))
            )
        broad = np.broadcast_arrays(*[np.asarray(c, dtype=complex) for c in coords])
        pts = np.stack(broad, axis=-1)
        values = self.evaluate(pts)
        if np.ndim(values) == 0:
            return complex(values)
        return values

    def partial(self, index):
        """Partial derivative with respect to variable ``index``."""
        index = int(index)
        if not 0 <= index < self.nvars:
            raise ValueError("variable index out of range")
        out = {}
        for expo, coef in self.terms.items():
            power = expo[index]
            if power == 0:
                continue
            lowered = list(expo)
            lowered[index] = power - 1
            key = tuple(lowered)
            out[key] = out.get(key, 0.0 + 0.0j) + power * coef
        return MultiPoly(self.nvars, out)

    def embed(self, nvars_new, positions):
        """Reinterpret in a larger variable list.

        ``positions[i]`` is the index that old variable ``i`` occupies in
        the new list; the remaining new variables never appear.
        """
        nvars_new = int(nvars_new)
        positions = tuple(int(p) for p in positions)
        if len(positions) != self.nvars:
            raise ValueError("positions must list every old variable once")
        if len(set(positions)) != self.nvars:
            raise ValueError("positions must be distinct")
        if any(not 0 <= p < nvars_new for p in positions):
            raise ValueError("position out of range for the enlarged list")
        out = {}
        for expo, coef in self.terms.items():
            new_expo = [0] * nvars_new
            for old_index, power in enumerate(expo):
                new_expo[positions[old_index]] = power
            out[tuple(new_expo)] = coef
        return MultiPoly(nvars_new, out)

    def __add__(self, other):
        other = _coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self.terms)
        for expo, coef in other.terms.items():
            merged[expo] = merged.get(expo, 0.0 + 0.0j) + coef
        return MultiPoly(self.nvars, merged)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.nvars, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, numbers.Number):
            return MultiPoly(
                self.nvars, {k: complex(other) * v for k, v in self.terms.items()}
            )
        other = _coerce(other, self.nvars)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0.0 + 0.0j) + c1 * c2
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def allclose(self, other, tol=1e-12):
        other = _coerce(other, self.nvars)
        if other is NotImplemented:
            raise TypeError("cannot compare with %r" % type(other))
        keys = set(self.terms) | set(other.terms)
        for key in keys:
            delta = self.terms.get(key, 0.0) - other.terms.get(key, 0.0)
            if abs(delta) > tol:
                return False
        return True

    def to_json(self):
        return {
            "nvars": self.nvars,
            "terms": {
                ",".join(str(e) for e in expo): complex_to_pair(coef)
                for expo, coef in self.terms.items()
            },
        }

    @classmethod
    def from_json(cls, payload):
        nvars = int(payload["nvars"])
        terms = {}
        for key, pair in payload["terms"].items():
            expo = tuple(int(part) for part in key.split(","))
            terms[expo] = pair_to_complex(pair)
        return cls(nvars, terms)

    def __repr__(self):
        return "MultiPoly(nvars=%d, terms=%d)" % (self.nvars, len(self.terms))


def _coerce(value, nvars):
    if isinstance(value, MultiPoly):
        if value.nvars != nvars:
            raise ValueError("variable counts differ")
        return value
    if isinstance(value, numbers.Number):
        return MultiPoly.constant(nvars, value)
    return NotImplemented


class RationalMap:
    """Quotient of two sparse polynomials with exact partial derivatives."""

    def __init__(self, numerator, denominator=None, zero_tol=1e-12):
        if denominator is None:
            denominator = MultiPoly.constant(numerator.nvars, 1.0)
        if not isinstance(numerator, MultiPoly) or not isinstance(denominator, MultiPoly):
            raise TypeError("numerator and denominator must be MultiPoly")
        if numerator.nvars != denominator.nvars:
            raise ValueError("variable counts differ")
        if not denominator.terms:
            raise ValueError("denominator is identically zero")
        self.numerator = numerator
        self.denominator = denominator
        self.zero_tol = float(zero_tol)
        # |den| at or below this counts as a pole; fixed per map, so computed once
        self._pole_tol = self.zero_tol * max(denominator.coeff_norm(), 1.0)

    @property
    def nvars(self):
        return self.numerator.nvars

    def evaluate(self, points):
        num = self.numerator.evaluate(points)
        den = self.denominator.evaluate(points)
        if np.any(np.abs(den) <= self._pole_tol):
            raise DomainError("denominator vanishes at an evaluation point")
        return num / den

    def __call__(self, *coords):
        if len(coords) != self.nvars:
            raise ValueError(
                "expected %d coordinate arguments, got %d" % (self.nvars, len(coords))
            )
        broad = np.broadcast_arrays(*[np.asarray(c, dtype=complex) for c in coords])
        pts = np.stack(broad, axis=-1)
        values = self.evaluate(pts)
        if np.ndim(values) == 0:
            return complex(values)
        return values

    def partial(self, index):
        num = (
            self.numerator.partial(index) * self.denominator
            - self.numerator * self.denominator.partial(index)
        )
        den = self.denominator * self.denominator
        return RationalMap(num, den, zero_tol=self.zero_tol)

    def to_json(self):
        return {
            "numerator": self.numerator.to_json(),
            "denominator": self.denominator.to_json(),
        }

    @classmethod
    def from_json(cls, payload):
        num = MultiPoly.from_json(payload["numerator"])
        den = MultiPoly.from_json(payload["denominator"])
        return cls(num, den)

    def __repr__(self):
        return "RationalMap(nvars=%d)" % self.nvars
