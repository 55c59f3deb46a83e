"""Sparse polynomials and rational maps in several complex variables.

``poly2`` keeps dense coefficient grids, which is the right shape for
bidegree bookkeeping and reflection.  The fixed-point and retract layers
work with maps of three or more variables where dense grids get wasteful,
so this module stores a sparse exponent-to-coefficient table instead and
adds exact partial derivatives.  These are the exact maps of those layers;
``evaluate`` on a ``(..., nvars)`` array is the one way to evaluate either
kind.

Both evaluate through one stacked kernel: the union of the exponents of
several polynomials and one coefficient matrix.  A call raises each
variable of the point set to the powers it needs once, gathers every
monomial from that table and takes all the polynomials by one matmul.  A
``MultiPoly`` is a stack of one, a ``RationalMap`` of num and den, and
``retract.RetractMap`` of the num and den of every component.  Every
quotient of an exact map passes one pole test, ``_quotients``, and a
Newton step takes F and dF/dW from one ``_QuotientRule``, a stack of num,
den and their partials in the solved variables.  ``_compose`` substitutes
polynomials into polynomials term by term, bounding each coefficient's rounding.
``_table_product`` takes a table product in blocks that OpenBLAS keeps on one thread.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DomainError
from .serialize import complex_to_pair, pair_to_complex

_POLE_TOL = 1e-12  # |den| at or below this times den's largest coefficient modulus is a pole
# bounds the rounding error of one complex product (sqrt(2) gamma_2, Higham 2002 lemma 3.5)
# or sum relative to its computed modulus, with room for the rounding of the bounds themselves
_ROUND = 3 * 2.0 ** -53
_COMPOSE_WORK = 50_000  # coefficient products _compose may spend on monomials, under 0.1 s
_THREADED = 2 ** 16  # complex multiply-adds from which OpenBLAS splits one product across its threads


def _normalize_key(exponents, nvars):
    key = tuple(int(e) for e in exponents)
    if len(key) != nvars:
        raise ValueError(
            "exponent tuple %r does not match nvars=%d" % (key, nvars)
        )
    if any(e < 0 for e in key):
        raise ValueError("negative exponent in %r" % (key,))
    if max(key, default=0) >= 2 ** 63:
        raise ValueError("exponent %d in %r does not fit in a signed 64-bit integer" % (max(key), key))
    return key


def _table_product(rows, matrix):
    """rows @ matrix, bit for bit, in row blocks of under _THREADED complex multiply-adds where two rows
    fit, as splitting so small a product across threads costs several times its work.  numpy sums a
    one-row product in another order, so a lone row goes twice and a trailing one joins the block before."""
    step = max(2, (_THREADED - 1) // matrix.size - 1)  # so a block of step + 1 rows fits too
    if len(rows) <= step + 1:
        return np.matmul(rows, matrix) if len(rows) != 1 else np.matmul(rows[[0, 0]], matrix)[:1]
    out = np.empty((len(rows), matrix.shape[1]), dtype=complex)
    for start in range(0, len(rows) - 1, step):
        stop = start + step if start + step < len(rows) - 1 else len(rows)
        np.matmul(rows[start:stop], matrix, out=out[start:stop])
    return out


class _Stack:
    """Polynomials in the same variables, evaluated together from one table.

    Holds the union of their exponents and one ``(terms, k)`` coefficient
    matrix.  A call on ``(..., nvars)`` points raises each variable to each
    exponent the terms hold once, gathers every monomial from that table,
    and returns the ``(..., k)`` values by one matmul.
    """

    def __init__(self, polys):
        self.nvars = polys[0].nvars
        keys = sorted(set().union(*(poly.terms for poly in polys)))
        self._expo = np.array(keys, dtype=int).reshape(len(keys), self.nvars)
        self._coef = np.array([[poly.terms.get(key, 0.0) for poly in polys] for key in keys],
                              dtype=complex).reshape(len(keys), len(polys))
        # each exponent once (np.unique would import numpy.ma); complex, as the power loop
        # casts the exponents to the points' type on every call
        powers = sorted(set(self._expo.ravel().tolist()))
        self._powers, self._slots = np.array(powers, dtype=complex), np.searchsorted(powers, self._expo)
        self._vars = np.arange(self.nvars)

    def __call__(self, points):
        pts = np.asarray(points, dtype=complex)
        if pts.ndim == 0 or pts.shape[-1] != self.nvars:
            raise ValueError(
                "points must have a trailing axis of length %d" % self.nvars
            )
        table = pts[..., :, None] ** self._powers  # (..., nvars, distinct exponents)
        return table[..., self._vars, self._slots].prod(axis=-1) @ self._coef


class MultiPoly:
    """Polynomial in ``nvars`` complex variables with sparse storage.

    Terms are kept as a dict mapping exponent tuples to complex
    coefficients.  Evaluation is vectorized over arbitrary batches of
    points supplied as arrays with a trailing axis of length ``nvars``.
    """

    def __init__(self, nvars, terms=None):
        nvars = int(nvars)
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        self.nvars = nvars
        table = {}
        for expo, coef in (terms or {}).items():
            key = _normalize_key(expo, nvars)
            table[key] = table.get(key, 0.0 + 0.0j) + complex(coef)
        self.terms = {key: table[key] for key in sorted(table) if table[key] != 0}

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

    def coeff_norm(self):
        return max(map(abs, self.terms.values()), default=0.0)

    @cached_property
    def _stack(self):
        return _Stack([self])

    def evaluate(self, points):
        """Evaluate at points given as an array of shape ``(..., nvars)``.

        One point, of shape ``(nvars,)``, gives a scalar.
        """
        return self._stack(points)[..., 0][()]

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


def _compose(polys, images, minus):
    """polys[j] at the polynomials ``images`` (one per variable) less minus[j], term
    by term in floating point, as {exponent: (value, error)} dicts.

    error bounds |value - exact coefficient|, barring underflow: it is a running
    error bound (Higham 2002, section 3.3), in which a product by a coefficient c
    scales the error by |c| and each operation adds _ROUND times its computed
    modulus.  A monomial of degree 1 is an image itself, exactly; any other is
    built once, as one a degree lower times an image, and shared by all polys.
    None if the monomials take more than _COMPOSE_WORK coefficient products.
    """
    def times(out, terms, factor):  # out += terms * factor, an {exponent: coefficient} dict
        for shift, coef in factor.items():
            for expo, (value, error) in terms.items():
                key = tuple(a + b for a, b in zip(expo, shift))
                total, bound = out.get(key, (0j, 0.0))
                total += coef * value
                out[key] = (total, bound + error * abs(coef) + _ROUND * (abs(coef * value) + abs(total)))
        return out

    zero, n = (0,) * images[0].nvars, len(images)
    monomials = {(0,) * n: {zero: (1.0 + 0j, 0.0)}}
    monomials.update({tuple(int(v == i) for v in range(n)): {e: (c, 0.0) for e, c in image.terms.items()}
                      for i, image in enumerate(images)})
    composed, work = [], 0
    for poly, less in zip(polys, minus):
        composed.append({e: (-c, 0.0) for e, c in less.terms.items()})
        for expo, coef in poly.terms.items():
            key = (0,) * n
            for i, power in enumerate(expo):
                for p in range(1, power + 1):
                    lower, key = key, key[:i] + (p,) + key[i + 1:]
                    if key not in monomials:
                        work += len(monomials[lower]) * len(images[i].terms)
                        if work > _COMPOSE_WORK:
                            return None
                        monomials[key] = times({}, monomials[lower], images[i].terms)
            times(composed[-1], monomials[key], {zero: coef})
    return composed


def _quotients(num, den, tols):
    """num / den, after one pole test: |den| at or below ``tols`` raises DomainError."""
    if np.count_nonzero(np.abs(den) <= tols):
        raise DomainError("denominator vanishes at an evaluation point")
    return num / den


class _QuotientRule:
    """F = num / den and dF/dW for the g (num, den) ``pairs``, W the g ``solved`` variables.

    One stack holds each num and den, then their partials in each of the g
    variables, so (N, nvars) points take one table and one pole test (at
    ``tols``): F as (N, g), dF/dW = (d num - F d den) / den as (N, g, g).  A
    point holds variable ``columns[c]`` in its column c, as its caller lays
    the point out; the stack's ``_vars`` reads each variable from its column,
    so no point is reordered.  A variable in no column must be held by no
    term: its power 0 is read from column 0.
    """

    def __init__(self, pairs, tols, solved, columns):
        self.g, self._tols = len(pairs), tols
        stack = self._stack = _Stack([p if v is None else p.partial(v)
                                      for pair in pairs for v in (None, *solved) for p in pair])
        stack._vars = np.zeros(stack.nvars, dtype=int)
        stack._vars[list(columns)] = np.arange(len(columns))
        stack.nvars = len(columns)

    def __call__(self, points):
        table = self._stack(points).reshape(len(points), self.g, self.g + 1, 2)
        den = table[:, :, 0, 1]
        f = _quotients(table[:, :, 0, 0], den, self._tols)
        return f, (table[:, :, 1:, 0] - f[..., None] * table[:, :, 1:, 1]) / den[..., None]


class RationalMap:
    """Quotient of two sparse polynomials: one table of num and den, one pole test."""

    def __init__(self, numerator, denominator=None):
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
        self._pole_tol = _POLE_TOL * denominator.coeff_norm()
        self._stack = _Stack([numerator, denominator])

    @property
    def nvars(self):
        return self.numerator.nvars

    def evaluate(self, points):
        table = self._stack(points)
        return _quotients(table[..., 0], table[..., 1], self._pole_tol)

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
