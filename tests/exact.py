"""Exact arithmetic for the tests: a binary64 value is a dyadic rational, so a
Fraction holds it exactly, and a complex one is a (re, im) pair of Fractions."""

import math
from fractions import Fraction

import numpy as np

fractions = np.vectorize(Fraction, otypes=[object])  # an array's entries as Fractions


def compose(poly, images, less):
    # MultiPoly poly at the MultiPoly images less MultiPoly less, as {exponent: (re, im)}
    def gaussian(p):
        return {e: (Fraction(c.real), Fraction(c.imag)) for e, c in p.terms.items()}

    def times(p, q):
        out = {}
        for e1, (a, b) in p.items():
            for e2, (c, d) in q.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                re, im = out.get(key, (0, 0))
                out[key] = (re + a * c - b * d, im + a * d + b * c)
        return out

    zero, images = (0,) * images[0].nvars, [gaussian(image) for image in images]
    total = {e: (-a, -b) for e, (a, b) in gaussian(less).items()}
    for expo, coef in gaussian(poly).items():
        term = {zero: coef}
        for i, power in enumerate(expo):
            for _ in range(power):
                term = times(term, images[i])
        for e, (a, b) in term.items():
            re, im = total.get(e, (0, 0))
            total[e] = (re + a, im + b)
    return total


def sqrt_up(q):
    # a Fraction at or above the square root of the Fraction q >= 0, within 2^-80 / q's denominator
    return Fraction(math.isqrt(q.numerator * q.denominator << 160) + (q > 0), q.denominator << 80)


def zero_within(coefs, radius):
    # whether sum coefs[k] w^k, its leading coefficient nonzero, has a zero with |w| <= radius:
    # the Schur-Cohn recursion on Gaussian integers, the coefficients at that radius times their
    # common denominator
    parts = [(Fraction(c.real) * Fraction(radius) ** k, Fraction(c.imag) * Fraction(radius) ** k)
             for k, c in enumerate(coefs)]
    den = math.lcm(*(x.denominator for part in parts for x in part))
    a = [(int(x * den), int(y * den)) for x, y in parts]
    while len(a) > 1:  # a[k] = (re, im) of q_k; the next q_k is conj(q_0) q_k - q_d conj(q_(d-k))
        (x0, y0), (xd, yd), d = a[0], a[-1], len(a) - 1
        if x0 * x0 + y0 * y0 <= xd * xd + yd * yd:
            return True
        a = [(x0 * x + y0 * y - xd * u - yd * v, x0 * y - y0 * x - yd * u + xd * v)
             for (x, y), (u, v) in zip(a[:d], a[d:0:-1])]
    return False
