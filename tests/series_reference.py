"""The general rational-function algebra that ``PoincareSeries`` carried
before every series was built in one of its closed forms, kept unchanged
as the reference the tests compare the library's series against:
polynomial division and gcd over Q, the reduction of any fraction to the
canonical form, the sum and product of two series, and the expansion by
long division over any denominator."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from orbitinv import PoincareSeries, Poly
from orbitinv.polyq import as_poly


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder over Q."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    quo = [0] * max(len(rem) - len(b.coeffs) + 1, 0)
    d = b.degree
    lead = b.coeffs[-1]
    for k in range(len(rem) - 1, d - 1, -1):
        c = Fraction(rem[k]) / lead
        if c:
            quo[k - d] = c
            for j, x in enumerate(b.coeffs):
                rem[k - d + j] -= c * x
    return Poly(quo), Poly(rem)


def monic(p: Poly) -> Poly:
    if p.is_zero:
        return p
    lead = p.coeffs[-1]
    return Poly(Fraction(c) / lead for c in p.coeffs)


def exact_div(a: Poly, b: Poly) -> Poly:
    q, r = poly_divmod(a, b)
    if not r.is_zero:
        raise ValueError(f"{a!r} is not divisible by {b!r}")
    return q


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    while not b.is_zero:
        a, b = b, poly_divmod(a, b)[1]
    return monic(a)


def reduced(numerator, denominator=1) -> PoincareSeries:
    """``numerator / denominator`` (each a ``Poly``, a coefficient iterable
    or a scalar) in the canonical form: coprime, jointly primitive integer
    coefficients, positive constant term of the denominator."""
    num = as_poly(numerator)
    den = as_poly(denominator)
    if den.is_zero:
        raise ZeroDivisionError("series denominator is zero")
    if num.is_zero:
        return PoincareSeries((), (1,))
    g = poly_gcd(num, den)
    num = exact_div(num, g)
    den = exact_div(den, g)
    if den.constant_term == 0:
        raise ValueError("rational function has a pole at x = 0; not a power series")
    scale = lcm(*(c.denominator for c in num.coeffs + den.coeffs))
    nums = [int(c * scale) for c in num.coeffs]
    dens = [int(c * scale) for c in den.coeffs]
    content = gcd(*(abs(c) for c in nums + dens))
    sign = 1 if dens[0] > 0 else -1
    return PoincareSeries(tuple(c * sign // content for c in nums),
                          tuple(c * sign // content for c in dens))


def _series(value) -> PoincareSeries:
    return value if isinstance(value, PoincareSeries) else reduced(value)


def add(a, b) -> PoincareSeries:
    """The reduced sum of two series, polynomials or integers."""
    a, b = _series(a), _series(b)
    return reduced(a.numerator * b.denominator + b.numerator * a.denominator,
                   a.denominator * b.denominator)


def mul(a, b) -> PoincareSeries:
    """The reduced product of two series, polynomials or integers."""
    a, b = _series(a), _series(b)
    return reduced(a.numerator * b.numerator, a.denominator * b.denominator)


def expansion(series: PoincareSeries, upto: int) -> list[int]:
    """b_0 .. b_upto by exact integer long division, raising ``ValueError``
    at the first coefficient that is not a nonnegative integer."""
    out: list[int] = []
    num, den = series.num, series.den
    d0 = den[0]
    for k in range(upto + 1):
        acc = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        b, rem = divmod(acc, d0)
        if rem or b < 0:
            raise ValueError(f"coefficient of x^{k} is {Fraction(acc, d0)}; "
                             "not a nonnegative-integer power series")
        out.append(b)
    return out
