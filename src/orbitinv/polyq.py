"""Dense univariate polynomials with exact rational coefficients.

Coefficients are ``int``, or ``fractions.Fraction`` once a non-integer
appears, never ``float``: :func:`exact` refuses inexact scalars, and nothing
in this package ever touches floating point.  The class is deliberately
small: just what the Poincare-series and cohomology modules need (exact
scalars, the ring operations and rendering).
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from numbers import Integral, Rational
from typing import Union

Scalar = Union[int, Fraction]


def exact(c: Scalar) -> Scalar:
    """An integral scalar (``int``, ``bool``, numpy's integers) becomes an
    ``int``, any other rational a ``Fraction``, and anything inexact
    (``float``, ``Decimal``, ``str``) is a ``TypeError``."""
    if type(c) is int or type(c) is Fraction:
        return c
    if not isinstance(c, Rational):
        raise TypeError(f"{c!r} is not an exact rational scalar (int or Fraction)")
    return int(c) if isinstance(c, Integral) else Fraction(c)


class Poly:
    """A polynomial stored as an ascending coefficient tuple without trailing
    zeros; the zero polynomial is the empty tuple."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = list(map(exact, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c: Scalar) -> "Poly":
        return cls((c,))

    @classmethod
    def monomial(cls, power: int, c: Scalar = 1) -> "Poly":
        return cls((0,) * power + (c,))

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, k: int) -> Scalar:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    @property
    def constant_term(self) -> Scalar:
        return self[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Poly", self.coeffs))

    def __neg__(self) -> "Poly":
        return _poly([-c for c in self.coeffs])

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return _poly([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return _poly([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return _poly(out)

    __rmul__ = __mul__

    def render(self) -> str:
        """Human form like ``1 - x^2`` or ``2x``; the zero polynomial is ``0``."""
        return _render_sum((c, "" if k == 0 else "x" if k == 1 else f"x^{k}")
                           for k, c in enumerate(self.coeffs))

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"


def _render_sum(terms: Iterable[tuple[Scalar, str]], times: str = "") -> str:
    """``1 - x^2`` or ``2 + 3*u*delta_1`` from ``(coefficient, symbol)`` terms,
    ``""`` the constant's symbol: zero terms are skipped, a unit magnitude is
    dropped before a symbol, and the empty sum is ``0``."""
    parts: list[str] = []
    for coeff, symbol in terms:
        if coeff == 0:
            continue
        mag = abs(coeff)
        body = (symbol if mag == 1 else f"{mag}{times}{symbol}") if symbol else str(mag)
        if parts:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        else:
            parts.append(body if coeff > 0 else f"-{body}")
    return " ".join(parts) or "0"


def _poly(cs: list[Scalar]) -> Poly:
    """A ``Poly`` of coefficients already ``int``/``Fraction``, as the ring
    operations produce them: only trailing zeros are stripped, ``exact`` is
    not mapped again."""
    while cs and cs[-1] == 0:
        cs.pop()
    poly = object.__new__(Poly)
    poly.coeffs = tuple(cs)
    return poly


def _coerce(value) -> Poly | None:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    return None


def as_poly(value) -> Poly:
    """A ``Poly`` as it is, an iterable as its coefficients, and anything else
    as a constant, so that an inexact scalar is refused by :func:`exact`."""
    if isinstance(value, Poly):
        return value
    if isinstance(value, Iterable) and not isinstance(value, str):
        return Poly(value)
    return Poly.const(value)
