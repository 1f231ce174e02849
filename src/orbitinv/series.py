"""Exact equivariant Poincare series and Betti numbers.

The rational equivariant cohomology of a compact 3-manifold with circle
action splits, as a graded vector space, into the cohomology of the orbit
surface plus one copy of ``x^2/(1-x^2)`` (respectively ``x^2(1+x)/(1-x^2)``)
for every fixed interval (respectively fixed circle).  All the generating
functions here are therefore rational with integer coefficients, and Betti
numbers come out of exact integer power-series division, never truncation.

With P the orbit-surface polynomial, c the fixed circles and i the fixed
intervals, the reduced series of a datum has one of three shapes, read off
the fixed set without any polynomial gcd:

    c = i = 0:       P / 1
    c > 0, i = 0:    (P(1-x) + c x^2) / (1-x)
    i > 0:           (P(1-x^2) + (c+i) x^2 + c x^3) / (1-x^2)

The numerator is nonzero at x = 1 (it is c, respectively 2c+i there) and,
in the last shape, at x = -1 (where it is i), so each pair is coprime as
written.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclegraph import EdgeLabel
from .invariants import ORIENTABLE, OrbitInvariants, _as_int, require_valid
from .polyq import Poly


def _period(den: tuple[int, ...]) -> int | None:
    """p when ``den`` is ``1 - x^p``, 0 when it is 1, else None.  Over such a
    denominator b_k = num[k] + b_{k-p}, so the values repeat with period p
    from degree ``len(num)`` on (b_k = 0 over 1).  The library builds 1,
    ``1 - x`` and ``1 - x^2``."""
    if den == (1,):
        return 0
    if den[0] == 1 and den[-1] == -1 and not any(den[1:-1]):
        return len(den) - 1
    return None


class PoincareSeries:
    """A power series ``sum b_k x^k`` with nonnegative integer coefficients,
    given as the rational function num(x)/den(x): a result that
    :func:`equivariant_poincare` and :func:`orbit_space_poincare` build, with
    ``num``, ``den``, ``expansion``, ``coefficient``, ``render`` and
    equality, and no arithmetic.

    ``num`` and ``den`` are ascending tuples of ``int`` in the canonical
    form, which the constructor does not check: coprime as polynomials,
    jointly primitive (the gcd of all coefficients is 1), ``den[0] > 0``,
    and no trailing zero.  Structural equality therefore decides equality
    of rational functions.  The nonnegative-integrality of the expansion is
    checked whenever coefficients are extracted.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: tuple[int, ...], den: tuple[int, ...] = (1,)):
        self.num, self.den = num, den

    @property
    def numerator(self) -> Poly:
        return Poly(self.num)

    @property
    def denominator(self) -> Poly:
        return Poly(self.den)

    def expansion(self, upto: int) -> list[int]:
        """Coefficients b_0 .. b_upto.

        Over 1 and ``1 - x^p`` (``_period``) the recurrence
        b_k = num[k] + b_{k-p} runs to degree ``len(num) + p - 1``, and past
        it the last period repeats.  Any other denominator runs exact integer
        long division.

        Raises ``ValueError`` for a negative ``upto``, and if any coefficient
        in the requested range fails to be a nonnegative integer, which would
        mean the rational function is not a Poincare series at all.
        """
        upto = _as_int(upto, "upto")
        if upto < 0:
            raise ValueError(f"upto must be nonnegative, got {upto}")
        num = self.num
        period = _period(self.den)
        if period is None:
            return self._long_division(upto)
        top = min(upto, len(num) + period - 1)
        out = list(num[:top + 1]) + [0] * (top + 1 - len(num))
        if period:
            for k in range(period, top + 1):
                out[k] += out[k - period]
        if out and min(out) < 0:
            k = next(k for k, b in enumerate(out) if b < 0)
            raise ValueError(f"coefficient of x^{k} is {out[k]}; "
                             "not a nonnegative-integer power series")
        # from degree len(num) on, the values repeat with the period (0 over 1)
        block = out[len(num):] or [0]
        reps, rest = divmod(upto - top, len(block))
        return out + block * reps + block[:rest]

    def _long_division(self, upto: int) -> list[int]:
        """b_0 .. b_upto by exact integer long division, checking each."""
        out: list[int] = []
        num, den = self.num, self.den
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

    def coefficient(self, k: int) -> int:
        """b_k, raising ``ValueError`` as ``expansion(k)`` would.

        Over 1 and ``1 - x^p`` (``_period``) a degree past the numerator is
        first folded into the first period after it (over 1, onto
        ``len(num)``, where b = 0), so the time does not grow with k and the
        expansion up to the folded degree checks every value.  Any other
        denominator expands up to k.  A negative k is a ``ValueError``.
        """
        k = _as_int(k, "k")
        if k < 0:
            raise ValueError("degree must be nonnegative")
        start, period = len(self.num), _period(self.den)
        if period is not None and k > start:
            k = start + (k - start) % period if period else start
        return self.expansion(k)[k]

    def __eq__(self, other) -> bool:
        if isinstance(other, PoincareSeries):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("PoincareSeries", self.num, self.den))

    def render(self) -> str:
        num = self.numerator.render()
        if self.den == (1,):
            return num
        return f"({num})/({self.denominator.render()})"

    def render_expansion(self, upto: int) -> str:
        """Prefix of the power series, e.g. ``1 + 2x + x^2 + x^3 + ...``."""
        text = Poly(self.expansion(upto)).render()
        finite = len(self.den) == 1 and self.numerator.degree <= upto
        return text if finite else f"{text} + ..."

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"PoincareSeries({list(self.num)}, {list(self.den)})"


@dataclass(frozen=True)
class FixedSetShape:
    """Connected components of the fixed-point set: circles (away from the
    boundary) and intervals (F arcs of the graph)."""

    circles: int
    intervals: int

    def cohomology_polynomial(self) -> Poly:
        """Poincare polynomial of the fixed set: each circle contributes 1+x,
        each interval contributes 1."""
        return Poly((self.circles + self.intervals, self.circles))


def fixed_set_shape(inv: OrbitInvariants) -> FixedSetShape:
    require_valid(inv, "fixed_set_shape")
    return FixedSetShape(circles=inv.f, intervals=inv.graph.edge_count(EdgeLabel.F))


def orbit_space_poincare(inv: OrbitInvariants) -> PoincareSeries:
    """Poincare series of the orbit surface (a polynomial).

    A closed surface gives 1 + 2g x + x^2 (orientable) or 1 + g x
    (nonorientable); a surface with B > 0 boundary circles is homotopy
    equivalent to a wedge of 2g+B-1 (orientable) or g+B-1 (nonorientable)
    circles.
    """
    require_valid(inv, "orbit_space_poincare")
    return PoincareSeries(_orbit_surface_poly(inv))


def _orbit_surface_poly(inv: OrbitInvariants) -> tuple[int, ...]:
    rank = 2 * inv.g if inv.eps is ORIENTABLE else inv.g
    B = inv.boundary_circles
    if B == 0 and inv.eps is ORIENTABLE:
        return (1, rank, 1)
    if B:
        rank += B - 1
    return (1, rank) if rank else (1,)


def equivariant_poincare(inv: OrbitInvariants) -> PoincareSeries:
    """Poincare series of the rational equivariant cohomology.

    The orbit-surface polynomial P plus ``x^2 * (c(1+x) + i)`` over
    ``1 - x^2``, for c fixed circles and i fixed intervals, built directly
    in one of three reduced shapes: P over 1 when c = i = 0; the numerator
    of P(1-x) + c x^2 over 1 - x when only circles are fixed (the factor
    1 + x cancels); the numerator of P(1-x^2) + (c+i) x^2 + c x^3 over
    1 - x^2 when some interval is fixed.  For closed data with fixed
    circles this is ``1 + (2g+f+s-1) x + f (x^2+x^3)/(1-x^2)`` in the
    orientable case and its g+f+s-1 analogue otherwise.  Its ``expansion``
    runs in integers only.
    """
    require_valid(inv, "equivariant_poincare")
    poly = _orbit_surface_poly(inv)
    shape = fixed_set_shape(inv)
    c, i = shape.circles, shape.intervals
    if not (c or i):
        return PoincareSeries(poly)
    p0, p1, p2 = poly + (0,) * (3 - len(poly))
    if i:
        num, den = [p0, p1, p2 - p0 + c + i, c - p1, -p2], (1, 0, -1)
    else:
        num, den = [p0, p1 - p0, p2 - p1 + c, -p2], (1, -1)
    while not num[-1]:
        num.pop()
    return PoincareSeries(tuple(num), den)


def betti(inv: OrbitInvariants, k: int) -> int:
    """dim of the degree-k rational equivariant cohomology: the datum is
    checked first, then ``k`` as ``PoincareSeries.coefficient`` checks it."""
    return equivariant_poincare(inv).coefficient(k)
