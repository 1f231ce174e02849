"""Equivariant formality and the orbifold Euler number of closed data.

A circle action is equivariantly formal when its rational equivariant
cohomology is a free module over Q[u].  For a closed 3-manifold datum this
happens exactly when there is at least one fixed circle and the orbit
surface is as small as possible:

    orientable:     g = 0 and s in {0, 1}
    nonorientable:  g = 1 and s = 0

In the formal cases an explicit basis of module generators exists and is
returned; its degrees reproduce the Poincare series times (1 - x^2).  In
every non-formal case with fixed circles the obstruction is visible in the
Betti numbers: dim H^1 exceeds dim H^3, which a free module forbids.

For closed fixed-point-free data the image of the degree-2 polynomial
generator is a single rational number, the orbifold Euler number.  It
vanishes when the orbit surface is nonorientable or special-exceptional
circles exist, and otherwise equals

    b + sum_i l_i / m_i     with  l_i n_i = 1 (mod m_i),  0 < l_i < m_i.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .elements import CohomElement, EquivariantCohomology
from .invariants import NONORIENTABLE, ORIENTABLE, OrbitInvariants, require_valid
from .polyq import Poly
from .series import equivariant_poincare


@dataclass(frozen=True)
class ModuleGenerator:
    degree: int
    label: str
    element: CohomElement


@dataclass(frozen=True)
class FormalityResult:
    formal: bool
    reason: str
    generators: tuple[ModuleGenerator, ...] = ()

    def degree_counts(self) -> Counter[int]:
        return Counter(gen.degree for gen in self.generators)


def _formal_generators(inv: OrbitInvariants) -> tuple[ModuleGenerator, ...]:
    ring = EquivariantCohomology(inv)
    f = inv.f
    u = Poly((0, 1))
    gens: list[ModuleGenerator] = []

    label_sum = "+".join(f"delta_{i + 1}" for i in range(f))
    gens.append(ModuleGenerator(0, label_sum, ring.unit()))

    if inv.eps is ORIENTABLE and inv.s == 0:
        # Differences theta_1 - theta_i satisfy the sum-zero relation on
        # their own.
        for i in range(2, f + 1):
            C = tuple(1 if j == 0 else (-1 if j == i - 1 else 0) for j in range(f))
            gens.append(ModuleGenerator(
                1, f"theta_1-theta_{i}", ring.from_parts(C=C, q=C)))
    else:
        # One extra degree-1 surface class absorbs the sum-zero relation, so
        # each theta_i is a generator by itself.
        for i in range(1, f + 1):
            C = tuple(1 if j == i - 1 else 0 for j in range(f))
            absorb = dict(C_se=(-1,)) if inv.s == 1 else dict(A=(-1,))
            gens.append(ModuleGenerator(
                1, f"theta_{i}", ring.from_parts(C=C, q=C, **absorb)))

    for i in range(2, f + 1):
        p = tuple(u if j == 0 else (-u if j == i - 1 else Poly()) for j in range(f))
        gens.append(ModuleGenerator(2, f"u*(delta_1-delta_{i})", ring.from_parts(p=p)))

    if inv.eps is ORIENTABLE and inv.s == 0:
        label = "u*(" + "+".join(f"theta_{i + 1}" for i in range(f)) + ")"
        gens.append(ModuleGenerator(3, label, ring.from_parts(q=(u,) * f)))

    return tuple(gens)


def is_formal(inv: OrbitInvariants) -> FormalityResult:
    """Decide equivariant formality of a closed datum.

    Raises ``ValueError`` for with-boundary input; the module structure is
    only worked out for closed manifolds.
    """
    require_valid(inv, "is_formal")
    if not inv.closed:
        raise ValueError("formality implemented for closed manifolds only")

    if inv.f == 0:
        return FormalityResult(
            formal=False,
            reason="no fixed circles: the cohomology is finite-dimensional and no "
                   "nonzero free module over Q[u] is",
        )
    # f > 0 forces b = 0 on admissible data.
    if inv.eps is ORIENTABLE:
        formal = inv.g == 0 and inv.s <= 1
    else:
        formal = inv.g == 1 and inv.s == 0
    if formal:
        branch = f"{inv.eps.name.lower()} orbit surface with g = {inv.g}, s = {inv.s}"
        return FormalityResult(True, branch, _formal_generators(inv))

    _, b1, _, b3 = equivariant_poincare(inv).expansion(3)
    return FormalityResult(
        formal=False,
        reason=f"odd Betti numbers decrease: dim H^1 = {b1} > dim H^3 = {b3}, "
               "impossible in a free module over Q[u]",
    )


def inverse_mod(n: int, m: int) -> int:
    """The unique l with l*n = 1 (mod m) and 0 < l < m.

    Requires m >= 2 and gcd(n, m) = 1.
    """
    try:
        return pow(n, -1, m)
    except ValueError:
        raise ValueError(f"{n} is not invertible mod {m}: gcd = {gcd(n, m)}") from None


def euler_number(inv: OrbitInvariants) -> Fraction:
    """Orbifold Euler number of a closed fixed-point-free datum.

    Exactly zero when the orbit surface is nonorientable or s > 0; otherwise
    b + sum of the inverses l_i/m_i.  Raises ``ValueError`` for data with
    fixed circles (the degree-2 class is then not a number; use
    ``module_action``), for with-boundary data, and (as
    :class:`InvariantError`) for inadmissible data.
    """
    require_valid(inv, "euler_number")
    if not inv.closed:
        raise ValueError("orbifold Euler number is defined for closed data only")
    if inv.f > 0:
        raise ValueError("not defined here: the datum has fixed circles, so the "
                         "degree-2 class is not a single rational; use module_action")
    if inv.eps is NONORIENTABLE or inv.s > 0:
        return Fraction(0)
    return Fraction(inv.b) + sum(
        (Fraction(inverse_mod(p.n, p.m), p.m) for p in inv.pairs), Fraction(0))
