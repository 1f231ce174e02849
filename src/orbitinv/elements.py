"""Cup-product and module algebra of rational equivariant cohomology classes.

For a closed datum with f > 0 fixed circles the equivariant cohomology
embeds, as a ring, into

    H*(orbit surface)  (+)  sum over fixed circles of  Q[u] (x) H*(S^1),

so a class is stored by its coefficients there:

    D                constant class of the orbit surface (degree 0)
    A_k, B_k         degree-1 surface classes alpha_k, beta_k (no B for a
                     nonorientable orbit surface)
    C_i              boundary classes theta_i along the f fixed circles
    C_se_j           boundary classes along the s special-exceptional circles
    p_i(u), q_i(u)   the component in Q[u] delta_i (+) Q[u] theta_i on the
                     i-th fixed circle, with u of degree 2

subject to the kernel relations of the restriction to the fixed set:

    (1)  sum A_k + sum B_k + sum C_i + sum C_se_j = 0
    (2)  p_i(0) = D for every i
    (3)  q_i(0) = C_i for every i

The cup product is componentwise: degree >= 1 surface classes multiply to
zero (the surface has boundary, so its H^2 vanishes), and on each fixed
circle (p delta + q theta)(p' delta + q' theta) = pp' delta + (pq'+qp')
theta.  The degree-2 polynomial generator acts through its image
sum_i u delta_i, so it kills the surface part and shifts each p_i and q_i
by one power of u.  Everything is exact over Q.

The relations are checked once, when an element is built from its parts
(:meth:`EquivariantCohomology.from_parts`); sums, multiples, products and
the module action of valid elements satisfy them by construction and are
not checked again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, attrgetter, mul
from typing import Callable, Iterable, Sequence

from .invariants import ORIENTABLE, OrbitInvariants, _as_int, require_valid
from .polyq import Poly, Scalar as Coeff, _poly, _render_sum, as_poly, exact


class RelationError(ValueError):
    """A proposed element breaks one of the kernel relations (1), (2), (3)."""


class ContextError(ValueError):
    """Elements of cohomology rings of different data were combined."""


def _as_tuple(values: Iterable, convert: Callable, length: int, name: str) -> tuple:
    out = tuple(map(convert, values))
    if len(out) != length:
        raise ValueError(f"{name} must have length {length}, got {len(out)}")
    return out


# A class's coefficient blocks after D: the degree-1 surface coefficients
# A, B, C, C_se, then the fixed-circle polynomials p and q.
_blocks = attrgetter("A", "B", "C", "C_se", "p", "q")


class EquivariantCohomology:
    """The cohomology ring of one closed datum with f > 0 fixed circles.

    Acts as a factory and context for :class:`CohomElement`; elements of
    rings built from different data refuse to combine.
    """

    def __init__(self, inv: OrbitInvariants):
        require_valid(inv, "EquivariantCohomology")
        if not inv.closed:
            raise ValueError("element algebra is implemented for closed data only "
                             "(t = 0 and empty graph)")
        if inv.f == 0:
            raise ValueError("element algebra needs at least one fixed circle; "
                             "for f = 0 only series and Betti numbers are available")
        self.inv = inv
        self.g = inv.g
        self.f = inv.f
        self.s = inv.s
        self.orientable = inv.eps is ORIENTABLE

    def __eq__(self, other) -> bool:
        if isinstance(other, EquivariantCohomology):
            return self.inv == other.inv
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("EquivariantCohomology", self.inv))

    def __repr__(self) -> str:
        return f"EquivariantCohomology({self.inv})"

    def from_parts(self, D: Coeff = 0, A: Iterable[Coeff] = None, B: Iterable[Coeff] = None,
                   C: Iterable[Coeff] = None, C_se: Iterable[Coeff] = None,
                   p: Sequence = None, q: Sequence = None) -> "CohomElement":
        """Build and check an element; omitted blocks default to zero.

        The only place the kernel relations are checked: raises
        :class:`RelationError` naming the broken relation when the parts are
        inconsistent, and ``TypeError`` for a scalar that is not an exact
        rational.
        """
        D = exact(D)
        A = (0,) * self.g if A is None else _as_tuple(A, exact, self.g, "A")
        if B is None:
            B = (0,) * self.g if self.orientable else ()
        elif not self.orientable:
            raise ValueError("B classes do not exist over a nonorientable orbit surface")
        else:
            B = _as_tuple(B, exact, self.g, "B")
        C = (0,) * self.f if C is None else _as_tuple(C, exact, self.f, "C")
        C_se = (0,) * self.s if C_se is None else _as_tuple(C_se, exact, self.s, "C_se")
        p = (Poly(),) * self.f if p is None else _as_tuple(p, as_poly, self.f, "p")
        q = (Poly(),) * self.f if q is None else _as_tuple(q, as_poly, self.f, "q")
        total = sum(A) + sum(B) + sum(C) + sum(C_se)
        if total != 0:
            raise RelationError(f"relation (1) fails: surface degree-1 coefficients "
                                f"sum to {total}, not 0")
        for i, poly in enumerate(p):
            if poly.constant_term != D:
                raise RelationError(f"relation (2) fails: p_{i + 1}(0) = "
                                    f"{poly.constant_term} differs from D = {D}")
        for i, poly in enumerate(q):
            if poly.constant_term != C[i]:
                raise RelationError(f"relation (3) fails: q_{i + 1}(0) = "
                                    f"{poly.constant_term} differs from C_{i + 1} = {C[i]}")
        return CohomElement(self, D, A, B, C, C_se, p, q)

    def zero(self) -> "CohomElement":
        return self.from_parts()

    def unit(self) -> "CohomElement":
        """The identity: constant 1 on the surface, delta_i on every fixed
        circle."""
        return self.from_parts(D=1, p=(1,) * self.f)

    def u_class(self) -> "CohomElement":
        """Image of the degree-2 polynomial generator: sum_i u delta_i."""
        u = Poly((0, 1))
        return self.from_parts(p=(u,) * self.f)


@dataclass(frozen=True)
class CohomElement:
    """One equivariant cohomology class, possibly of mixed degree.

    Construction only stores the parts: build elements through
    :meth:`EquivariantCohomology.from_parts`, which checks relations
    (1)-(3), and the operations below preserve them.
    """

    ring: EquivariantCohomology
    D: Coeff
    A: tuple[Coeff, ...]
    B: tuple[Coeff, ...]
    C: tuple[Coeff, ...]
    C_se: tuple[Coeff, ...]
    p: tuple[Poly, ...]
    q: tuple[Poly, ...]

    @property
    def is_zero(self) -> bool:
        return self.D == 0 and not any(map(any, _blocks(self)))

    def _check(self, other: "CohomElement") -> None:
        if self.ring != other.ring:
            raise ContextError("elements belong to cohomology rings of different data")

    def __add__(self, other: "CohomElement") -> "CohomElement":
        if not isinstance(other, CohomElement):
            return NotImplemented
        self._check(other)
        sums = [tuple(map(add, x, y)) for x, y in zip(_blocks(self), _blocks(other))]
        return CohomElement(self.ring, self.D + other.D, *sums)

    def __neg__(self) -> "CohomElement":
        return self.scaled(-1)

    def __sub__(self, other: "CohomElement") -> "CohomElement":
        if not isinstance(other, CohomElement):
            return NotImplemented
        return self + (-other)

    def scaled(self, c: Coeff) -> "CohomElement":
        c = exact(c)
        return CohomElement(self.ring, c * self.D,
                            *[tuple([c * v for v in block]) for block in _blocks(self)])

    def __mul__(self, other):
        if isinstance(other, CohomElement):
            return cup(self, other)
        return self.__rmul__(other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def max_degree(self) -> int:
        """Largest degree carrying a nonzero homogeneous component; -1 for 0."""
        blocks = _blocks(self)
        low = 1 if any(map(any, blocks[:4])) else 0 if self.D != 0 else -1
        # u^k delta_i has degree 2k and u^k theta_i degree 2k + 1
        return max((2 * pl.degree + odd for odd, block in enumerate(blocks[4:])
                    for pl in block if pl.degree >= 1), default=low)

    def render(self) -> str:
        """Readable form, e.g. ``theta_1 - theta_2`` or ``u*delta_1 + u*theta_2``."""
        terms = [(self.D, "")]
        terms += [(a, f"alpha_{k}") for k, a in enumerate(self.A, 1)]
        terms += [(b, f"beta_{k}") for k, b in enumerate(self.B, 1)]
        terms += [(c, f"theta_se_{j}") for j, c in enumerate(self.C_se, 1)]
        for i, (pl, ql) in enumerate(zip(self.p, self.q), 1):
            # the constant of p_i is D, already rendered
            terms += [(c, f"{_u_power(k)}delta_{i}") for k, c in enumerate(pl.coeffs) if k]
            terms += [(c, f"{_u_power(k)}theta_{i}") for k, c in enumerate(ql.coeffs)]
        return _render_sum(terms, "*")

    def __str__(self) -> str:
        return self.render()


def _u_power(k: int) -> str:
    """The factor u^k of a class's symbol, with its ``*``."""
    return "" if k == 0 else "u*" if k == 1 else f"u^{k}*"


def cup(a: CohomElement, b: CohomElement) -> CohomElement:
    """Cup product.

    Componentwise in the ambient ring: on the surface the product of two
    positive-degree classes vanishes, and on each fixed circle polynomials
    multiply with theta^2 = 0.  Degree-1 times degree-1 lands in the
    vanishing H^2 of the surface and in theta^2 terms, hence is always zero.
    """
    a._check(b)
    a_blocks, b_blocks = _blocks(a), _blocks(b)
    (pa, qa), (pb, qb) = a_blocks[4:], b_blocks[4:]
    aD, bD = a.D, b.D
    return CohomElement(a.ring, aD * bD,
                        *[tuple([aD * y + bD * x for x, y in zip(xs, ys)])
                          for xs, ys in zip(a_blocks[:4], b_blocks[:4])],
                        tuple(map(mul, pa, pb)),
                        tuple([p * q2 + q * p2 for p, q, p2, q2 in zip(pa, qa, pb, qb)]))


def module_action(power: int, x: CohomElement) -> CohomElement:
    """Multiply by the degree-2 polynomial generator ``power`` times, i.e. cup
    with (sum_i u delta_i)^power: for power >= 1 the surface part vanishes
    and every p_i, q_i is shifted up by u^power.  A ``power`` that is not an
    integer, a ``bool`` included, is a ``TypeError``."""
    power = _as_int(power, "power")
    if power < 0:
        raise ValueError("power must be nonnegative")
    if power == 0:
        return x
    shift = (0,) * power
    ring, blocks = x.ring, _blocks(x)
    return CohomElement(ring, 0, *[(0,) * len(block) for block in blocks[:4]],
                        *[tuple([_poly([*shift, *pl.coeffs]) for pl in block])
                          for block in blocks[4:]])


def degree_decompose(x: CohomElement) -> dict[int, CohomElement]:
    """Split into homogeneous components; zero components are omitted, so the
    zero element maps to {}.  The values sum back to ``x``."""
    ring = x.ring
    out: dict[int, CohomElement] = {}
    if x.D != 0:
        out[0] = ring.from_parts(D=x.D, p=(x.D,) * ring.f)
    if any(map(any, _blocks(x)[:4])):
        out[1] = ring.from_parts(A=x.A, B=x.B or None, C=x.C, C_se=x.C_se, q=x.C)
    top = max((pl.degree for pl in x.p + x.q), default=0)
    for k in range(1, top + 1):
        p_part = tuple(Poly.monomial(k, pl[k]) for pl in x.p)
        if any(p_part):
            out[2 * k] = ring.from_parts(p=p_part)
        q_part = tuple(Poly.monomial(k, pl[k]) for pl in x.q)
        if any(q_part):
            out[2 * k + 1] = ring.from_parts(q=q_part)
    return out
