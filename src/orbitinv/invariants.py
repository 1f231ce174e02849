"""Orbit invariants of compact, connected 3-manifolds with effective circle actions.

An action is recorded by the datum

    {b; (eps, g, f, s, t); (m_1, n_1), ..., (m_r, n_r); G}

where ``b`` is the obstruction to a section over the principal part, ``eps``
and ``g`` are the orientability and genus of the orbit surface, ``f`` and
``s`` count the fixed circles and special-exceptional circles away from the
boundary, ``t`` counts torus boundary components, the coprime pairs
``(m_i, n_i)`` describe the exceptional orbits, and ``G`` is a union of
labelled cycle graphs encoding the corner structure (see ``cyclegraph``).

Two data describe equivariantly diffeomorphic manifolds exactly when their
canonical forms coincide, which is what :func:`equivalent` decides.  A datum
is admissible when:

  (1)  b = 0 whenever f+s+t > 0 or G is nonempty; b is an arbitrary integer
       for orientable data, lies in {0, 1} for nonorientable closed data
       without fixed or special-exceptional circles, and is 0 in that case
       as soon as some m_i = 2;
  (2)  every pair has gcd(m, n) = 1 with 0 < n < m for eps = o and
       0 < n <= m/2 for eps = n;
  (3)  G satisfies the cycle-graph forcing rule.

Nonorientable surfaces have genus at least 1, so eps = n additionally
requires g >= 1.  Validation is total: it accepts arbitrary field values and
returns a report of violations instead of raising.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from numbers import Integral
from operator import attrgetter
from typing import Union

from .cyclegraph import (
    EMPTY_GRAPH,
    Cycle,
    CycleGraph,
    EdgeLabel,
    validate_graph,
    vertex_labels,
)


class Orientability(Enum):
    ORIENTABLE = "o"
    NONORIENTABLE = "n"

    @classmethod
    def from_letter(cls, letter: str) -> "Orientability":
        try:
            return cls(letter)
        except ValueError:
            raise ValueError(f"orientability must be 'o' or 'n', got {letter!r}") from None

    def __str__(self) -> str:
        return self.value


ORIENTABLE = Orientability.ORIENTABLE
NONORIENTABLE = Orientability.NONORIENTABLE


@dataclass(frozen=True, order=True)
class SeifertPair:
    """Coprime pair (m, n) attached to an exceptional orbit with isotropy Z/m."""

    m: int
    n: int

    def __str__(self) -> str:
        return f"({self.m},{self.n})"


PairLike = Union[SeifertPair, tuple]

# Sorting the (m, n) tuples orders pairs exactly as SeifertPair's generated
# comparison does, without a Python-level ``__lt__`` call per comparison.
pair_mn = attrgetter("m", "n")


def _as_pair(value: PairLike) -> SeifertPair:
    """A pair, tuple or ``SeifertPair``, with its entries under
    :func:`_integer`."""
    try:
        m, n = pair_mn(value) if isinstance(value, SeifertPair) else value
    except (TypeError, ValueError):
        raise ValueError(f"a pair is two entries (m, n), got {value!r}") from None
    return SeifertPair(_integer(m), _integer(n))


def _iterate(value, what: str):
    """``iter(value)``, or a ValueError naming the field that ``what`` describes."""
    try:
        return iter(value)
    except TypeError:
        raise ValueError(f"{what}, got {value!r}") from None


def _as_graph(value) -> CycleGraph:
    if isinstance(value, CycleGraph):
        return value
    return CycleGraph.from_labels(_iterate(value, "graph is an iterable of cycles"))


@dataclass(frozen=True)
class OrbitInvariants:
    """The full classification datum.  Construction and :meth:`replace`
    never validate: a new instance starts without a verdict, and
    :func:`validate` records an ok one on the instance (see
    :func:`require_valid`).  Only the census's data and capping outputs
    carry an ok verdict from birth, since each is admissible by
    construction; parsed, user-built, normalized and ``replace``d data do
    not."""

    b: int
    eps: Orientability
    g: int
    f: int
    s: int
    t: int
    pairs: tuple[SeifertPair, ...] = ()
    graph: CycleGraph = EMPTY_GRAPH

    def __post_init__(self) -> None:
        for name in ("b", "g", "f", "s", "t"):
            object.__setattr__(self, name, _integer(getattr(self, name)))
        if isinstance(self.eps, str):
            object.__setattr__(self, "eps", Orientability.from_letter(self.eps))
        pairs = _iterate(self.pairs, "pairs is an iterable of (m, n) pairs")
        object.__setattr__(self, "pairs", tuple(_as_pair(p) for p in pairs))
        object.__setattr__(self, "graph", _as_graph(self.graph))

    @property
    def closed(self) -> bool:
        return self.t == 0 and not self.graph

    @property
    def boundary_circles(self) -> int:
        """Boundary components of the orbit surface: every F/SE circle, every
        torus boundary, and every cycle of the graph contributes one."""
        return self.f + self.s + self.t + len(self.graph)

    def replace(self, **changes) -> "OrbitInvariants":
        return dataclasses.replace(self, **changes)

    def __str__(self) -> str:
        from .textio import serialize

        return serialize(self)


@dataclass(frozen=True)
class Violation:
    """A broken admissibility condition: (1), (2), (3), nonorientable-genus,
    or domain for malformed field values."""

    condition: str
    message: str

    def __str__(self) -> str:
        return f"condition {self.condition}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(str(v) for v in self.violations)


class InvariantError(ValueError):
    """An operation that requires an admissible datum received an invalid one."""

    def __init__(self, report: ValidationReport, context: str = ""):
        self.report = report
        prefix = f"{context}: " if context else ""
        super().__init__(prefix + str(report))


def _integer(value):
    """The integer rule of a datum's counts and pair entries and of census
    bounds: an integral value other than a ``bool`` (numpy's integers too) as
    an exact ``int``, any other value as it is, never truncated, for
    ``validate`` to report."""
    if value.__class__ is int or not isinstance(value, Integral) or isinstance(value, bool):
        return value
    return int(value)


def _as_int(value, name: str) -> int:
    """An integer argument as an ``int``; a ``bool`` or a non-integral value
    is a ``TypeError`` naming the argument."""
    value = _integer(value)
    if value.__class__ is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _require_datum(value, name: str) -> None:
    """A ``TypeError`` naming the argument unless ``value`` is a datum."""
    if not isinstance(value, OrbitInvariants):
        raise TypeError(f"{name} must be an OrbitInvariants, got {value!r}")


_ADMISSIBLE = "_admissible"  # the ok verdict's key in __dict__; not a field


def _trusted(b: int, eps: Orientability, g: int, f: int, s: int, t: int,
             pairs: tuple[SeifertPair, ...], graph: CycleGraph,
             admissible: bool = False) -> OrbitInvariants:
    """An ``OrbitInvariants`` of parts already in their field types, built
    without ``__post_init__``'s coercions; for data the library builds
    itself.  ``admissible`` records an ok verdict, for data admissible by
    construction."""
    inv = object.__new__(OrbitInvariants)
    fields = inv.__dict__
    fields["b"] = b
    fields["eps"] = eps
    fields["g"] = g
    fields["f"] = f
    fields["s"] = s
    fields["t"] = t
    fields["pairs"] = pairs
    fields["graph"] = graph
    if admissible:
        fields[_ADMISSIBLE] = True
    return inv


def validate(inv: OrbitInvariants) -> ValidationReport:
    """Total admissibility check; violations are returned, never raised.
    Always runs in full, and records an ok verdict on ``inv``.  Anything
    but an ``OrbitInvariants`` is a ``TypeError``."""
    _require_datum(inv, "inv")
    violations: list[Violation] = []

    def bad(condition: str, message: str) -> None:
        violations.append(Violation(condition, message))

    if not isinstance(inv.eps, Orientability):
        bad("domain", f"eps must be 'o' or 'n', got {inv.eps!r}")
    counts_ok = True
    for name in ("g", "f", "s", "t"):
        value = getattr(inv, name)
        if value.__class__ is not int or value < 0:
            bad("domain", f"{name} must be a nonnegative integer, got {value!r}")
            counts_ok = False
    if inv.b.__class__ is not int:
        bad("domain", f"b must be an integer, got {inv.b!r}")
        counts_ok = False

    if counts_ok:
        has_boundary_structure = inv.f + inv.s + inv.t > 0 or bool(inv.graph)
        if has_boundary_structure:
            if inv.b != 0:
                bad("1", f"b must be 0 when f+s+t > 0 or the graph is nonempty, got b={inv.b}")
        elif inv.eps is NONORIENTABLE:
            if inv.b not in (0, 1):
                bad("1", f"b lies in Z/2 for nonorientable closed data without fixed or "
                         f"special-exceptional circles, got b={inv.b}")
            if inv.b != 0 and any(p.m == 2 for p in inv.pairs):
                bad("1", "b must be 0 for nonorientable closed data when some m_i = 2")

    def bad_pair(condition: str, message: str) -> None:
        # the location is rendered only for a rejected pair
        bad(condition, f"pair #{idx} {pair}: {message}")

    for idx, pair in enumerate(inv.pairs):
        m, n = pair.m, pair.n
        if m.__class__ is not int or n.__class__ is not int:
            bad_pair("domain", f"m and n must be integers, got {m!r}, {n!r}")
            continue
        if m < 2 or n < 1:
            bad_pair("2", "need m >= 2 and n >= 1")
            continue
        if math.gcd(m, n) != 1:
            bad_pair("2", f"gcd(m, n) = {math.gcd(m, n)} != 1")
        if inv.eps is ORIENTABLE:
            if not n < m:
                bad_pair("2", "need 0 < n < m for orientable data")
        elif inv.eps is NONORIENTABLE:
            if not 2 * n <= m:
                bad_pair("2", "need 0 < n <= m/2 for nonorientable data")

    for gv in validate_graph(inv.graph).violations:
        bad("3", str(gv))

    if inv.eps is NONORIENTABLE and inv.g.__class__ is int and inv.g < 1:
        bad("nonorientable-genus", f"a nonorientable surface has genus >= 1, got g={inv.g}")

    if not violations:
        inv.__dict__[_ADMISSIBLE] = True
    return ValidationReport(ok=not violations, violations=tuple(violations))


def require_valid(inv: OrbitInvariants, context: str = "") -> OrbitInvariants:
    """The one gate of every operation: ``inv`` passes at once if an ok
    verdict is recorded on it, else it is validated."""
    try:
        if _ADMISSIBLE in inv.__dict__:
            return inv
    except AttributeError:
        pass  # not a datum: ``validate`` raises the TypeError
    report = validate(inv)
    if not report.ok:
        raise InvariantError(report, context)
    return inv


def normalize(inv: OrbitInvariants) -> OrbitInvariants:
    """Reduce a datum to its normalized representative.

    Three reductions are applied, each of which preserves the manifold:
    for nonorientable data every in-range pair (m, n) is replaced by
    (m, min(n, m-n)); for nonorientable closed data without fixed or
    special-exceptional circles b is reduced mod 2, and set to 0 outright
    when some m_i = 2.  Anything else (a pair with gcd > 1, a bad graph, and
    so on, including non-integer field values) is not normalizable and is
    returned unchanged so that ``validate`` still reports it.  Idempotent and
    total on data (anything else is a ``TypeError``), and returns ``inv``
    itself when no reduction changes a value, as for every admissible datum.
    """
    _require_datum(inv, "inv")
    changed = False
    pairs = inv.pairs
    if inv.eps is NONORIENTABLE:
        reduced = []
        for p in pairs:
            if p.m.__class__ is int and p.n.__class__ is int and p.n < p.m < 2 * p.n:
                p = SeifertPair(p.m, p.m - p.n)
                changed = True
            reduced.append(p)
        pairs = tuple(reduced)
    b = inv.b
    if (inv.eps is NONORIENTABLE and all(v.__class__ is int for v in (b, inv.f, inv.s, inv.t))
            and inv.f + inv.s + inv.t == 0 and not inv.graph):
        b = 0 if any(p.m.__class__ is int and p.m == 2 for p in pairs) else b % 2
        changed = changed or b != inv.b
    return _trusted(b, inv.eps, inv.g, inv.f, inv.s, inv.t, pairs, inv.graph) if changed else inv


@dataclass(frozen=True)
class DerivedCounts:
    """Counts read off the graph of an admissible datum, tied together by the
    corner identities v_f = 2(f0-f) = 2*s_p + r_p and v_s = 2(s0-s) = 2*k + r_p,
    which the forcing rule implies."""

    f0_minus_f: int
    s0_minus_s: int
    s_p: int
    k: int
    r_p: int
    v_f: int
    v_s: int
    boundary_circles: int


def derived_counts(inv: OrbitInvariants) -> DerivedCounts:
    """Edge and corner counts of an admissible datum's graph, as a report.

    Corners are counted by their type (each corner touches exactly one
    interior arc, whose label decides F-type versus SE-type).  ``validate``
    does not consult these counts: the identities follow from the forcing
    rule, and the tests check them independently.  Raises
    :class:`InvariantError` for an inadmissible datum.
    """
    require_valid(inv, "derived_counts")
    graph = inv.graph
    v_f = v_s = 0
    for cycle in graph.cycles:
        for lab in vertex_labels(cycle):
            if lab is EdgeLabel.F:
                v_f += 1
            else:
                v_s += 1
    return DerivedCounts(
        f0_minus_f=graph.edge_count(EdgeLabel.F),
        s0_minus_s=graph.edge_count(EdgeLabel.SE),
        s_p=graph.edge_count(EdgeLabel.SP),
        k=graph.edge_count(EdgeLabel.K),
        r_p=graph.edge_count(EdgeLabel.RP),
        v_f=v_f,
        v_s=v_s,
        boundary_circles=inv.boundary_circles,
    )


@dataclass(frozen=True)
class CanonicalForm:
    """Normalized, hashable fingerprint: two data are equivalent exactly when
    their forms compare equal."""

    b: int
    eps: Orientability
    g: int
    f: int
    s: int
    t: int
    pairs: tuple[SeifertPair, ...]
    graph_canon: tuple[Cycle, ...]


def canonical_form(inv: OrbitInvariants) -> CanonicalForm:
    """Normalize, then forget pair order and every cycle presentation.

    Raises :class:`InvariantError` naming the violations when the normalized
    datum is still inadmissible.
    """
    norm = require_valid(normalize(inv), "canonical_form")
    return CanonicalForm(
        b=norm.b,
        eps=norm.eps,
        g=norm.g,
        f=norm.f,
        s=norm.s,
        t=norm.t,
        pairs=tuple(sorted(norm.pairs, key=pair_mn)),
        graph_canon=norm.graph.canonical_words,
    )


def equivalent(a: OrbitInvariants, b: OrbitInvariants) -> bool:
    """Decide equivariant diffeomorphism of the two described manifolds."""
    _require_datum(a, "a")
    _require_datum(b, "b")
    return canonical_form(a) == canonical_form(b)


class Surface2d(Enum):
    """The seven compact connected 2-manifolds carrying an effective circle
    action."""

    DISK = "disk"
    CYLINDER = "cylinder"
    MOBIUS_BAND = "Mobius band"
    SPHERE = "sphere"
    PROJECTIVE_PLANE = "projective plane"
    TORUS = "torus"
    KLEIN_BOTTLE = "Klein bottle"

    def __str__(self) -> str:
        return self.value


# Keyed by (boundary circles, fixed points, special exceptional orbits).
# The boundary count of the 1-dimensional orbit space is 2 for every row
# except the torus, whose orbit space is a circle; it is determined by the
# surface type and is therefore not part of the key.
_SURFACES = {
    (1, 1, 0): Surface2d.DISK,
    (2, 0, 0): Surface2d.CYLINDER,
    (1, 0, 1): Surface2d.MOBIUS_BAND,
    (0, 2, 0): Surface2d.SPHERE,
    (0, 1, 1): Surface2d.PROJECTIVE_PLANE,
    (0, 0, 0): Surface2d.TORUS,
    (0, 0, 2): Surface2d.KLEIN_BOTTLE,
}


def classify_2d(boundary: int, fixed: int, special: int) -> Surface2d | None:
    """Classify a 2-manifold with circle action from (b, f, s) counts.

    Exactly seven triples occur:

        disk (1,1,0), cylinder (2,0,0), Mobius band (1,0,1),
        sphere (0,2,0), projective plane (0,1,1), torus (0,0,0),
        Klein bottle (0,0,2).

    Returns ``None`` for every other triple: no such manifold exists.
    """
    key = (_as_int(boundary, "boundary"), _as_int(fixed, "fixed"), _as_int(special, "special"))
    return _SURFACES.get(key)
