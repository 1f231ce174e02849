"""Labelled cycle graphs recording the corner structure of an orbit surface.

When a compact 3-manifold with circle action has boundary, the boundary of
its orbit surface breaks into circles and into chains of arcs meeting at
corner points.  Each chain closes up into a cycle whose edges carry one of
five labels:

    F   arc of fixed points reaching the boundary
    SE  special-exceptional arc (isotropy Z/2 acting by reflection)
    SP  arc that is the orbit space of a 2-sphere boundary component
    K   arc that is the orbit space of a Klein-bottle boundary component
    RP  arc that is the orbit space of a projective-plane boundary component

F and SE are interior-type labels (they bound the fixed and special
exceptional sets), SP/K/RP are boundary-type labels.  Around a cycle the two
kinds alternate, and the corner between two consecutive arcs is F-type or
SE-type according to the interior arc it touches.  Every boundary arc is
forced by the two interior arcs it joins:

    F  . F   ->  SP
    SE . SE  ->  K
    F  . SE  ->  RP   (in either order)

A valid cycle is exactly an alternating word of at least two arcs whose
boundary arcs obey this rule.  Alternation makes its length even, and since
a cyclic F/SE word switches between F and SE an even number of times, it
contains an even number of RP arcs.

Cycles are unoriented and have no distinguished starting edge, so two cycles
are the same exactly when one is a rotation or a reflection of the other.
Equality of graphs is decided through canonical cycle words: the
lexicographically smallest word over all rotations of a cycle and of its
reversal, under the fixed label order F < SE < SP < K < RP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from itertools import product
from typing import Iterable, Sequence, Union


class EdgeLabel(IntEnum):
    """The five arc labels, ordered F < SE < SP < K < RP for canonical words."""

    F = 0
    SE = 1
    SP = 2
    K = 3
    RP = 4

    @property
    def interior(self) -> bool:
        """True for F and SE, the labels bounding interior strata."""
        return self in (EdgeLabel.F, EdgeLabel.SE)

    def __str__(self) -> str:
        return self.name


# Label names indexed by label value, for rendering without a call to
# ``EdgeLabel.__str__`` (an Enum descriptor lookup) per edge.
LABEL_NAMES = tuple(lab.name for lab in sorted(EdgeLabel))

LabelLike = Union[EdgeLabel, str]
Cycle = tuple[EdgeLabel, ...]


def as_label(value: LabelLike) -> EdgeLabel:
    if isinstance(value, EdgeLabel):
        return value
    try:
        return EdgeLabel[value]
    except KeyError:
        raise ValueError(f"unknown edge label {value!r}; expected one of F, SE, SP, K, RP") from None


def as_cycle(edges: Iterable[LabelLike]) -> Cycle:
    return tuple(as_label(e) for e in edges)


@dataclass(frozen=True)
class CycleGraph:
    """A finite union of labelled cycles, stored as a tuple of edge-label words.

    The tuple is a multiset: repeated cycles are allowed and order carries no
    meaning.  The empty graph is ``CycleGraph()``.
    """

    cycles: tuple[Cycle, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "cycles", tuple(as_cycle(c) for c in self.cycles))

    @classmethod
    def from_labels(cls, cycles: Iterable[Iterable[LabelLike]]) -> "CycleGraph":
        return cls(tuple(tuple(c) for c in cycles))

    @classmethod
    def _of_words(cls, cycles: tuple[Cycle, ...]) -> "CycleGraph":
        """A graph of cycles that are already tuples of ``EdgeLabel``s,
        built without ``__post_init__``'s conversion."""
        graph = object.__new__(cls)
        graph.__dict__["cycles"] = cycles
        return graph

    def __len__(self) -> int:
        return len(self.cycles)

    def __bool__(self) -> bool:
        return bool(self.cycles)

    def __iter__(self):
        return iter(self.cycles)

    def edge_count(self, label: LabelLike) -> int:
        lab = as_label(label)
        return sum(cycle.count(lab) for cycle in self.cycles)

    @cached_property
    def canonical_words(self) -> tuple[Cycle, ...]:
        """``graph_canonical(self)``, computed once per instance; not a
        field, so equality, hashing and repr ignore it."""
        return graph_canonical(self)

    @cached_property
    def canonical_text(self) -> str:
        """The canonical words rendered as ``<...>,<...>``, computed once per
        instance like ``canonical_words``."""
        return ",".join(map(_render_word, self.canonical_words))


EMPTY_GRAPH = CycleGraph()


@dataclass(frozen=True)
class GraphViolation:
    """One break of the cycle rule, located by cycle and edge position."""

    cycle: int
    position: int | None
    message: str

    def __str__(self) -> str:
        where = f"cycle {self.cycle}"
        if self.position is not None:
            where += f", edge {self.position}"
        return f"{where}: {self.message}"


@dataclass(frozen=True)
class GraphReport:
    ok: bool
    violations: tuple[GraphViolation, ...] = field(default=())

    def __bool__(self) -> bool:
        return self.ok


# The boundary arc between two consecutive interior arcs, indexed by their
# label values: F.F -> SP, SE.SE -> K, mixed -> RP.
_FORCED = ((EdgeLabel.SP, EdgeLabel.RP), (EdgeLabel.RP, EdgeLabel.K))


def validate_graph(graph: CycleGraph) -> GraphReport:
    """Check every cycle of ``graph`` against the forcing rule.

    Returns a report rather than raising: violations are data.  Each
    violation names the offending cycle and, for cycles of at least two
    edges, the edge position inside it.
    """
    violations: list[GraphViolation] = []
    for ci, cycle in enumerate(graph.cycles):
        n = len(cycle)
        if n < 2:
            violations.append(GraphViolation(
                ci, None, f"cycle has {n} edge(s); at least 2 are required"))
            continue
        left = cycle[-1]
        for i, lab in enumerate(cycle):
            right = cycle[i + 1] if i + 1 < n else cycle[0]
            # Label values below 2 are the interior arcs F and SE.
            if (lab < 2) is (right < 2):
                violations.append(GraphViolation(
                    ci, i, f"{lab.name} arc next to {right.name}; interior (F, SE) and "
                           "boundary (SP, K, RP) arcs must alternate"))
            elif left < 2 and lab > 1 and lab is not _FORCED[left][right]:
                violations.append(GraphViolation(
                    ci, i, f"{lab.name} arc between {left.name} and {right.name}; "
                           f"only {_FORCED[left][right].name} may join them"))
            left = lab
    return GraphReport(ok=not violations, violations=tuple(violations))


def valid_cycle_words(max_len: int) -> tuple[Cycle, ...]:
    """All canonical words of admissible cycles with at most ``max_len`` edges.

    By the forcing rule the valid cycles with 2k edges are exactly the binary
    F/SE words of length k with their boundary arcs filled in.
    """
    from .invariants import _as_int  # invariants imports this module

    found = set()
    for k in range(1, _as_int(max_len, "max_len") // 2 + 1):
        for interior in product((EdgeLabel.F, EdgeLabel.SE), repeat=k):
            word = []
            for i, lab in enumerate(interior):
                word += (lab, _FORCED[lab][interior[(i + 1) % k]])
            found.add(canonicalize_cycle(word))
    return tuple(sorted(found))


def _least_rotation(word: bytes) -> int:
    """Start of the lexicographically least rotation of ``word``.

    Two-pointer scan: ``i < j`` are the two best candidate starts and ``k``
    the length of their common prefix.  At the first mismatch the larger
    candidate, together with the next ``k`` starts after it, cannot begin a
    least rotation, so it jumps past them; the scan ends when ``j`` runs off
    the word or the prefix covers it.  Each step advances ``i + j + k``,
    which stays below ``3n``: O(n) comparisons.
    """
    n = len(word)
    doubled = word + word
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        elif i > j:
            i, j = j, i
        k = 0
    return i


def canonicalize_cycle(cycle: Sequence[LabelLike]) -> Cycle:
    """Smallest word over all rotations of the cycle and of its reversal.

    The comparison uses the label order F < SE < SP < K < RP, so canonical
    words of valid cycles always start with an interior arc.  The two-pointer
    minimum-rotation scan (``_least_rotation``), run once on the word and
    once on its reversal, finds the two candidates in O(n) time, so the
    whole call is linear in the cycle length; the 2n rotations are never
    built.
    """
    return _canonical_word(as_cycle(cycle))


def _canonical_word(word: Cycle) -> Cycle:
    """``canonicalize_cycle`` of a word already made of ``EdgeLabel``s."""
    reverse = word[::-1]
    forward, backward = bytes(word), bytes(reverse)
    i, j = _least_rotation(forward), _least_rotation(backward)
    if forward[i:] + forward[:i] <= backward[j:] + backward[:j]:
        return word[i:] + word[:i]
    return reverse[j:] + reverse[:j]


def graph_canonical(graph: CycleGraph) -> tuple[Cycle, ...]:
    """Sorted multiset of canonical cycle words; the graph's fingerprint."""
    return tuple(sorted(map(_canonical_word, graph.cycles)))


def graphs_isomorphic(a: CycleGraph, b: CycleGraph) -> bool:
    """True when the two graphs agree up to relabelling cycles and rotating or
    reflecting each cycle."""
    return graph_canonical(a) == graph_canonical(b)


def vertex_labels(cycle: Sequence[LabelLike]) -> tuple[EdgeLabel, ...]:
    """Type of each corner of a valid cycle, as the interior label it touches.

    Corner ``i`` sits between edges ``i-1`` and ``i``; exactly one of these
    is interior-type, and that label (F or SE) is the corner's type.  Raises
    ``ValueError`` when a corner joins zero or two interior arcs, since the
    typing is then ambiguous.
    """
    word = as_cycle(cycle)
    n = len(word)
    out = []
    for i in range(n):
        incident = [lab for lab in (word[(i - 1) % n], word[i]) if lab.interior]
        if len(incident) != 1:
            raise ValueError(f"corner {i} joins arcs {word[(i - 1) % n]} and {word[i]}; "
                             "its type is not determined")
        out.append(incident[0])
    return tuple(out)


def render_cycle(cycle: Sequence[LabelLike]) -> str:
    return _render_word(as_cycle(cycle))


def _render_word(word: Cycle) -> str:
    """``render_cycle`` of a word already made of ``EdgeLabel``s."""
    return "<" + ",".join(map(LABEL_NAMES.__getitem__, word)) + ">"
