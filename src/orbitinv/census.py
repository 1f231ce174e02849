"""Bounded enumeration of admissible data, one per equivalence class.

Every admissible datum inside the bounds is produced exactly once up to
equivalence, in a deterministic order: orientable before nonorientable, then
increasing genus, circle counts, graphs, pair multisets, and obstruction.
The stream is admissible and distinct by construction: nonorientable
surfaces start at genus 1, pairs and cycle words are generated in their
normalized, sorted form, and the obstruction ranges only over the values
condition (1) allows in each stratum.  No candidate is validated, compared
or remembered, so memory does not grow with the stream.

Each datum is built from parts already in their field types, without the
public constructor's coercions, and carries an ok admissibility verdict
from birth: operations on it run no ``validate`` (see
``invariants.require_valid``).  It carries its text from birth as well,
which ``textio.serialize`` returns: the head, pair and graph segments of
the notation are rendered once per stratum, pair multiset and graph by
``textio``'s renderers, and each datum joins b and the three through
``textio``'s template.  Parsed, user-built and ``replace``d data carry
neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterator

from .cyclegraph import CycleGraph, valid_cycle_words
from .invariants import (NONORIENTABLE, ORIENTABLE, OrbitInvariants, SeifertPair, _integer,
                         _require, _trusted)


@dataclass(frozen=True)
class EnumerationBounds:
    """Finite search box; every field of 0 switches that feature off."""

    max_g: int = 0
    max_f: int = 0
    max_s: int = 0
    max_t: int = 0
    max_r: int = 0
    max_m: int = 0
    max_cycles: int = 0
    max_cycle_len: int = 0
    b_range: tuple[int, int] = (0, 0)

    def __post_init__(self) -> None:
        for name in ("max_g", "max_f", "max_s", "max_t", "max_r", "max_m",
                     "max_cycles", "max_cycle_len"):
            value = _integer(getattr(self, name))
            if value.__class__ is not int or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
            object.__setattr__(self, name, value)
        try:
            lo, hi = map(_integer, self.b_range)
        except (TypeError, ValueError):
            lo = hi = None
        if lo.__class__ is not int or hi.__class__ is not int:
            raise ValueError(f"b_range must be a pair of integers, got {self.b_range!r}")
        if lo > hi:
            raise ValueError(f"empty b_range {self.b_range}")
        object.__setattr__(self, "b_range", (lo, hi))


def _graphs(bounds: EnumerationBounds) -> list[CycleGraph]:
    # the words are canonical and sorted, so each multiset drawn from them in
    # order is its graph's canonical words
    words = valid_cycle_words(bounds.max_cycle_len) if bounds.max_cycles else ()
    graphs = [CycleGraph()]
    for count in range(1, bounds.max_cycles + 1):
        for combo in combinations_with_replacement(words, count):
            graphs.append(CycleGraph._of_canonical_words(combo))
    return graphs


def _pairs_for(eps, bounds: EnumerationBounds) -> list[tuple[SeifertPair, ...]]:
    singles = []
    for m in range(2, bounds.max_m + 1):
        top = m - 1 if eps is ORIENTABLE else m // 2
        for n in range(1, top + 1):
            if math.gcd(m, n) == 1:
                singles.append(SeifertPair(m, n))
    multisets: list[tuple[SeifertPair, ...]] = [()]
    for count in range(1, bounds.max_r + 1):
        multisets.extend(combinations_with_replacement(singles, count))
    return multisets


def enumerate_invariants(bounds: EnumerationBounds) -> Iterator[OrbitInvariants]:
    """Stream the census in a deterministic order, one datum per equivalence
    class.

    Every datum is admissible and distinct by construction: pair multisets
    are sorted and normalized, graphs are sorted multisets of canonical
    words, and b is restricted per stratum, so each candidate is already its
    own canonical form.  Anything but an :class:`EnumerationBounds` is a
    ``TypeError`` naming ``bounds``, raised when the stream is first read.
    """
    # loaded on the first read of the stream, so that importing the census
    # or building its bounds loads no notation
    from .textio import _TEMPLATE, _graph_segment, _head, _pairs_segment

    try:
        graphs = [(graph, _graph_segment(graph)) for graph in _graphs(bounds)]
        lo, hi = bounds.b_range
    except AttributeError:
        _require(bounds, EnumerationBounds, "bounds")
        raise
    for eps in (ORIENTABLE, NONORIENTABLE):
        pair_multisets = [(pairs, _pairs_segment(pairs)) for pairs in _pairs_for(eps, bounds)]
        for g in range(0 if eps is ORIENTABLE else 1, bounds.max_g + 1):
            for f in range(0, bounds.max_f + 1):
                for s in range(0, bounds.max_s + 1):
                    for t in range(0, bounds.max_t + 1):
                        head = _head(eps, g, f, s, t)
                        for graph, graph_text in graphs:
                            for pairs, pairs_text in pair_multisets:
                                if f + s + t > 0 or graph:
                                    bs = (0,)
                                elif eps is NONORIENTABLE:
                                    limit = (0,) if any(p.m == 2 for p in pairs) else (0, 1)
                                    bs = tuple(b for b in limit if lo <= b <= hi)
                                else:
                                    bs = tuple(range(lo, hi + 1))
                                for b in bs:
                                    text = _TEMPLATE % (b, head, pairs_text, graph_text)
                                    yield _trusted(b, eps, g, f, s, t, pairs, graph,
                                                   admissible=True, text=text)
