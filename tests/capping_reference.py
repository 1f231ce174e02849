"""The union-find surgery that ``capping`` used before its closed form, kept
unchanged as the reference the tests compare ``_cap_cycle`` against: same
circle counts, same RP pairs."""

from __future__ import annotations

from orbitinv.capping import CappingError
from orbitinv.cyclegraph import Cycle, EdgeLabel, render_cycle


def reference_cap_cycle(word: Cycle) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """Surgery on one canonical cycle word.

    Returns (new fixed circles, new special-exceptional circles, RP pairs).
    Vertex ``i`` sits between edges ``i-1`` and ``i``; edge ``i`` joins
    vertices ``i`` and ``i+1`` (mod length).
    """
    n = len(word)
    rp_positions = [i for i, lab in enumerate(word) if lab is EdgeLabel.RP]
    pairs = [(rp_positions[j], rp_positions[j + 1]) for j in range(0, len(rp_positions), 2)]

    # Edges surviving the surgery, with SP/K relabelled.
    edges: list[tuple[EdgeLabel, int, int]] = []
    for i, lab in enumerate(word):
        if lab is EdgeLabel.RP:
            continue
        if lab is EdgeLabel.SP:
            lab = EdgeLabel.F
        elif lab is EdgeLabel.K:
            lab = EdgeLabel.SE
        edges.append((lab, i, (i + 1) % n))

    def fixed_end(pos: int) -> int:
        # The end of the RP edge at ``pos`` lying on the fixed side: the
        # neighbouring interior arc there is F.
        return pos if word[(pos - 1) % n] is EdgeLabel.F else (pos + 1) % n

    def special_end(pos: int) -> int:
        return pos if word[(pos - 1) % n] is EdgeLabel.SE else (pos + 1) % n

    for a, b in pairs:
        edges.append((EdgeLabel.F, fixed_end(a), fixed_end(b)))
        edges.append((EdgeLabel.SE, special_end(a), special_end(b)))

    # Trace the circles: after the surgery every vertex joins exactly two
    # edges, and both carry the same label.
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _, u, v in edges:
        parent[find(u)] = find(v)

    component_labels: dict[int, set[EdgeLabel]] = {}
    for lab, u, _ in edges:
        component_labels.setdefault(find(u), set()).add(lab)

    new_f = new_se = 0
    for labels in component_labels.values():
        if labels == {EdgeLabel.F}:
            new_f += 1
        elif labels == {EdgeLabel.SE}:
            new_se += 1
        else:
            raise CappingError(f"surgery on {render_cycle(word)} produced a circle "
                               f"mixing {sorted(str(l) for l in labels)}")
    return new_f, new_se, tuple(pairs)
