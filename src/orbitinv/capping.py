"""Equivariant capping of boundary components, tracked on the invariant level.

Each boundary type has a standard equivariant filling: a solid torus for a
torus boundary, a ball for a sphere, a twisted solid torus for a Klein
bottle, and one band (projective plane x interval) glued between a *pair* of
projective-plane boundaries.  On the orbit surface this becomes:

  * every torus boundary circle is filled with a disk (Euler characteristic
    goes up by 1);
  * in each cycle of the graph, SP arcs become F arcs and K arcs become SE
    arcs, and the corners at their ends are smoothed;
  * RP arcs are sewn in pairs: the two arcs disappear, a new F arc joins
    their F-type corners and a new SE arc joins their SE-type corners (the
    band's orbit square has one fixed side and one special-exceptional
    side), costing 1 in Euler characteristic per pair.

Afterwards every former cycle has fallen apart into circles consisting
purely of F arcs or purely of SE arcs; these become new fixed and
special-exceptional circles of a closed datum with b = 0.  The genus of the
resulting orbit surface is recovered from the Euler characteristic.

The pairing of RP arcs is a genuine choice (different pairings can produce
inequivalent closed manifolds); this module always pairs consecutive RP arcs
in the canonical traversal of each cycle and records the choice in the
report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclegraph import Cycle, EdgeLabel, graph_canonical, render_cycle
from .invariants import (
    NONORIENTABLE,
    ORIENTABLE,
    EMPTY_GRAPH,
    OrbitInvariants,
    require_valid,
    validate,
)


class CappingError(ValueError):
    pass


@dataclass(frozen=True)
class CappingReport:
    """Input and output data plus the bookkeeping of one capping run.

    ``rp_pairings`` lists, per sewn pair, the cycle index (into the
    canonicalized input graph) and the two edge positions in that cycle's
    canonical word.  ``chi_before``/``chi_after`` are orbit-surface Euler
    characteristics and always satisfy

        chi_after = chi_before + t - r_p/2.
    """

    input: OrbitInvariants
    output: OrbitInvariants
    chi_before: int
    chi_after: int
    rp_pairings: tuple[tuple[int, tuple[int, int]], ...]
    notes: tuple[str, ...]


def orbit_euler_characteristic(inv: OrbitInvariants) -> int:
    """Euler characteristic of the orbit surface.

    With B boundary components in total (fixed and special-exceptional
    circles, torus boundary circles, and one per graph cycle) the surface
    has chi = 2 - 2g - B when orientable and chi = 2 - g - B when not.
    """
    require_valid(inv, "orbit_euler_characteristic")
    return _chi(inv)


def _chi(inv: OrbitInvariants) -> int:
    B = inv.boundary_circles
    if inv.eps is ORIENTABLE:
        return 2 - 2 * inv.g - B
    return 2 - inv.g - B


def _cap_cycle(word: Cycle) -> tuple[int, int, tuple[tuple[int, int], ...]]:
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


def cap_off(inv: OrbitInvariants) -> CappingReport:
    """Fill every boundary component of a with-boundary datum.

    The result is a closed datum with b = 0 and the same exceptional pairs;
    deterministic, including the recorded RP pairing.  Raises
    :class:`CappingError` on closed input.
    """
    require_valid(inv, "cap_off")
    if inv.closed:
        raise CappingError("datum is already closed: nothing to cap")

    chi_before = _chi(inv)
    notes: list[str] = []
    if inv.t:
        notes.append(f"filled {inv.t} torus boundary circle(s) with solid tori")

    words = graph_canonical(inv.graph)
    new_f = new_se = 0
    rp_total = 0
    pairings: list[tuple[int, tuple[int, int]]] = []
    for ci, word in enumerate(words):
        cf, cse, pairs = _cap_cycle(word)
        new_f += cf
        new_se += cse
        rp_total += 2 * len(pairs)
        shown = render_cycle(word)
        for pair in pairs:
            pairings.append((ci, pair))
            notes.append(f"cycle {ci} {shown}: sewed RP arcs at "
                         f"positions {pair[0]} and {pair[1]} into one F and one SE arc")
        made = []
        if cf:
            made.append(f"{cf} fixed circle(s)")
        if cse:
            made.append(f"{cse} special-exceptional circle(s)")
        notes.append(f"cycle {ci} {shown} closed up into " + " and ".join(made))

    chi_after = chi_before + inv.t - rp_total // 2
    f_out = inv.f + new_f
    s_out = inv.s + new_se
    boundary_out = f_out + s_out

    eps_out = inv.eps
    if inv.eps is ORIENTABLE:
        twice_genus = 2 - boundary_out - chi_after
        if twice_genus >= 0 and twice_genus % 2 == 0:
            g_out = twice_genus // 2
        else:
            # No orientable surface fits the bookkeeping; realize the capped
            # manifold over a nonorientable surface instead.
            eps_out = NONORIENTABLE
            g_out = 2 - boundary_out - chi_after
            notes.append("orientable genus equation had no solution; "
                         "result realized over a nonorientable orbit surface")
    else:
        g_out = 2 - boundary_out - chi_after
    if g_out < 0 or (eps_out is NONORIENTABLE and g_out < 1):
        raise CappingError(f"no admissible genus for chi={chi_after} with "
                           f"{boundary_out} boundary circles")

    if pairings:
        notes.append("orientability kept as on the input; sewing projective-plane "
                     "bands admits other realizations")
    notes.append("obstruction b stays 0; no twisted refilling of a torus boundary needed")

    output = inv.replace(b=0, eps=eps_out, g=g_out, f=f_out, s=s_out, t=0, graph=EMPTY_GRAPH)
    report = CappingReport(
        input=inv,
        output=output,
        chi_before=chi_before,
        chi_after=chi_after,
        rp_pairings=tuple(pairings),
        notes=tuple(notes),
    )
    if not _verify_output(report):
        raise CappingError("internal consistency failure: capping result does not verify")
    return report


def verify_capping(report: CappingReport) -> bool:
    """Recheck a report from scratch: the output must be an admissible closed
    datum with b = 0 and the Euler characteristics must satisfy
    chi_after = chi_before + t - r_p/2."""
    return validate(report.input).ok and _verify_output(report)


def _verify_output(report: CappingReport) -> bool:
    """``verify_capping`` for a report whose input is known admissible."""
    out = report.output
    if not validate(out).ok:
        return False
    if out.t != 0 or out.graph or out.b != 0:
        return False
    if report.chi_before != _chi(report.input) or report.chi_after != _chi(out):
        return False
    r_p = report.input.graph.edge_count(EdgeLabel.RP)
    return report.chi_after == report.chi_before + report.input.t - r_p // 2
