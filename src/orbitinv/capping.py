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
special-exceptional circles of a closed datum with b = 0.

The pairing of RP arcs is a genuine choice (different pairings can produce
inequivalent closed manifolds); this module always pairs consecutive RP arcs
in the canonical traversal of each cycle and records the choice in the
report.  With that pairing the surgery has a closed form.  A canonical word
with RP arcs starts at a maximal F run and ends on an RP arc, so it reads
F run, RP, SE run, RP, F run, ...: each sewn pair encloses exactly one SE
run, which closes into a special-exceptional circle, and all F runs join
into one fixed circle.  A cycle with 2k > 0 RP arcs thus closes into 1 fixed
and k special-exceptional circles, and a cycle without RP arcs into one
circle of its own type.  The new circles number the cycles plus k, so the
Euler characteristic changes by t - k exactly as for an orbit surface of
the same genus and orientability: capping preserves g and eps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclegraph import Cycle, EdgeLabel, _render_word
from .invariants import ORIENTABLE, EMPTY_GRAPH, OrbitInvariants, _trusted, require_valid, validate


class CappingError(ValueError):
    pass


class _Notes(tuple):
    """The notes of a report :func:`cap_off` builds.

    Invariant: every character of every note is printable ASCII other than
    ``"`` and ``\\``, since a note is made only of fixed ASCII text, edge
    label names and ``int``s; so ``jsonio`` writes them without escaping.
    Equality, hashing, ``repr``, pickle and copy are the tuple's."""

    __slots__ = ()


@dataclass(frozen=True)
class CappingReport:
    """Input and output data plus the bookkeeping of one capping run.

    ``rp_pairings`` lists, per sewn pair, the cycle index (into the
    canonicalized input graph) and the two edge positions in that cycle's
    canonical word.  ``chi_before``/``chi_after`` are orbit-surface Euler
    characteristics and always satisfy

        chi_after = chi_before + t - r_p/2.

    ``notes`` is a ``tuple``; the one :func:`cap_off` returns is a private
    subclass that marks its text as needing no JSON escapes, and a report
    built or ``replace``d with any other sequence of notes is encoded the
    general way.
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
    B = inv.boundary_circles
    if inv.eps is ORIENTABLE:
        return 2 - 2 * inv.g - B
    return 2 - inv.g - B


def _cap_cycle(word: Cycle) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """Surgery on one canonical cycle word, in closed form.

    Returns (new fixed circles, new special-exceptional circles, RP pairs),
    the pairs as edge positions of consecutive RP arcs in ``word``.
    """
    rp = [i for i, lab in enumerate(word) if lab is EdgeLabel.RP]
    if rp:
        return 1, len(rp) // 2, tuple(zip(rp[::2], rp[1::2]))
    return (1, 0, ()) if word[0] is EdgeLabel.F else (0, 1, ())


def cap_off(inv: OrbitInvariants) -> CappingReport:
    """Fill every boundary component of a with-boundary datum.

    The result is a closed datum with b = 0, the same genus, orientability
    and exceptional pairs, and the new circles of the closed form in the
    module docstring: each cycle with 2k > 0 RP arcs adds 1 fixed and k
    special-exceptional circles, each other cycle one circle of its own
    type.  The output carries an ok verdict, as it is admissible by
    construction (:func:`verify_capping` rechecks it in full).
    Deterministic, including the recorded RP pairing.  Raises
    :class:`CappingError` on closed input.
    """
    require_valid(inv, "cap_off")
    if inv.closed:
        raise CappingError("datum is already closed: nothing to cap")

    notes: list[str] = []
    if inv.t:
        notes.append(f"filled {inv.t} torus boundary circle(s) with solid tori")

    new_f = new_se = 0
    pairings: list[tuple[int, tuple[int, int]]] = []
    for ci, word in enumerate(inv.graph.canonical_words):
        cf, cse, pairs = _cap_cycle(word)
        new_f += cf
        new_se += cse
        shown = _render_word(word)
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

    if pairings:
        notes.append("orientability kept as on the input; sewing projective-plane "
                     "bands admits other realizations")
    notes.append("obstruction b stays 0; no twisted refilling of a torus boundary needed")

    chi_before = orbit_euler_characteristic(inv)
    return CappingReport(
        input=inv,
        output=_trusted(0, inv.eps, inv.g, inv.f + new_f, inv.s + new_se, 0, inv.pairs,
                        EMPTY_GRAPH, admissible=True),
        chi_before=chi_before,
        chi_after=chi_before + inv.t - len(pairings),
        rp_pairings=tuple(pairings),
        notes=_Notes(notes),
    )


def verify_capping(report: CappingReport) -> bool:
    """Recheck a report from scratch: the output must be an admissible closed
    datum with b = 0 and the input's exceptional pairs, one RP pairing must
    be recorded per two RP arcs, and the Euler characteristics must satisfy
    chi_after = chi_before + t - r_p/2."""
    inp, out = report.input, report.output
    if not (validate(inp).ok and validate(out).ok):
        return False
    if out.t != 0 or out.graph or out.b != 0 or out.pairs != inp.pairs:
        return False
    if (report.chi_before != orbit_euler_characteristic(inp)
            or report.chi_after != orbit_euler_characteristic(out)):
        return False
    r_p = inp.graph.edge_count(EdgeLabel.RP)
    return (len(report.rp_pairings) == r_p // 2
            and report.chi_after == report.chi_before + inp.t - r_p // 2)
