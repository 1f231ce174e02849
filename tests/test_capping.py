"""Capping-off: Euler bookkeeping, surgery on cycles, verification."""

import copy
import dataclasses
import hashlib
import json
import pickle
import re
import sys

import pytest
from hypothesis import given, strategies as st

import orbitinv.invariants
from orbitinv import (
    CappingError,
    CappingReport,
    EdgeLabel,
    EnumerationBounds,
    EquivariantCohomology,
    InvariantError,
    OrbitInvariants,
    betti,
    canonical_form,
    cap_off,
    canonicalize_cycle,
    emit_json,
    enumerate_invariants,
    equivariant_poincare,
    euler_number,
    fixed_set_shape,
    is_formal,
    normalize,
    orbit_euler_characteristic,
    orbit_space_poincare,
    parse,
    serialize,
    verify_capping,
)
from orbitinv.capping import _Notes, _cap_cycle

from capping_reference import reference_cap_cycle
from json_reference import to_jsonable
from datum_helper import datum
from test_cyclegraph import forced_cycle


WITH_BOUNDARY_BOUNDS = EnumerationBounds(max_g=2, max_f=1, max_s=1, max_t=2,
                                         max_r=1, max_m=3, max_cycles=2, max_cycle_len=6)
CENSUS = list(enumerate_invariants(WITH_BOUNDARY_BOUNDS))
# every edge label, torus boundaries, pairs and two sewn RP pairs
CAP_INPUT = ("{b=0;(n,g=1,f=0,s=1,t=1);(3,1),(5,2);"
             "G=[<F,SP>,<F,RP,SE,K,SE,RP,F,SP>,<SE,K,SE,K>,<F,RP,SE,RP>]}")
# test_census's 8,910-datum box
CENSUS_BOX = EnumerationBounds(max_g=1, max_f=1, max_s=1, max_t=1, max_r=2, max_m=4,
                               max_cycles=2, max_cycle_len=4, b_range=(-2, 2))


class TestEulerCharacteristic:
    def test_disk_like_orbit_space(self):
        assert orbit_euler_characteristic(datum(t=1)) == 1

    def test_orientable_genus_one_two_circles(self):
        assert orbit_euler_characteristic(datum(g=1, f=2)) == -2

    def test_nonorientable_with_cycle(self):
        assert orbit_euler_characteristic(datum(eps="n", g=1, graph=[["F", "SP"]])) == 0


class TestCapOff:
    def test_single_torus_boundary(self):
        rep = cap_off(datum(t=1))
        assert rep.output == datum()
        assert (rep.chi_before, rep.chi_after) == (1, 2)

    def test_sphere_boundary_cycle_becomes_fixed_circle(self):
        rep = cap_off(datum(graph=[["F", "SP"]]))
        assert rep.output == datum(f=1)
        assert (rep.chi_before, rep.chi_after) == (1, 1)

    def test_rp_pair_sewing(self):
        rep = cap_off(datum(graph=[["F", "RP", "SE", "RP"]]))
        assert rep.output == datum(f=1, s=1)
        assert (rep.chi_before, rep.chi_after) == (1, 0)
        assert rep.rp_pairings == ((0, (1, 3)),)

    def test_klein_boundary_cycle_becomes_special_circle(self):
        rep = cap_off(datum(graph=[["SE", "K"]]))
        assert rep.output == datum(s=1)

    def test_pairs_carried_over(self):
        rep = cap_off(datum(t=2, g=1, pairs=[(5, 2), (3, 1)]))
        assert rep.output.pairs == (rep.input.pairs)
        assert rep.output.g == 1

    def test_closed_input_rejected(self):
        with pytest.raises(CappingError, match="closed"):
            cap_off(datum(f=1))

    def test_deterministic_including_pairings(self):
        inv = datum(graph=[["F", "RP", "SE", "RP", "F", "RP", "SE", "RP"],
                           ["F", "SP"]], t=1)
        assert cap_off(inv) == cap_off(inv)

    def test_four_rp_cycle_consecutive_pairing(self):
        # canonical word <F,RP,SE,RP,F,RP,SE,RP>: pairs (1,3) and (5,7); each
        # sewing splits off one circle, so 1 F circle and 2 SE circles appear
        rep = cap_off(datum(graph=[["F", "RP", "SE", "RP", "F", "RP", "SE", "RP"]]))
        assert rep.output.f == 1 and rep.output.s == 2
        assert rep.rp_pairings == ((0, (1, 3)), (0, (5, 7)))
        assert rep.chi_after == rep.chi_before - 2
        word = "<F,RP,SE,RP,F,RP,SE,RP>"
        assert rep.notes == (
            f"cycle 0 {word}: sewed RP arcs at positions 1 and 3 into one F and one SE arc",
            f"cycle 0 {word}: sewed RP arcs at positions 5 and 7 into one F and one SE arc",
            f"cycle 0 {word} closed up into 1 fixed circle(s) and "
            "2 special-exceptional circle(s)",
            "orientability kept as on the input; sewing projective-plane bands admits "
            "other realizations",
            "obstruction b stays 0; no twisted refilling of a torus boundary needed",
        )

    def test_notes_with_tori_and_two_cycles(self):
        rep = cap_off(datum(eps="n", g=1, f=1, t=2, pairs=[(5, 2)],
                            graph=[["SE", "RP", "F", "SP", "F", "RP"], ["K", "SE"]]))
        assert rep.output == datum(eps="n", g=1, f=2, s=2, pairs=[(5, 2)])
        assert rep.rp_pairings == ((0, (3, 5)),)
        assert (rep.chi_before, rep.chi_after) == (-4, -3)
        assert rep.notes == (
            "filled 2 torus boundary circle(s) with solid tori",
            "cycle 0 <F,SP,F,RP,SE,RP>: sewed RP arcs at positions 3 and 5 into one F "
            "and one SE arc",
            "cycle 0 <F,SP,F,RP,SE,RP> closed up into 1 fixed circle(s) and "
            "1 special-exceptional circle(s)",
            "cycle 1 <SE,K> closed up into 1 special-exceptional circle(s)",
            "orientability kept as on the input; sewing projective-plane bands admits "
            "other realizations",
            "obstruction b stays 0; no twisted refilling of a torus boundary needed",
        )


class TestVerifyCapping:
    def test_accepts_every_produced_report(self):
        rep = cap_off(datum(t=1, graph=[["F", "SP"]]))
        assert verify_capping(rep)

    def test_rejects_tampered_genus(self):
        rep = cap_off(datum(t=1))
        tampered = dataclasses.replace(rep, output=rep.output.replace(g=rep.output.g + 1))
        assert not verify_capping(tampered)

    def test_rejects_chi_off_by_one(self):
        rep = cap_off(datum(t=1))
        tampered = dataclasses.replace(rep, chi_after=rep.chi_after + 1)
        assert not verify_capping(tampered)

    def test_rejects_changed_seifert_pairs(self):
        rep = cap_off(datum(t=1))
        tampered = dataclasses.replace(rep, output=rep.output.replace(pairs=[(5, 2)]))
        assert not verify_capping(tampered)

    def test_rejects_missing_rp_pairings(self):
        rep = cap_off(datum(graph=[["F", "RP", "SE", "RP"]]))
        assert verify_capping(rep)
        assert not verify_capping(dataclasses.replace(rep, rp_pairings=()))

    def test_rejects_leftover_boundary(self):
        rep = cap_off(datum(t=1))
        tampered = dataclasses.replace(rep, output=rep.output.replace(t=1))
        assert not verify_capping(tampered)


class TestCappingAcrossCensus:
    def test_output_always_closed_valid_with_chi_identity(self):
        count = 0
        for inv in CENSUS:
            if inv.closed:
                continue
            count += 1
            rep = cap_off(inv)
            assert verify_capping(rep)
            expected_chi = rep.chi_before + inv.t - inv.graph.edge_count(EdgeLabel.RP) // 2
            assert rep.chi_after == expected_chi
        assert count > 100

    def test_new_circle_bookkeeping_matches_notes(self):
        pattern = re.compile(r"closed up into (?:(\d+) fixed circle)?"
                             r"(?:.*?(\d+) special-exceptional circle)?")
        for inv in CENSUS:
            if inv.closed or not inv.graph:
                continue
            rep = cap_off(inv)
            got_f = got_s = 0
            for note in rep.notes:
                match = pattern.search(note)
                if match and "closed up into" in note:
                    got_f += int(match.group(1) or 0)
                    got_s += int(match.group(2) or 0)
            assert got_f == rep.output.f - inv.f
            assert got_s == rep.output.s - inv.s

    def test_cycles_without_rp_yield_exactly_one_circle(self):
        for inv in CENSUS:
            if inv.closed:
                continue
            if any(EdgeLabel.RP in cycle for cycle in inv.graph.cycles):
                continue
            rep = cap_off(inv)
            made = (rep.output.f - inv.f) + (rep.output.s - inv.s)
            assert made == len(inv.graph)

    def test_genus_and_orientability_are_preserved(self):
        # the closed form adds the cycles plus r_p/2 new circles, which is
        # what chi_after = chi_before + t - r_p/2 asks at the same g and eps
        for inv in CENSUS:
            if inv.closed:
                continue
            rep = cap_off(inv)
            assert rep.output.eps == inv.eps
            assert rep.output.g == inv.g


def assert_written_as_json_dumps(report):
    """The notes ``cap_off`` built are written without escaping by
    ``emit_json``: the bytes must still be those of ``json.dumps``."""
    assert report.notes.__class__ is _Notes
    assert emit_json(report) == json.dumps(to_jsonable(report))
    assert json.dumps(list(report.notes)) == '["' + '", "'.join(report.notes) + '"]'


class TestClosedForm:
    @given(st.lists(st.sampled_from([EdgeLabel.F, EdgeLabel.SE]), min_size=1, max_size=32))
    def test_matches_union_find_surgery(self, interior):
        word = canonicalize_cycle(forced_cycle(interior))
        assert _cap_cycle(word) == reference_cap_cycle(word)

    def test_report_stream_pinned(self):
        # emit_json(cap_off(.)) over the with-boundary data of test_census's
        # 8,910 box, digest taken from the union-find surgery
        digest = hashlib.sha256()
        count = 0
        for inv in enumerate_invariants(CENSUS_BOX):
            if inv.closed:
                continue
            report = cap_off(inv)
            assert_written_as_json_dumps(report)
            digest.update((emit_json(report) + "\n").encode())
            count += 1
        assert count == 8528
        assert digest.hexdigest() == (
            "88083355a06496e8c38e45f12af59cf0feb1c797d2ffb5989f759a38bc65e202")


class TestNotesJson:
    """``emit_json`` writes the notes ``cap_off`` builds in one join, without
    escaping them.  That is sound only while no note holds a character JSON
    escapes, which nothing checks at run time; these tests hold it."""

    @given(cycles=st.lists(st.lists(st.sampled_from([EdgeLabel.F, EdgeLabel.SE]),
                                    min_size=1, max_size=32), min_size=1, max_size=3),
           eps=st.sampled_from("on"), t=st.integers(0, 3),
           pairs=st.lists(st.sampled_from([(2, 1), (3, 1), (3, 2), (5, 2), (7, 3)]),
                          max_size=3))
    def test_forced_cycles(self, cycles, eps, t, pairs):
        inv = OrbitInvariants(b=0, eps=eps, g=1, f=0, s=0, t=t, pairs=pairs,
                              graph=[forced_cycle(interior) for interior in cycles])
        assert_written_as_json_dumps(cap_off(normalize(inv)))

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 250])
    def test_repeated_rp_cycle(self, k):
        word = ",".join(["F,RP,SE,RP"] * k)
        report = cap_off(parse(f"{{b=0;(o,g=0,f=0,s=0,t=1);(3,1);G=[<{word}>]}}"))
        assert len(report.rp_pairings) == k
        assert_written_as_json_dumps(report)

    @pytest.mark.parametrize("note", ['"', "\\", "\n", "\x7f", "\u00e9", "\U0001F600",
                                      'say "\\u00e9"\t\u00e9\U0001F600'])
    def test_other_notes_escaped_as_json_dumps(self, note):
        report = cap_off(parse(CAP_INPUT))
        others = [
            dataclasses.replace(report, notes=(note,)),
            dataclasses.replace(report, notes=(*report.notes, note)),
            CappingReport(report.input, report.output, report.chi_before, report.chi_after,
                          report.rp_pairings, [note, "x"]),
        ]
        for other in others:
            assert emit_json(other) == json.dumps(to_jsonable(other))
            assert json.loads(emit_json(other))["notes"] == list(other.notes)
        nested = {"cap": others[0], "notes": others[0].notes}
        assert emit_json(nested) == json.dumps(to_jsonable(nested))

    def test_empty_notes(self):
        report = cap_off(parse(CAP_INPUT))
        for notes in (_Notes(), ()):
            empty = dataclasses.replace(report, notes=notes)
            assert emit_json(empty) == json.dumps(to_jsonable(empty))
            assert emit_json(empty).endswith(', "notes": []}')

    def test_notes_behave_as_the_tuple(self):
        report = cap_off(parse(CAP_INPUT))
        notes, plain = report.notes, tuple(report.notes)
        assert isinstance(notes, tuple)
        assert notes == plain and plain == notes and hash(notes) == hash(plain)
        assert repr(notes) == repr(plain)
        for clone in (pickle.loads(pickle.dumps(notes)), copy.copy(notes), copy.deepcopy(notes)):
            assert clone == plain and hash(clone) == hash(plain) and repr(clone) == repr(plain)
        for clone in (pickle.loads(pickle.dumps(report)), copy.copy(report),
                      copy.deepcopy(report), dataclasses.replace(report, notes=plain)):
            assert clone == report and hash(clone) == hash(report)
            assert emit_json(clone) == emit_json(report)


class TestValidateOncePerEntryPoint:
    """Each public operation decides admissibility once, and an ok verdict
    is recorded on the instance: later operations on it validate nothing.
    A capping result carries a verdict from birth, and ``replace`` starts
    without one."""

    @pytest.fixture
    def validations(self, monkeypatch):
        real = orbitinv.invariants.validate
        calls = []

        def counting(inv):
            calls.append(inv)
            return real(inv)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "orbitinv" and getattr(module, "validate", None) is real:
                monkeypatch.setattr(module, "validate", counting)
        return calls

    @pytest.mark.parametrize("operation, inv, expected", [
        (cap_off, datum(t=1, graph=[["F", "RP", "SE", "RP"], ["F", "SP"]]), 1),
        (equivariant_poincare, datum(f=1, graph=[["F", "SP"]]), 1),
        (lambda inv: betti(inv, 3), datum(g=1, f=2), 1),
        (is_formal, datum(g=1, f=2), 1),
        (is_formal, datum(f=2), 1),
    ])
    def test_call_counts(self, validations, operation, inv, expected):
        operation(inv)
        assert len(validations) == expected

    @pytest.mark.parametrize("operation", [
        orbit_euler_characteristic, fixed_set_shape, orbit_space_poincare,
        equivariant_poincare, EquivariantCohomology, cap_off, is_formal,
    ])
    def test_inadmissible_rejected(self, validations, operation):
        with pytest.raises(InvariantError):
            operation(datum(b=1, f=1, graph=[["F", "SE"]]))

    def test_verify_capping_rejects_inadmissible_input(self):
        rep = cap_off(datum(t=1))
        assert not verify_capping(dataclasses.replace(rep, input=datum(b=1, t=1)))

    def test_second_operation_on_same_instance_is_free(self, validations):
        boundary = datum(t=1, graph=[["F", "RP", "SE", "RP"], ["F", "SP"]])
        closed = datum(f=2)
        free = datum(b=1, g=1, pairs=[(3, 1)])
        cap_off(boundary)
        is_formal(closed)
        euler_number(free)
        assert len(validations) == 3
        for inv in (boundary, closed, free):
            orbit_euler_characteristic(inv)
            fixed_set_shape(inv)
            orbit_space_poincare(inv)
            equivariant_poincare(inv)
            betti(inv, 3)
        cap_off(boundary)
        verify_capping(cap_off(boundary))  # validates input and output in full
        is_formal(closed)
        EquivariantCohomology(closed)
        euler_number(free)
        assert len(validations) == 5

    def test_long_cycles_chain_validates_once(self, validations):
        inv = datum(t=1, pairs=[(5, 2), (3, 1)], graph=[["F", "RP", "SE", "RP"] * 50])
        assert orbitinv.validate(inv).ok
        canonical_form(inv)
        serialize(inv)
        cap_off(inv)
        assert validations == [inv]

    def test_pipeline_chain_validates_once(self, validations):
        inv = datum(t=1, graph=[["F", "RP", "SE", "RP"]])
        report = cap_off(inv)
        equivariant_poincare(inv)
        is_formal(report.output)
        assert validations == [inv]

    @pytest.mark.parametrize("copy_of", [dataclasses.replace, lambda inv: inv.replace()])
    def test_replace_starts_unrecorded(self, validations, copy_of):
        inv = datum(t=1)
        cap_off(inv)
        fresh = copy_of(inv)
        assert fresh == inv and fresh is not inv
        cap_off(fresh)
        assert validations == [inv, fresh]

    def test_inadmissible_revalidated_every_call(self, validations):
        bad = datum(b=1, f=1, graph=[["F", "SE"]])
        for operation in (cap_off, cap_off, equivariant_poincare, canonical_form):
            with pytest.raises(InvariantError):
                operation(bad)
        assert not orbitinv.validate(bad).ok
        assert validations == [bad] * 5

    def test_verdict_is_not_part_of_the_value(self):
        recorded, fresh = datum(t=1, pairs=[(3, 1)]), datum(t=1, pairs=[(3, 1)])
        cap_off(recorded)
        assert recorded == fresh and hash(recorded) == hash(fresh)
        assert repr(recorded) == repr(fresh)
        for clone in (pickle.loads(pickle.dumps(recorded)), copy.copy(recorded),
                      copy.deepcopy(recorded)):
            assert clone == recorded and hash(clone) == hash(recorded)
            assert clone == fresh and hash(clone) == hash(fresh)

    @pytest.mark.parametrize("operation, closed", [
        (cap_off, False),
        (equivariant_poincare, False),
        (equivariant_poincare, True),
        (is_formal, True),
    ])
    def test_census_built_versus_user_built(self, validations, operation, closed):
        census = [inv for inv in enumerate_invariants(CENSUS_BOX) if inv.closed is closed]
        census = census[::len(census) // 40]
        for inv in census:
            operation(inv)
        assert validations == []
        for inv in census:
            user_built = OrbitInvariants(**{field.name: getattr(inv, field.name)
                                            for field in dataclasses.fields(inv)})
            operation(user_built)
            assert validations[-1] is user_built
        assert len(validations) == len(census)

    def test_capped_outputs_carry_a_verdict(self, validations):
        census = [inv for inv in list(enumerate_invariants(CENSUS_BOX))[::200] if not inv.closed]
        outputs = [cap_off(inv).output for inv in census]
        validations.clear()
        for out in outputs:
            orbit_euler_characteristic(out)
            is_formal(out)
        assert validations == []
        assert len(outputs) == 44 and all(orbitinv.validate(out).ok for out in outputs)

    def test_parsed_and_normalized_data_start_unrecorded(self, validations):
        census = list(enumerate_invariants(CENSUS_BOX))[::200]
        fresh = [parse(serialize(inv)) for inv in census]
        unreduced = datum(b=3, eps="n", g=1, pairs=[(5, 4)])
        fresh.append(normalize(unreduced))
        assert fresh[-1] == datum(b=1, eps="n", g=1, pairs=[(5, 1)])
        validations.clear()
        for inv in fresh:
            orbit_euler_characteristic(inv)
        assert validations == fresh

    def test_census_data_are_their_own_normal_form(self):
        count = 0
        for inv in enumerate_invariants(CENSUS_BOX):
            assert normalize(inv) is inv
            count += 1
        assert count == 8910
