"""The JSON encoder: byte identity with ``json.dumps`` of the reference
dict builder, the ``expansion_upto`` check, each datum written once, and
the pinned text of nested pipeline payloads."""

import dataclasses
import hashlib
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import orbitinv.jsonio
import orbitinv.textio
from orbitinv import (
    EdgeLabel,
    EnumerationBounds,
    OrbitInvariants,
    SeifertPair,
    canonical_form,
    cap_off,
    derived_counts,
    emit_json,
    enumerate_invariants,
    equivariant_poincare,
    fixed_set_shape,
    is_formal,
    parse,
    parse_with_diagnostics,
    serialize,
    to_jsonable,
    validate,
)
from orbitinv.textio import Diagnostic, SourceSpan

import json_reference
from numpy_helper import numpy_case

# The 8,910-datum census box, and a smaller one the strategies draw from.
BOX = EnumerationBounds(max_g=1, max_f=1, max_s=1, max_t=1, max_r=2, max_m=4,
                        max_cycles=2, max_cycle_len=4, b_range=(-2, 2))
SMALL = list(enumerate_invariants(EnumerationBounds(
    max_g=1, max_f=1, max_s=1, max_t=1, max_r=1, max_m=3, max_cycles=1, max_cycle_len=4,
    b_range=(-1, 1))))
WITH_BOUNDARY = [inv for inv in SMALL if not inv.closed]
CLOSED = [inv for inv in SMALL if inv.closed] + [cap_off(inv).output for inv in WITH_BOUNDARY[:40]]

# Every string drawn holds some of the characters JSON escapes or writes as
# \u escapes, among others.
SPECIAL = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\U0001F600", " "]
texts = st.lists(st.sampled_from(SPECIAL) | st.characters(), max_size=6).map("".join)


@st.composite
def admissible(draw):
    """A census datum, with its ok verdict from birth or (parsed afresh)
    without one."""
    inv = draw(st.sampled_from(SMALL))
    return inv if draw(st.booleans()) else parse(serialize(inv))


odd_values = (st.integers(-3, 3) | st.none() | st.floats(allow_nan=True) | texts
              | st.fractions(max_denominator=5) | st.booleans())


@st.composite
def inadmissible(draw):
    """A datum with fields outside their types, as ``validate`` refuses."""
    pairs = draw(st.lists(st.builds(SeifertPair, st.integers(0, 6) | texts | st.none(),
                                    st.integers(0, 6) | st.floats(0, 5)), max_size=3))
    graph = draw(st.lists(st.lists(st.sampled_from(["F", "SE", "SP", "K", "RP"]), max_size=4),
                          max_size=2))
    return OrbitInvariants(b=draw(odd_values), eps=draw(st.sampled_from(["o", "n", None, 5])),
                           g=draw(odd_values), f=draw(st.integers(0, 2)), s=draw(odd_values),
                           t=draw(st.integers(0, 2) | texts), pairs=pairs, graph=graph)


@st.composite
def capping_reports(draw):
    report = cap_off(draw(st.sampled_from(WITH_BOUNDARY)))
    if draw(st.booleans()):  # plain notes, escaped
        report = dataclasses.replace(report, notes=tuple(draw(st.lists(texts, max_size=3))))
    return report


@st.composite
def diagnostics(draw):
    if draw(st.booleans()):
        return Diagnostic(SourceSpan(draw(st.integers(0, 9)), draw(st.integers(0, 9))),
                          draw(texts))
    return parse_with_diagnostics(draw(texts))[1]


library = st.one_of(
    admissible(),
    inadmissible(),
    capping_reports(),
    st.sampled_from(SMALL).map(equivariant_poincare),
    st.sampled_from(CLOSED).map(is_formal),
    st.one_of(admissible(), inadmissible()).map(validate),
    st.sampled_from(SMALL).map(canonical_form),
    st.sampled_from(SMALL).map(derived_counts),
    st.sampled_from(SMALL).map(fixed_set_shape),
    st.fractions(),
    diagnostics(),
)
plain = st.one_of(texts, st.integers(), st.booleans(), st.none())
keys = st.one_of(texts, st.integers(), st.booleans(), st.none())
payloads = st.recursive(
    library | plain,
    lambda children: st.one_of(st.lists(children, max_size=3),
                               st.lists(children, max_size=3).map(tuple),
                               st.dictionaries(keys, children, max_size=3)),
    max_leaves=8)


class Label(str):
    pass


def assert_as_reference(obj, upto=10):
    """``emit_json`` writes ``json.dumps`` of the reference builder, or
    raises the exception class the reference raises."""
    try:
        want = json.dumps(json_reference.to_jsonable(obj, upto))
    except Exception as exc:
        with pytest.raises(type(exc)):
            emit_json(obj, upto)
        return
    assert emit_json(obj, upto) == want


class TestReferenceIdentity:
    @given(payloads, st.integers(0, 20))
    @settings(max_examples=400, deadline=None)
    def test_drawn_payloads(self, obj, upto):
        assert_as_reference(obj, upto)

    @given(st.dictionaries(keys | st.floats() | st.tuples(st.integers()), st.integers(),
                           max_size=3))
    def test_dict_keys_follow_json_dumps(self, obj):
        assert_as_reference(obj)

    @pytest.mark.parametrize("obj", [
        1.5, object(), {"x": 1.5}, [Fraction(1, 2), object()], {(1, 2): 3},
        OrbitInvariants(b=Fraction(1, 2), eps="o", g=0, f=0, s=0, t=0),
        {"datum": OrbitInvariants(b=0, eps="o", g=0, f=0, s=0, t=0, pairs=[(3, [1])])},
        [EdgeLabel.RP, {EdgeLabel.K: Label("é")}, Label('"')],
        OrbitInvariants(b=EdgeLabel.K, eps="o", g=float("nan"), f=0, s=0, t=0),
    ])
    def test_values_outside_the_drawn_types(self, obj):
        assert_as_reference(obj)

    def test_int_subclass_entries_written_as_int(self):
        """Pair entries of an int subclass are stored as ``int``, so a
        subclass's ``str`` never reaches a datum's text."""
        class Quote(int):
            def __str__(self):
                return '"\\é'

        inv = OrbitInvariants(b=0, eps="o", g=0, f=0, s=0, t=0,
                              pairs=[SeifertPair(Quote(3), Quote(1))])
        assert validate(inv).ok
        assert_as_reference({"datum": inv, "cap": None})
        assert json.loads(emit_json(inv))["text"] == "{b=0;(o,g=0,f=0,s=0,t=0);(3,1)}"

    @pytest.mark.parametrize("pairs", [
        [(5, 2), (3, 1)],
        [(5, 2), (3, 1), (5, 1)],
        [(3, 2), (3, 1)],
        [SeifertPair("3", 1), (2, 1)],  # cannot be sorted: the given order
    ])
    def test_pair_order(self, pairs):
        fresh, validated = (OrbitInvariants(b=0, eps="o", g=1, f=0, s=0, t=0, pairs=pairs)
                            for _ in range(2))
        validate(validated)
        assert_as_reference([fresh, validated])

    def test_many_data_in_one_call(self):
        # data with and without a verdict, reports sharing their input's
        # pairs, and many pair lists of one length in one payload
        reports = [cap_off(inv) for inv in WITH_BOUNDARY[::7]]
        payload = [SMALL, [parse(serialize(inv)) for inv in SMALL[::5]], reports]
        assert sum(len(inv.pairs) == 1 for inv in SMALL) > 10
        assert_as_reference(payload)

    def test_pipeline_payloads_of_the_small_box(self):
        for inv in SMALL:
            payload = {"datum": inv}
            closed = inv
            if not inv.closed:
                payload["cap"] = report = cap_off(inv)
                closed = report.output
            payload["series"] = equivariant_poincare(inv)
            payload["formal"] = is_formal(closed)
            assert_as_reference(payload)


class TestNestedPayloadPinned:
    def test_pipeline_payloads_pinned(self):
        """``emit_json`` of {"datum", "cap", "series", "formal"} over the
        8,910 box; the digest was taken with the dict builder that
        ``tests/json_reference.py`` keeps."""
        digest = hashlib.sha256()
        count = 0
        for inv in enumerate_invariants(BOX):
            payload = {"datum": inv}
            closed = inv
            if not inv.closed:
                payload["cap"] = report = cap_off(inv)
                closed = report.output
            payload["series"] = equivariant_poincare(inv)
            payload["formal"] = is_formal(closed)
            digest.update((emit_json(payload) + "\n").encode())
            count += 1
        assert count == 8910
        assert digest.hexdigest() == (
            "64c0d8853625daa229038e5d1a15ecafa304958f902e6add09317c966fb64a2a")


class TestEachDatumOnce:
    def test_capping_payload_serializes_input_once(self, monkeypatch):
        real = orbitinv.jsonio.serialize
        calls = []

        def counting(inv):
            calls.append(inv)
            return real(inv)

        monkeypatch.setattr(orbitinv.jsonio, "serialize", counting)
        inv = parse("{b=0;(o,g=0,f=0,s=0,t=1);(3,1);G=[<F,RP,SE,RP>]}")
        report = cap_off(inv)
        text = emit_json({"datum": inv, "cap": report, "again": [inv, report]})
        assert [id(x) for x in calls] == [id(inv), id(report.output)]
        doc = json.loads(text)
        assert doc["datum"] == doc["cap"]["input"] == doc["again"][0]
        assert doc["cap"] == doc["again"][1]
        emit_json(inv)
        assert len(calls) == 3  # a new call writes the datum afresh


class TestExpansionUpto:
    """``expansion_upto`` is checked on entry, whatever the payload."""

    PAYLOADS = [parse("{b=0;(o,g=0,f=1,s=0,t=0)}"), {"x": 1}, None,
                equivariant_poincare(parse("{b=0;(o,g=0,f=1,s=0,t=0)}"))]

    @pytest.mark.parametrize("obj", PAYLOADS)
    @pytest.mark.parametrize("encode", [emit_json, to_jsonable])
    @pytest.mark.parametrize("value", [True, False, "x", 1.0, 2.5, None, Fraction(3)])
    def test_non_integer_is_a_type_error(self, encode, obj, value):
        message = f"expansion_upto must be an integer, got {value!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            encode(obj, expansion_upto=value)

    @pytest.mark.parametrize("obj", PAYLOADS)
    @pytest.mark.parametrize("encode", [emit_json, to_jsonable])
    @pytest.mark.parametrize("value", [-1, numpy_case(lambda np: np.int64(-3))])
    def test_negative_is_a_value_error(self, encode, obj, value):
        with pytest.raises(ValueError, match="^expansion_upto must be nonnegative, got -"):
            encode(obj, value)

    def test_numpy_integer_accepted(self):
        np = pytest.importorskip("numpy")
        series = self.PAYLOADS[-1]
        assert emit_json(series, np.int64(4)) == emit_json(series, 4)
        assert to_jsonable(series, np.uint8(0))["expansion"] == [1]


class TestToJsonable:
    """``to_jsonable`` is the parsed text of ``emit_json``."""

    @given(payloads, st.integers(0, 12))
    @settings(max_examples=100, deadline=None)
    def test_is_the_parsed_text(self, obj, upto):
        try:
            text = emit_json(obj, upto)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)):
                to_jsonable(obj, upto)
            return
        assert to_jsonable(obj, upto) == json.loads(text)

    def test_keys_become_strings(self):
        assert to_jsonable({1: 2, None: 3, False: [4], "x": 5}) == {
            "1": 2, "null": 3, "false": [4], "x": 5}

    def test_fraction_field_is_a_type_error(self):
        inv = OrbitInvariants(b=Fraction(1, 2), eps="o", g=0, f=0, s=0, t=0)
        with pytest.raises(TypeError):
            to_jsonable(inv)
