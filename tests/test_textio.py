"""Notation parsing, canonical serialization, and JSON reports."""

import copy
import dataclasses
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import orbitinv.cyclegraph
from orbitinv import (
    CycleGraph,
    EdgeLabel,
    EnumerationBounds,
    OrbitInvariants,
    ParseError,
    PoincareSeries,
    cap_off,
    emit_json,
    enumerate_invariants,
    graph_canonical,
    is_formal,
    parse,
    parse_with_diagnostics,
    render_cycle,
    serialize,
    validate,
)


class TestParse:
    def test_full_datum(self):
        inv = parse("{b=0;(o,g=0,f=2,s=0,t=1);(3,1);G=[<F,SP>]}")
        assert inv == OrbitInvariants(b=0, eps="o", g=0, f=2, s=0, t=1,
                                      pairs=[(3, 1)], graph=[["F", "SP"]])

    def test_minimal_datum(self):
        inv = parse("{b=0;(o,g=0,f=0,s=0,t=0)}")
        assert inv.pairs == () and not inv.graph

    def test_expected_comma_diagnostic(self):
        datum, diags = parse_with_diagnostics("{b=0;(o,g=0,f=0,s=0,t=0);(4;2)}")
        assert datum is None
        assert any("expected ','" in d.message for d in diags)

    def test_legacy_header_without_t(self):
        inv = parse("{b=2;(o,g=1,f=0,s=0);(3,1)}")
        assert inv.t == 0 and inv.g == 1
        assert [(p.m, p.n) for p in inv.pairs] == [(3, 1)]

    def test_whitespace_insensitive(self):
        inv = parse(" { b = 0 ; ( o , g = 0 , f = 1 , s = 0 , t = 0 ) } ")
        assert inv.f == 1

    def test_negative_b(self):
        assert parse("{b=-3;(o,g=0,f=0,s=0,t=0)}").b == -3

    def test_negative_count_rejected(self):
        datum, diags = parse_with_diagnostics("{b=0;(o,g=-1,f=0,s=0,t=0)}")
        assert datum is None
        assert any("nonnegative" in d.message for d in diags)

    def test_multiple_diagnostics_in_one_run(self):
        _, diags = parse_with_diagnostics("{b=0;(o,g=0,f=0,s=0,t=0);(4;2),(x,1)}")
        assert len(diags) >= 2

    def test_spans_point_into_input(self):
        text = "{b=0;(o,g=0,f=0,s=0,t=0);(4;2)}"
        _, diags = parse_with_diagnostics(text)
        for d in diags:
            assert 0 <= d.span.start <= d.span.end <= len(text)
        # the bad ';' sits at index 28
        assert any(d.span.start == 28 for d in diags)

    def test_parse_raises_with_diagnostics(self):
        with pytest.raises(ParseError) as err:
            parse("{b=;}")
        assert err.value.diagnostics

    def test_trailing_garbage_rejected(self):
        datum, diags = parse_with_diagnostics("{b=0;(o,g=0,f=0,s=0,t=0)} extra")
        assert datum is None and diags

    def test_huge_literal_is_a_diagnostic_not_a_crash(self):
        datum, diags = parse_with_diagnostics("{b=" + "9" * 30000 + ";(o,g=0,f=0,s=0,t=0)}")
        assert datum is None and diags

    def test_non_ascii_decimal_digits_parse(self):
        assert parse("{b=\u0663;(o,g=0,f=0,s=0,t=0)}").b == 3
        assert parse("{b=-\u0663;(o,g=0,f=0,s=0,t=0)}").b == -3

    @pytest.mark.parametrize("b", ["\u00b2", "-\u00b2", "3\u00b2"])
    def test_superscript_digit_is_an_unexpected_character(self, b):
        datum, diags = parse_with_diagnostics("{b=" + b + ";(o,g=0,f=0,s=0,t=0)}")
        assert datum is None
        messages = [d.message for d in diags]
        assert "unexpected character '\u00b2'" in messages
        assert not any("too large" in m for m in messages)


class TestSerialize:
    def test_round_trip_rendering(self):
        text = "{b=0;(o,g=0,f=2,s=0,t=1);(3,1);G=[<F,SP>]}"
        assert serialize(parse(text)) == text

    def test_empty_graph_segment_omitted(self):
        assert serialize(parse("{b=1;(o,g=2,f=0,s=0,t=0)}")) == "{b=1;(o,g=2,f=0,s=0,t=0)}"

    def test_pairs_sorted(self):
        inv = OrbitInvariants(b=2, eps="o", g=0, f=0, s=0, t=0, pairs=[(5, 2), (3, 1)])
        assert ";(3,1),(5,2)" in serialize(inv)

    def test_graph_rendered_canonically(self):
        inv = OrbitInvariants(b=0, eps="o", g=0, f=0, s=0, t=0,
                              graph=[["SP", "F"], ["K", "SE"]])
        assert ";G=[<F,SP>,<SE,K>]" in serialize(inv)

    def test_serialize_does_not_normalize(self):
        inv = OrbitInvariants(b=3, eps="n", g=1, f=0, s=0, t=0, pairs=[(5, 4)])
        assert serialize(inv) == "{b=3;(n,g=1,f=0,s=0,t=0);(5,4)}"


def with_graph(cycles):
    return OrbitInvariants(b=0, eps="o", g=0, f=0, s=0, t=0, graph=cycles)


def reference_serialize(graph):
    """``serialize(with_graph(graph))``, the graph canonicalized and rendered
    afresh."""
    if not graph:
        return "{b=0;(o,g=0,f=0,s=0,t=0)}"
    words = graph_canonical(graph)
    return "{b=0;(o,g=0,f=0,s=0,t=0);G=[" + ",".join(render_cycle(w) for w in words) + "]}"


label_words = st.lists(st.lists(st.sampled_from(list(EdgeLabel)), max_size=12), max_size=4)


class TestRenderedOnce:
    """``serialize`` renders each ``CycleGraph`` instance once; the cached
    text is invisible apart from its cost."""

    def test_census_canonicalizes_once_per_graph(self, monkeypatch):
        bounds = EnumerationBounds(max_g=1, max_f=1, max_s=1, max_t=1, max_r=2,
                                   max_m=4, max_cycles=2, max_cycle_len=4, b_range=(-2, 2))
        census = list(enumerate_invariants(bounds))
        graphs = {id(inv.graph): inv.graph for inv in census}
        real = orbitinv.cyclegraph.canonicalize_cycle
        calls = []

        def counting(cycle):
            calls.append(cycle)
            return real(cycle)

        monkeypatch.setattr(orbitinv.cyclegraph, "canonicalize_cycle", counting)
        for inv in census:
            serialize(inv)
        assert len(census) == 8910
        assert 0 < len(calls) <= sum(len(g) for g in graphs.values())

    @given(label_words, label_words)
    @settings(max_examples=200)
    def test_cache_changes_no_output(self, cycles, other):
        # arbitrary words: rotated, reflected and inadmissible ones alike,
        # since serialize does not validate
        inv, twin = with_graph(cycles), with_graph(cycles)
        before = (repr(inv), hash(inv), hash(inv.graph))
        text = serialize(inv)
        assert text == reference_serialize(twin.graph)
        assert serialize(inv) == text
        assert (repr(inv), hash(inv), hash(inv.graph)) == before
        assert inv == twin and repr(inv) == repr(twin) and hash(inv) == hash(twin)
        for clone in (pickle.loads(pickle.dumps(inv)), copy.copy(inv), copy.deepcopy(inv)):
            assert clone == inv and hash(clone) == hash(inv) and repr(clone) == repr(inv)
            assert serialize(clone) == text
        swapped = dataclasses.replace(inv, graph=CycleGraph.from_labels(other))
        assert serialize(swapped) == reference_serialize(swapped.graph)
        # a graph copied from a rendered one with new cycles renders afresh
        regraphed = dataclasses.replace(inv.graph, cycles=tuple(map(tuple, other)))
        assert serialize(with_graph(regraphed)) == reference_serialize(regraphed)


class TestRoundTrip:
    def test_parse_serialize_identity_on_census(self):
        bounds = EnumerationBounds(max_g=1, max_f=1, max_s=1, max_t=1, max_r=2,
                                   max_m=4, max_cycles=2, max_cycle_len=4, b_range=(-2, 2))
        count = 0
        for inv in enumerate_invariants(bounds):
            count += 1
            assert parse(serialize(inv)) == inv
        assert count > 200

    def test_serialize_parse_idempotent_after_one_trip(self):
        inv = OrbitInvariants(b=0, eps="o", g=0, f=0, s=0, t=0,
                              pairs=[(5, 2), (3, 1)], graph=[["SP", "F"]])
        once = serialize(inv)
        assert serialize(parse(once)) == once


class TestFuzz:
    @given(st.text(max_size=60))
    @settings(max_examples=300)
    def test_never_raises_on_text(self, text):
        datum, diags = parse_with_diagnostics(text)
        assert (datum is None) == bool(diags) or datum is None

    @given(st.binary(max_size=60))
    def test_never_raises_on_latin1_bytes(self, blob):
        parse_with_diagnostics(blob.decode("latin-1"))


class TestEmitJson:
    def test_series(self):
        doc = json.loads(emit_json(PoincareSeries((1, 0, 1))))
        assert doc["numerator"] == [1, 0, 1]
        assert doc["denominator"] == [1]
        assert doc["expansion"] == [1, 0, 1] + [0] * 8

    def test_rational(self):
        assert json.loads(emit_json(Fraction(31, 15))) == {"num": 31, "den": 15}

    def test_validation_report(self):
        report = validate(parse("{b=0;(o,g=0,f=0,s=0,t=0)}"))
        assert json.loads(emit_json(report)) == {"ok": True, "violations": []}

    def test_violations_carry_condition(self):
        report = validate(parse("{b=3;(o,g=0,f=2,s=0,t=0)}"))
        doc = json.loads(emit_json(report))
        assert doc["ok"] is False
        assert doc["violations"][0]["condition"] == "1"

    def test_capping_report(self):
        doc = json.loads(emit_json(cap_off(parse("{b=0;(o,g=0,f=0,s=0,t=1)}"))))
        assert doc["chi_before"] == 1 and doc["chi_after"] == 2
        assert doc["output"]["text"] == "{b=0;(o,g=0,f=0,s=0,t=0)}"

    def test_formality_result(self):
        doc = json.loads(emit_json(is_formal(parse("{b=0;(o,g=0,f=3,s=0,t=0)}"))))
        assert doc["formal"] is True and len(doc["generators"]) == 6
