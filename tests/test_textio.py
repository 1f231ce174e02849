"""Notation parsing, canonical serialization, and JSON reports."""

import copy
import dataclasses
import hashlib
import itertools
import json
import math
import pickle
import random
import time
import unicodedata
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import orbitinv.cyclegraph
import orbitinv.textio
from orbitinv import (
    CycleGraph,
    EdgeLabel,
    EnumerationBounds,
    OrbitInvariants,
    ParseError,
    PoincareSeries,
    SeifertPair,
    canonical_form,
    cap_off,
    derived_counts,
    emit_json,
    enumerate_invariants,
    fixed_set_shape,
    graph_canonical,
    is_formal,
    parse,
    parse_with_diagnostics,
    render_cycle,
    serialize,
    validate,
)
from orbitinv.cyclegraph import LABEL_NAMES, valid_cycle_words
from orbitinv.textio import _match_datum, _Parser
from textio_reference import reference_parse

# The 8,910-datum census box.
BOX = EnumerationBounds(max_g=1, max_f=1, max_s=1, max_t=1, max_r=2,
                        max_m=4, max_cycles=2, max_cycle_len=4, b_range=(-2, 2))


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

    @pytest.mark.parametrize("eps", [None, 5, True])
    def test_eps_outside_orientability_prints(self, eps):
        """A datum that ``validate`` refuses for its eps still prints, with
        eps written as its ``str`` and given raw to the JSON."""
        inv = OrbitInvariants(b=0, eps=eps, g=0, f=0, s=0, t=0, pairs=[(3, 1)])
        text = f"{{b=0;({eps},g=0,f=0,s=0,t=0);(3,1)}}"
        assert serialize(inv) == str(inv) == text
        doc = json.loads(emit_json(inv))
        assert doc["text"] == text and doc["eps"] == eps
        assert [v.condition for v in validate(inv).violations] == ["domain"]


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
        real = orbitinv.cyclegraph._canonical_word
        calls = []

        def counting(cycle):
            calls.append(cycle)
            return real(cycle)

        # the census renders its graphs as it enumerates, so the count
        # covers enumeration and serialization alike: the generation of the
        # valid words, and at most one canonicalization per cycle of each
        # graph
        monkeypatch.setattr(orbitinv.cyclegraph, "_canonical_word", counting)
        census = list(enumerate_invariants(BOX))
        graphs = {id(inv.graph): inv.graph for inv in census}
        for inv in census:
            serialize(inv)
        assert len(census) == 8910
        assert 0 < len(calls) <= sum(len(g) for g in graphs.values())
        # the census's graphs are born with their canonical words, so every
        # call is the generation of the valid words: no graph is canonicalized
        count = len(calls)
        calls.clear()
        valid_cycle_words(BOX.max_cycle_len)
        assert count == len(calls)

    def test_chain_canonicalizes_each_cycle_once(self, monkeypatch):
        inv = parse("{b=0;(n,g=1,f=0,s=1,t=1);(5,2),(3,1);"
                    "G=[<SE,RP,F,RP>,<SP,F>,<SE,K,SE,K>]}")
        real = orbitinv.cyclegraph._canonical_word
        calls = []

        def counting(cycle):
            calls.append(cycle)
            return real(cycle)

        monkeypatch.setattr(orbitinv.cyclegraph, "_canonical_word", counting)
        form = canonical_form(inv)
        text = serialize(inv)
        report = cap_off(inv)
        emit_json(report)
        emit_json(form)
        assert sorted(calls) == sorted(inv.graph.cycles)
        assert text == "{b=0;(n,g=1,f=0,s=1,t=1);(3,1),(5,2);G=[<F,SP>,<F,RP,SE,RP>,<SE,K,SE,K>]}"
        # the public function stays uncached
        assert graph_canonical(inv.graph) == form.graph_canon
        assert len(calls) == 2 * len(inv.graph)

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
        count = 0
        for inv in enumerate_invariants(BOX):
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

    def test_derived_counts(self):
        inv = parse("{b=0;(n,g=1,f=0,s=1,t=1);(5,2),(3,1);"
                    "G=[<SE,RP,F,RP>,<SP,F>,<SE,K,SE,K>]}")
        assert emit_json(derived_counts(inv)) == (
            '{"f0_minus_f": 2, "s0_minus_s": 3, "s_p": 1, "k": 2, "r_p": 2, '
            '"v_f": 4, "v_s": 6, "boundary_circles": 5}')

    def test_fixed_set_shape(self):
        inv = parse("{b=0;(o,g=1,f=3,s=0,t=0);G=[<F,SP>]}")
        assert emit_json(fixed_set_shape(inv)) == '{"circles": 3, "intervals": 1}'

    def test_no_json_form_is_a_type_error(self):
        with pytest.raises(TypeError, match="no JSON form for object"):
            emit_json(object())


# Characters where the regex classes and the str predicates part ways: non-
# decimal digits and numerals ('²', '½', 'Ⅷ'), a non-ASCII decimal digit, a
# non-ASCII letter, non-ASCII whitespace, '_' (a word character) and '-'.
TRICKY = "²½Ⅷ٣é\u00a0\u2028_-"
lexer_alphabet = st.sampled_from(list(TRICKY + "{}();,=<>[]bognfstGFSEPKR0123456789 "))


LINES = [
    "{b=0;(o,g=0,f=2,s=0,t=1);(3,1);G=[<F,SP>]}",
    "{b=-2;(n,g=1,f=1,s=1,t=0);(2,1),(4,1);G=[<F,RP,SE,RP>,<SE,K>]}",
    "{b=12;(o,g=1,f=0,s=0);(5,2),(5,3)}",
    " { b = 0 ; ( o , g = 0 , f = 0 , s = 0 , t = 0 ) ; G = [ < SE , K > ] } ",
]


@st.composite
def lexer_texts(draw):
    """Free text over the alphabet, or a datum line with a few characters
    replaced or inserted from it."""
    if draw(st.booleans()):
        return draw(st.text(lexer_alphabet, max_size=40))
    text = list(draw(st.sampled_from(LINES)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        text[at:at + draw(st.integers(0, 1))] = [draw(lexer_alphabet)]
    return "".join(text)


def fuzz_corpus():
    """Criterion 9's 100,000 fuzz inputs (seed 9, same generator)."""
    bounds = EnumerationBounds(max_g=2, max_f=2, max_s=2, max_t=2, max_r=2,
                               max_m=4, max_cycles=2, max_cycle_len=4, b_range=(-1, 1))
    census = list(itertools.islice(enumerate_invariants(bounds), 10_000))
    rng = random.Random(9)
    alphabet = "{}();,=<>bognfst0123456789FSEPKR -"
    for i in range(100_000):
        if i % 3 == 0:
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        elif i % 3 == 1:
            base = list(serialize(census[rng.randrange(len(census))]))
            for _ in range(rng.randint(1, 4)):
                base[rng.randrange(len(base))] = rng.choice(alphabet)
            text = "".join(base)
        else:
            text = "".join(chr(rng.randint(0, 0x10FFFF // 16))
                           for _ in range(rng.randint(0, 20)))
        yield text


FUZZ_DIGESTS = {
    "13.0.0": "317072056772577056a569cf208d2f7749c781692113fd6ddc3234903f91ef85",  # Python 3.10
    "14.0.0": "ebafb0b761af0ac77aa0a2402d103020e9c5516aa6ebd6cc2d051fbb6c5df12b",  # 3.11
    "15.0.0": "e76bbbda666ccf13c55faed43d975097ad43defe39c77348c2d7ee0a0d6e2818",  # 3.12
    "15.1.0": "62d4dd255986110efac6f0f4b2aad500b9aff25375db15985616639868d4b4d9",  # 3.13
}


class TestRegexLexer:
    """The one-regex lexer accepts the language of the character-by-character
    reference with the same spans and messages."""

    @given(lexer_texts())
    @settings(max_examples=400)
    def test_matches_reference_parser(self, text):
        assert parse_with_diagnostics(text) == reference_parse(text)

    @pytest.mark.parametrize("text", [
        "{b=a²b;(o,g=0,f=0,s=0,t=0)}",
        "{b=0;(o,g=0,f=0,s=0,t=0);G=[<F½SP>]}",
        "{b=0;(oⅧ,g=0,f=0,s=0,t=0)}",
        "{b=-٣;(o,g=0,f=0,s=0,t=0)}  ",
        "{b=0;(o,g=0,f=0,s=0,t=0);G=[<F,SP,>]}",
        "{b=0;(o,g=0,f=0,s=0,t=0);G=[<F,SP],<SE,K>]}",
        "{b=-;(o,g=0,f=0,s=0,t=0);(3_1)}",
        # texts the one anchored match declines, or must read as the reference does
        "{b=0;(o,g=-0,f=0,s=0,t=0)}",
        "{b=-0;(o,g=0,f=0,s=0,t=0);G=[]}",
        "{b=0;(o,g=0,f=0,s=0,t=0);G=[ ]}",
        "{b=0;(o,g=0,f=0,s=0,t=0);G=[<>]}",
        "{b=0;(o,g=0,f=0,s=0,t=0);G=[<F,SP>,]}",
        "{b=0;(o,g=0,f=0,s=0,t=0);(3,1),}",
        "{b=0;(o,g=0,f=0,s=0,t=0);(-3,1)}",
        "{b=0;(o,g=0,f=0,s=0,t=0);(3,-0)}",
        "{b=0;(o,g=0,f=0,s=0,t=-2)}",
        "{b=0;(o,g=0,f=0,s=0,t=0);}",
        "{b=0;(o,g=0,f=0,s=0,t=0);G=[<F,SP>];(3,1)}",
        "{b=0;(o,g=0,f=0,s=0,t=0);(3,1);(5,2)}",
        "{b=0;(o,g=0,f=0,s=0,t=0);G=[<SEP,F>]}",
        "{b=0;(on,g=0,f=0,s=0,t=0)}",
        "{b1=0;(o,g=0,f=0,s=0,t=0)}",
        "{b=0;(o,g=0,f=0,s=0,t=0);(" + "3" * 5000 + ",1)}",
    ])
    def test_matches_reference_parser_on_edge_cases(self, text):
        assert parse_with_diagnostics(text) == reference_parse(text)

    def test_fuzz_corpus_diagnostics_pinned(self):
        """SHA-256 of the JSON diagnostics of every criterion-9 fuzz input,
        computed with the reference parser.  The inputs draw arbitrary code
        points, whose classes follow the interpreter's Unicode database, so
        there is one digest per database; under another database each
        result is compared with the reference parser instead."""
        pinned = FUZZ_DIGESTS.get(unicodedata.unidata_version)
        digest = hashlib.sha256()
        parsed = 0
        for text in fuzz_corpus():
            datum, diags = result = parse_with_diagnostics(text)
            if pinned is None:
                assert result == reference_parse(text)
            parsed += datum is not None
            digest.update((emit_json(diags) + "\n").encode())
        assert parsed == 664
        assert pinned is None or digest.hexdigest() == pinned


def token_parse(text):
    """The token parser's diagnostics for ``text``."""
    return _Parser(text).diagnose()


# Whitespace the lexer skips, NBSP and LINE SEPARATOR among it, and the
# zeros of three non-ASCII decimal digit sets.
SPACES = " \t\n\u00a0\u2028\u3000"
ZEROS = "0\u0660\u0966\uff10"


@st.composite
def padded_texts(draw):
    """A rendered datum, whitespace-padded, maybe with Unicode digits, ``-0``
    for a zero, no ``t=``, an empty or absent graph segment or an empty
    cycle, and maybe one character replaced, inserted or deleted.  Returns
    the text and the datum it must parse to, or None for a text the one
    match may decline."""
    zero = draw(st.sampled_from(ZEROS))

    def num(value):
        if value == 0 and draw(st.integers(0, 5)) == 0:
            return "-" + zero
        return "".join(chr(ord(zero) + int(d)) if d.isdigit() else d for d in str(value))

    b = draw(st.integers(-12, 12))
    eps = draw(st.sampled_from("on"))
    g, f, s, t = (draw(st.integers(0, 12)) for _ in range(4))
    pairs = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=4))
    cycles = draw(st.none() | label_words)
    omit_t = draw(st.booleans())
    tokens = ["{", "b", "=", num(b), ";", "(", eps]
    for name, value in [("g", g), ("f", f), ("s", s)] + ([] if omit_t else [("t", t)]):
        tokens += [",", name, "=", num(value)]
    tokens.append(")")
    if pairs:
        tokens.append(";")
        for i, (m, n) in enumerate(pairs):
            tokens += [","] * (i > 0) + ["(", num(m), ",", num(n), ")"]
    if cycles is not None:
        tokens += [";", "G", "=", "["]
        for i, cycle in enumerate(cycles):
            tokens += [","] * (i > 0) + ["<"]
            for j, lab in enumerate(cycle):
                tokens += [","] * (j > 0) + [lab.name]
            tokens.append(">")
        tokens.append("]")
    tokens.append("}")
    pad = st.text(st.sampled_from(SPACES), max_size=2)
    text = draw(pad) + "".join(tok + draw(pad) for tok in tokens)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        insert = draw(st.sampled_from(["", *TRICKY, *SPACES, *"{}();,=<>[]bGFSPK7"]))
        text = text[:at] + insert + text[at + draw(st.integers(0, 1)):]
        return text, None
    if any(not cycle for cycle in cycles or ()):
        return text, None
    return text, OrbitInvariants(b=b, eps=eps, g=g, f=f, s=s, t=0 if omit_t else t,
                                 pairs=pairs, graph=cycles or ())


def adversarial(shape, size):
    """A text of about ``size`` characters that ``_match_datum`` rejects only
    at its end."""
    head = "{b=0;(o,g=0,f=0,s=0,t=0)"
    if shape == "padded pairs":
        return head + ";" + " , ".join([" ( 3 , 1 ) "] * (size // 14)) + " , }"
    if shape == "padded cycles":
        return head + "; G = [ " + " , ".join(["< F , SP , SE , K >"] * (size // 22)) + " , ]}"
    if shape == "digit run":
        return head + ";(" + "7" * size + ")}"
    return head + " " * size + ";G=[" + " " * size + "}"


# Data that spell -0 counts, Unicode digits, no ``t=``, pairs and graphs,
# and the characters their single-character edits are drawn from.
EDIT_SEEDS = [
    "{b=0;(o,g=-0,f=2,s=0,t=1);(3,1);G=[<F,SP>]}",
    "{b=-2;(n,g=1,f=1,s=\u0660);(2,-0),(4,1);G=[<SE,K>,<F,RP,SE,RP>]}",
    "{ b=7 ;(o,g=0,f=0,s=-0,t=0);G=[]}",
]
EDIT_ALPHABET = "{}();,=<>[]-0 7bgfstGFSPKREon\u0660 x"


def single_edits(seed):
    """Every text one deletion, insertion or replacement away from ``seed``."""
    texts = set()
    for i in range(len(seed) + 1):
        texts.add(seed[:i] + seed[i + 1:])
        for ch in EDIT_ALPHABET:
            texts.add(seed[:i] + ch + seed[i:])
            texts.add(seed[:i] + ch + seed[i + 1:])
    return sorted(texts)


class TestOneMatch:
    """``parse_with_diagnostics`` reads well-formed text with one anchored
    match and leaves everything else to the token parser: same data, same
    diagnostics."""

    @given(padded_texts())
    @settings(max_examples=500)
    def test_agrees_with_token_parser(self, case):
        text, want = case
        result = parse_with_diagnostics(text)
        assert result == reference_parse(text)
        fast = _match_datum(text)
        assert result == ((fast, ()) if fast is not None else (None, token_parse(text)))
        if want is not None:
            assert fast == want

    @pytest.mark.parametrize("seed", EDIT_SEEDS)
    def test_every_single_edit_agrees_and_is_explained(self, seed):
        texts = single_edits(seed)
        assert len(texts) > 2000
        for text in texts:
            datum, diags = result = parse_with_diagnostics(text)
            assert result == reference_parse(text), text
            assert (datum is None) == bool(diags), text

    def test_census_box_never_builds_the_token_parser(self, monkeypatch):
        census = list(enumerate_invariants(BOX))
        built = []

        class Counting(_Parser):
            def __init__(self, text):
                built.append(text)
                super().__init__(text)

        monkeypatch.setattr(orbitinv.textio, "_Parser", Counting)
        for inv in census:
            assert parse(serialize(inv)) == inv
        assert len(census) == 8910 and built == []
        parse_with_diagnostics("{b=0;(o,g=-1,f=0,s=0,t=0)}")
        assert built  # the patch is live

    @pytest.mark.parametrize("shape", ["padded pairs", "padded cycles", "digit run",
                                       "whitespace run"])
    def test_rejection_is_linear(self, shape):
        # a backtracking blow-up would take minutes at 320,000 characters;
        # linear matching takes milliseconds
        for size in (40_000, 320_000):
            text = adversarial(shape, size)
            start = time.perf_counter()
            assert _match_datum(text) is None
            assert time.perf_counter() - start < 2.0
        small = adversarial(shape, 400)
        assert parse_with_diagnostics(small) == reference_parse(small)
        assert parse_with_diagnostics(small)[1]


class TestPairOrder:
    """Pairs are ordered by C-level (m, n) tuple comparisons."""

    def test_seifert_pair_lt_never_called(self, monkeypatch):
        calls = []

        def counting(self, other):
            calls.append((self, other))
            return (self.m, self.n) < (other.m, other.n)

        inv = parse("{b=0;(o,g=0,f=0,s=0,t=1);(5,2),(3,1),(5,1),(3,2);G=[<F,SP>]}")
        report = cap_off(inv)
        monkeypatch.setattr(SeifertPair, "__lt__", counting)
        serialize(inv)
        emit_json(inv)
        emit_json(report)
        emit_json(canonical_form(report.output))
        assert calls == []
        assert sorted(inv.pairs) and calls  # the patch itself is live

    @pytest.mark.parametrize("pairs, shown", [
        ([SeifertPair("3", 1), SeifertPair(2, 1)], "(3,1),(2,1)"),
        ([SeifertPair(2, 1), SeifertPair("3", 1)], "(2,1),(3,1)"),
        ([SeifertPair(3, 1), SeifertPair(3, None), SeifertPair(2, 1)], "(3,1),(3,None),(2,1)"),
    ])
    def test_unsortable_pairs_keep_their_order(self, pairs, shown):
        """A datum refused for a pair entry's type still prints, with its
        pairs in their given order in the text and in the JSON."""
        inv = OrbitInvariants(b=0, eps="o", g=0, f=0, s=0, t=0, pairs=pairs)
        text = "{b=0;(o,g=0,f=0,s=0,t=0);" + shown + "}"
        assert serialize(inv) == str(inv) == text
        doc = json.loads(emit_json(inv))
        assert doc["text"] == text and doc["pairs"] == [[p.m, p.n] for p in pairs]
        assert {v.condition for v in validate(inv).violations} == {"domain"}

    @given(st.lists(st.tuples(st.integers(2, 6), st.integers(1, 5)), max_size=8))
    def test_order_equals_sorted_pairs(self, raw):
        inv = OrbitInvariants(b=0, eps="o", g=1, f=0, s=0, t=0, pairs=raw)
        ordered = sorted(inv.pairs)
        rendered = ";" + ",".join(map(str, ordered)) if raw else ""
        assert serialize(inv) == "{b=0;(o,g=1,f=0,s=0,t=0)" + rendered + "}"
        assert json.loads(emit_json(inv))["pairs"] == [[p.m, p.n] for p in ordered]
        coprime = [p for p in inv.pairs if math.gcd(p.m, p.n) == 1 and p.n < p.m]
        valid = inv.replace(pairs=coprime)
        assert list(canonical_form(valid).pairs) == sorted(valid.pairs)


def test_label_names_are_the_enum_names():
    assert LABEL_NAMES == tuple(str(EdgeLabel(v)) for v in range(len(EdgeLabel)))
    assert str(EdgeLabel.F) == "F" and render_cycle(["SE", "K", "SE", "RP"]) == "<SE,K,SE,RP>"
