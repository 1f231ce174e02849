"""Bounded enumeration: hand counts, dedup, determinism, the pinned stream."""

import copy
import hashlib
import pickle

import pytest

from orbitinv import (
    CycleGraph,
    EdgeLabel,
    EnumerationBounds,
    OrbitInvariants,
    Orientability,
    SeifertPair,
    canonical_form,
    cap_off,
    enumerate_invariants,
    parse,
    serialize,
    valid_cycle_words,
    validate,
)


class TestTinyBounds:
    def test_all_zero_bounds(self):
        # only the closed free orientable datum with b = 0 fits
        census = [serialize(x) for x in enumerate_invariants(EnumerationBounds())]
        assert census == ["{b=0;(o,g=0,f=0,s=0,t=0)}"]

    def test_max_f_one(self):
        # nonorientable data need g >= 1 > max_g, so only the orientable pair
        # of data survives validation
        census = [serialize(x) for x in enumerate_invariants(EnumerationBounds(max_f=1))]
        assert census == ["{b=0;(o,g=0,f=0,s=0,t=0)}", "{b=0;(o,g=0,f=1,s=0,t=0)}"]

    def test_max_g_one_max_f_one_hand_count(self):
        # orientable: (g,f) in {0,1}^2 with b=0; nonorientable: g=1, f in {0,1}
        census = list(enumerate_invariants(EnumerationBounds(max_g=1, max_f=1)))
        assert len(census) == 6
        assert sum(1 for x in census if x.eps.value == "n") == 2

    def test_single_short_cycles(self):
        census = [serialize(x) for x in
                  enumerate_invariants(EnumerationBounds(max_cycles=1, max_cycle_len=2))]
        assert census == [
            "{b=0;(o,g=0,f=0,s=0,t=0)}",
            "{b=0;(o,g=0,f=0,s=0,t=0);G=[<F,SP>]}",
            "{b=0;(o,g=0,f=0,s=0,t=0);G=[<SE,K>]}",
        ]

    def test_no_valid_two_cycle_contains_rp(self):
        assert all("RP" not in str(word) for word in
                   [serialize_word(w) for w in valid_cycle_words(2)])

    def test_b_range_only_affects_closed_free_data(self):
        bounds = EnumerationBounds(max_f=1, b_range=(-2, 2))
        for inv in enumerate_invariants(bounds):
            if inv.f + inv.s + inv.t > 0 or inv.graph:
                assert inv.b == 0

    def test_nonorientable_b_stays_in_z2(self):
        bounds = EnumerationBounds(max_g=1, max_r=1, max_m=3, b_range=(-3, 3))
        bs = {inv.b for inv in enumerate_invariants(bounds) if inv.eps.value == "n"}
        assert bs <= {0, 1}


def serialize_word(word):
    return ",".join(str(lab) for lab in word)


class TestCensusProperties:
    BOUNDS = EnumerationBounds(max_g=1, max_f=1, max_s=1, max_t=1, max_r=2,
                               max_m=4, max_cycles=2, max_cycle_len=4, b_range=(-2, 2))

    def test_everything_validates(self):
        for inv in enumerate_invariants(self.BOUNDS):
            assert validate(inv).ok

    def test_duplicate_free_up_to_canonical_form(self):
        forms = [canonical_form(inv) for inv in enumerate_invariants(self.BOUNDS)]
        assert len(forms) == len(set(forms))

    def test_stream_pinned(self):
        digest = hashlib.sha256()
        count = 0
        for inv in enumerate_invariants(self.BOUNDS):
            digest.update((serialize(inv) + "\n").encode())
            count += 1
        assert count == 8910
        assert digest.hexdigest() == (
            "fdf04a968cb213c1a0fe0d2b46ecd128f792614d4979c57633f09fe1fc303af4")

    def test_no_nonorientable_genus_zero(self):
        assert not any(inv.eps.value == "n" and inv.g == 0
                       for inv in enumerate_invariants(self.BOUNDS))

    def test_deterministic(self):
        first = [serialize(x) for x in enumerate_invariants(self.BOUNDS)]
        second = [serialize(x) for x in enumerate_invariants(self.BOUNDS)]
        assert first == second

    def test_criterion_9_stream_pinned(self):
        bounds = EnumerationBounds(max_g=2, max_f=2, max_s=2, max_t=2, max_r=2,
                                   max_m=4, max_cycles=2, max_cycle_len=4, b_range=(-1, 1))
        digest = hashlib.sha256()
        count = 0
        for inv in enumerate_invariants(bounds):
            digest.update((serialize(inv) + "\n").encode())
            count += 1
        assert count == 47199
        assert digest.hexdigest() == (
            "fa885ca04aaaaae5921f6eca6f79731a64134ab614346e087af26cde47336d11")

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            EnumerationBounds(max_g=-1)
        with pytest.raises(ValueError):
            EnumerationBounds(b_range=(1, 0))

    @pytest.mark.parametrize("field, value", [
        ("max_g", True), ("max_f", False), ("max_m", 2.0), ("max_r", "1"),
        ("b_range", (0.5, 2)), ("b_range", ("0", "1")), ("b_range", (0, True)),
        ("b_range", 1), ("b_range", (0, 1, 2)), ("b_range", None),
    ])
    def test_non_integer_bounds_rejected(self, field, value):
        """The census takes the integers ``validate`` takes: no ``bool``,
        float or string, in ``b_range`` as in the counts; and ``b_range`` is
        a pair."""
        with pytest.raises(ValueError, match=field):
            EnumerationBounds(**{field: value})

    def test_integral_bounds_stored_as_int(self):
        """Any integral bound, numpy's included, is taken as an ``int``."""
        np = pytest.importorskip("numpy")
        given = EnumerationBounds(max_g=np.int64(1), max_f=np.uint8(1), max_m=np.int32(3),
                                  max_r=1, b_range=[np.int64(-1), np.int16(1)])
        plain = EnumerationBounds(max_g=1, max_f=1, max_m=3, max_r=1, b_range=(-1, 1))
        assert given == plain and hash(given) == hash(plain)
        assert all(type(v) is int for v in (given.max_g, given.max_f, given.max_m, *given.b_range))
        assert list(enumerate_invariants(given)) == list(enumerate_invariants(plain))


def public_rebuild(inv):
    """``inv`` built again by the public constructor from plain values: ints,
    the orientability letter, ``(m, n)`` tuples and label names."""
    return OrbitInvariants(
        b=int(inv.b), eps=inv.eps.value, g=int(inv.g), f=int(inv.f), s=int(inv.s),
        t=int(inv.t), pairs=[(int(p.m), int(p.n)) for p in inv.pairs],
        graph=[[lab.name for lab in cycle] for cycle in inv.graph])


def assert_same_datum(built, expected):
    """``built`` is indistinguishable from the publicly built ``expected``."""
    assert built == expected and hash(built) == hash(expected)
    assert repr(built) == repr(expected)
    for clone in (pickle.loads(pickle.dumps(built)), copy.copy(built), copy.deepcopy(built)):
        assert clone == expected and hash(clone) == hash(expected)
    assert all(type(getattr(built, name)) is int for name in "bgfst")
    assert type(built.eps) is Orientability
    assert type(built.pairs) is tuple
    assert all(type(p) is SeifertPair and type(p.m) is int and type(p.n) is int
               for p in built.pairs)
    assert type(built.graph) is CycleGraph and type(built.graph.cycles) is tuple
    assert all(type(cycle) is tuple and all(type(lab) is EdgeLabel for lab in cycle)
               for cycle in built.graph)


class TestTrustedConstruction:
    """Data the library builds itself, without the public constructor's
    coercions, equal the same data built publicly from plain values."""

    def test_census_parse_and_cap_off_match_public_construction(self):
        count = 0
        for inv in enumerate_invariants(TestCensusProperties.BOUNDS):
            rebuilt = public_rebuild(inv)
            assert_same_datum(inv, rebuilt)
            # the verdict each census datum carries from birth is right
            assert validate(rebuilt).ok
            parsed = parse(serialize(inv))
            assert_same_datum(parsed, public_rebuild(parsed))
            assert parsed == inv
            if not inv.closed:
                output = cap_off(inv).output
                assert_same_datum(output, public_rebuild(output))
                assert output == inv.replace(b=0, f=output.f, s=output.s, t=0, graph=())
            count += 1
        assert count == 8910
