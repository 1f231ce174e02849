"""Cycle validation, canonical words, and graph isomorphism."""

import itertools
import random
import time

import pytest
from hypothesis import example, given, strategies as st

from orbitinv import (
    CycleGraph,
    EdgeLabel,
    canonicalize_cycle,
    graph_canonical,
    graphs_isomorphic,
    valid_cycle_words,
    validate_graph,
    vertex_labels,
)
from orbitinv.cyclegraph import _least_rotation

F, SE, SP, K, RP = EdgeLabel.F, EdgeLabel.SE, EdgeLabel.SP, EdgeLabel.K, EdgeLabel.RP
ALL_LABELS = [F, SE, SP, K, RP]


def brute_canonical(word):
    """Oracle: materialize all rotations of the word and of its reversal."""
    word = tuple(word)
    n = len(word)
    variants = [word[i:] + word[:i] for i in range(n)]
    rev = word[::-1]
    variants += [rev[i:] + rev[:i] for i in range(n)]
    return min(variants)


def all_cycles_upto(max_len):
    for length in range(2, max_len + 1):
        for word in itertools.product(ALL_LABELS, repeat=length):
            yield word


# The cycle rule as an adjacency table, kept apart from the library's forcing
# rule as an independent reference.
ADJACENT = {F: {SP, RP}, SE: {K, RP}, SP: {F}, K: {SE}}


def reference_ok(word):
    """Even length >= 2, an even number of RP arcs, F and SE arcs only next to
    their boundary arcs, SP/K between two F/SE arcs, RP between F and SE."""
    n = len(word)
    if n < 2 or n % 2 or word.count(RP) % 2:
        return False
    for i, lab in enumerate(word):
        left, right = word[i - 1], word[(i + 1) % n]
        if lab is RP:
            if {left, right} != {F, SE}:
                return False
        elif left not in ADJACENT[lab] or right not in ADJACENT[lab]:
            return False
    return True


def forced_cycle(interior):
    """The valid cycle on a nonempty binary F/SE word, built from the table."""
    boundary = {(F, F): SP, (SE, SE): K, (F, SE): RP, (SE, F): RP}
    word = []
    for i, lab in enumerate(interior):
        word += (lab, boundary[lab, interior[(i + 1) % len(interior)]])
    return tuple(word)


FORCED = {(F, F): SP, (SE, SE): K, (F, SE): RP, (SE, F): RP}
# The per-edge scan's message at an edge, by its left, own and right labels;
# None where the edge breaks no rule.
EDGE_MESSAGES = {}
for left, lab, right in itertools.product(ALL_LABELS, repeat=3):
    if lab.interior is right.interior:
        EDGE_MESSAGES[left, lab, right] = (
            f"{lab.name} arc next to {right.name}; interior (F, SE) and boundary "
            "(SP, K, RP) arcs must alternate")
    elif left.interior and not lab.interior and lab is not FORCED[left, right]:
        EDGE_MESSAGES[left, lab, right] = (
            f"{lab.name} arc between {left.name} and {right.name}; "
            f"only {FORCED[left, right].name} may join them")
    else:
        EDGE_MESSAGES[left, lab, right] = None


def per_edge_violations(cycles):
    """Oracle: the forcing rule checked edge by edge over every cycle, with
    the library's messages."""
    found = []
    for ci, cycle in enumerate(cycles):
        n = len(cycle)
        if n < 2:
            found.append((ci, None, f"cycle has {n} edge(s); at least 2 are required"))
            continue
        for i in range(n):
            message = EDGE_MESSAGES[cycle[i - 1], cycle[i], cycle[(i + 1) % n]]
            if message is not None:
                found.append((ci, i, message))
    return found


def assert_located(word, report):
    assert report.violations
    for v in report.violations:
        assert v.cycle == 0
        if len(word) >= 2:
            assert v.position is not None and 0 <= v.position < len(word)


# Valid words up to length 6 are cheap to enumerate and plenty for property
# tests; the full length-8 scan lives in the session fixture.
VALID_CYCLES = [w for w in all_cycles_upto(6) if validate_graph(CycleGraph((w,))).ok]


class TestValidateGraph:
    def test_fixed_arc_meeting_sphere_boundary(self):
        assert validate_graph(CycleGraph.from_labels([["F", "SP"]])).ok

    def test_fixed_arc_next_to_special_arc_rejected(self):
        report = validate_graph(CycleGraph.from_labels([["F", "SE"]]))
        assert not report.ok
        assert any("F" in v.message and "SE" in v.message for v in report.violations)

    def test_rp_pair_cycle(self):
        assert validate_graph(CycleGraph.from_labels([["F", "RP", "SE", "RP"]])).ok

    def test_six_cycle_with_klein_arc(self):
        assert validate_graph(CycleGraph.from_labels([["F", "RP", "SE", "K", "SE", "RP"]])).ok

    def test_violation_names_cycle_and_position(self):
        report = validate_graph(CycleGraph.from_labels([["F", "SP"], ["SP", "SP"]]))
        assert not report.ok
        assert all(v.cycle == 1 for v in report.violations)
        assert any(v.position is not None for v in report.violations)

    def test_rp_needs_one_f_and_one_se(self):
        # in a 2-cycle both neighbours of RP are the same arc
        assert not validate_graph(CycleGraph.from_labels([["F", "RP"]])).ok
        assert not validate_graph(CycleGraph.from_labels([["F", "RP", "F", "RP"]])).ok

    def test_empty_graph_ok(self):
        assert validate_graph(CycleGraph()).ok

    def test_too_short_cycle(self):
        assert not validate_graph(CycleGraph.from_labels([["F"]])).ok

    def test_matches_reference_on_every_word_up_to_7(self):
        accepted = 0
        for length in range(1, 8):
            for word in itertools.product(ALL_LABELS, repeat=length):
                report = validate_graph(CycleGraph((word,)))
                assert report.ok == reference_ok(word), word
                if report.ok:
                    accepted += 1
                else:
                    assert_located(word, report)
        # 2^k binary interior words per length 2k, each starting at either kind
        assert accepted == sum(2 * 2 ** k for k in (1, 2, 3))

    def test_violations_match_per_edge_scan_on_every_word_up_to_8(self):
        """Cycles that pass the pair-word check and cycles the per-edge scan
        locates give the violations, messages included, of the scan alone."""
        for length in range(9):
            # one graph per prefix of two labels, to bound the memory held
            for head in itertools.product(ALL_LABELS, repeat=min(length, 2)):
                words = [head + tail for tail in itertools.product(ALL_LABELS,
                                                                   repeat=length - len(head))]
                report = validate_graph(CycleGraph._of_words(tuple(words)))
                got = [(v.cycle, v.position, v.message) for v in report.violations]
                assert got == per_edge_violations(words), head

    @given(st.lists(st.sampled_from([F, SE]), min_size=1, max_size=32),
           st.lists(st.tuples(st.integers(0, 63), st.sampled_from(ALL_LABELS)), max_size=2))
    def test_matches_reference_on_mutated_forced_cycles(self, interior, mutations):
        word = list(forced_cycle(interior))
        for pos, lab in mutations:
            word[pos % len(word)] = lab
        word = tuple(word)
        report = validate_graph(CycleGraph((word,)))
        assert report.ok == reference_ok(word)
        if not report.ok:
            assert_located(word, report)


class TestCanonicalWord:
    def test_sp_f_rotates_to_f_sp(self):
        assert canonicalize_cycle((SP, F)) == (F, SP)

    def test_four_cycle(self):
        # enumerate all 8 rotations/reflections by hand: minimum starts F,RP,SE,RP
        assert canonicalize_cycle((RP, SE, RP, F)) == (F, RP, SE, RP)
        assert brute_canonical((RP, SE, RP, F)) == (F, RP, SE, RP)

    def test_reflection_symmetric_word(self):
        assert canonicalize_cycle((F, SP)[::-1]) == (F, SP)

    @given(st.sampled_from(VALID_CYCLES), st.integers(0, 7), st.booleans())
    def test_rotation_reflection_invariance(self, word, k, reflect):
        moved = word[k % len(word):] + word[:k % len(word)]
        if reflect:
            moved = moved[::-1]
        assert canonicalize_cycle(moved) == canonicalize_cycle(word)

    @given(st.lists(st.sampled_from(ALL_LABELS), min_size=2, max_size=256))
    def test_matches_brute_force_on_arbitrary_words(self, labels):
        assert canonicalize_cycle(labels) == brute_canonical(labels)

    @given(st.lists(st.sampled_from(ALL_LABELS), min_size=1, max_size=8),
           st.integers(1, 8), st.booleans(), st.integers(0, 127))
    def test_matches_brute_force_on_periodic_and_palindromic_words(
            self, block, repeats, mirrored, shift):
        # Many rotations tie here, which is where least-rotation index
        # arithmetic goes wrong.
        word = block * repeats
        if mirrored:
            word += word[::-1]
        shift %= len(word)
        word = word[shift:] + word[:shift]
        assert canonicalize_cycle(word) == brute_canonical(word)

    @given(st.lists(st.sampled_from([F, SE]), min_size=1, max_size=32),
           st.integers(0, 63), st.booleans(), st.integers(1, 32))
    @example([F, SE], 3, True, 16)  # (F,RP,SE,RP) x 16
    @example([F], 1, False, 32)  # (F,SP) x 32
    @example([SE], 5, True, 32)  # (SE,K) x 32
    def test_valid_cycles_match_brute_force(self, interior, shift, reflect, repeats):
        """Valid cycles of up to 64 edges are canonicalized on pair words:
        presented at any rotation (an odd one starts on a boundary arc),
        reflected or not, and as periodic words."""
        word = forced_cycle(interior * min(repeats, 32 // len(interior)))
        shift %= len(word)
        moved = word[shift:] + word[:shift]
        if reflect:
            moved = moved[::-1]
        assert canonicalize_cycle(moved) == brute_canonical(word)

    @given(st.one_of(
        st.lists(st.integers(0, 3), max_size=300),
        # periodic words, where many runs tie
        st.tuples(st.lists(st.integers(0, 3), min_size=1, max_size=6), st.integers(1, 80))
        .map(lambda drawn: drawn[0] * drawn[1]),
        # a run of the least letter up to twice the length the run search takes
        st.tuples(st.integers(0, 130), st.lists(st.integers(1, 3), max_size=200))
        .map(lambda drawn: [0] * drawn[0] + drawn[1]),
        # two to ten longest runs of the least letter, whose rotations must
        # be compared
        st.tuples(st.integers(1, 5),
                  st.lists(st.lists(st.integers(1, 2), min_size=16, max_size=24),
                           min_size=2, max_size=10))
        .map(lambda drawn: [x for tail in drawn[1] for x in [0] * drawn[0] + tail])))
    def test_least_rotation_matches_brute_force(self, letters):
        word = bytes(letters)
        i = _least_rotation(word)
        assert word[i:] + word[:i] == min([word[j:] + word[:j] for j in range(len(word))],
                                          default=b"")

    def test_matches_brute_force_on_every_word_up_to_6(self):
        count = 0
        for length in range(1, 7):
            for word in itertools.product(ALL_LABELS, repeat=length):
                assert canonicalize_cycle(word) == brute_canonical(word), word
                count += 1
        assert count == 19530

    @pytest.mark.parametrize("name", ["forced", "periodic"])
    def test_linear_time_on_64000_edges(self, name):
        # brute_canonical takes about a minute per call at this size.
        if name == "forced":
            rng = random.Random(64000)
            word = forced_cycle([rng.choice((F, SE)) for _ in range(32000)])
        else:
            word = (F, RP, SE, RP) * 16000
        assert len(word) == 64000
        moved = (word[12345:] + word[:12345])[::-1]
        results = []
        for variant in (word, moved):
            start = time.perf_counter()
            results.append(canonicalize_cycle(variant))
            assert time.perf_counter() - start < 2.0
        assert results[0] == results[1]
        if name == "periodic":
            assert results[0] == word
        else:
            found = bytes(results[0])
            assert found in bytes(word) * 2 or found in bytes(word[::-1]) * 2


class TestGraphCanonical:
    def test_cycle_order_is_forgotten(self):
        a = CycleGraph.from_labels([["F", "SP"], ["SE", "K"]])
        b = CycleGraph.from_labels([["K", "SE"], ["SP", "F"]])
        assert graph_canonical(a) == graph_canonical(b)

    def test_empty(self):
        assert graph_canonical(CycleGraph()) == ()

    def test_random_rotations_of_ten_cycle_are_stable(self):
        word = (F, SP, F, SP, F, RP, SE, RP, F, SP)
        assert validate_graph(CycleGraph((word,))).ok
        expected = graph_canonical(CycleGraph((word,)))
        for k in range(10):
            rotated = word[k:] + word[:k]
            for variant in (rotated, rotated[::-1]):
                assert graph_canonical(CycleGraph((variant,))) == expected


def brute_isomorphic(a: CycleGraph, b: CycleGraph) -> bool:
    """Oracle: search over all assignments of cycles and all rotations and
    reflections inside each cycle."""
    if len(a) != len(b):
        return False

    def same_cycle(x, y):
        if len(x) != len(y):
            return False
        variants = [y[i:] + y[:i] for i in range(len(y))]
        rev = y[::-1]
        variants += [rev[i:] + rev[:i] for i in range(len(y))]
        return x in variants

    for perm in itertools.permutations(range(len(b))):
        if all(same_cycle(a.cycles[i], b.cycles[perm[i]]) for i in range(len(a))):
            return True
    return False


class TestIsomorphism:
    def test_rotated_singletons(self):
        assert graphs_isomorphic(CycleGraph.from_labels([["F", "SP"]]),
                                 CycleGraph.from_labels([["SP", "F"]]))

    def test_different_label_multisets(self):
        assert not graphs_isomorphic(CycleGraph.from_labels([["F", "SP"]]),
                                     CycleGraph.from_labels([["SE", "K"]]))

    def test_six_cycles_differing_by_reflection(self):
        word = (F, SP, F, RP, SE, RP)
        assert validate_graph(CycleGraph((word,))).ok
        assert graphs_isomorphic(CycleGraph((word,)), CycleGraph((word[::-1],)))

    def test_agrees_with_brute_force_up_to_length_8(self, exhaustive_cycles_8):
        rng = random.Random(88)
        for _ in range(400):
            cycles_a = [rng.choice(exhaustive_cycles_8) for _ in range(rng.randint(0, 3))]
            if rng.random() < 0.5:
                cycles_b = list(cycles_a)
                rng.shuffle(cycles_b)
                moved = []
                for word in cycles_b:
                    k = rng.randrange(len(word))
                    variant = word[k:] + word[:k]
                    if rng.random() < 0.5:
                        variant = variant[::-1]
                    moved.append(variant)
                cycles_b = moved
            else:
                cycles_b = [rng.choice(exhaustive_cycles_8)
                            for _ in range(rng.randint(0, 3))]
            a, b = CycleGraph(tuple(cycles_a)), CycleGraph(tuple(cycles_b))
            assert graphs_isomorphic(a, b) == brute_isomorphic(a, b)

    @given(st.data())
    def test_agrees_with_brute_force(self, data):
        cycles_a = data.draw(st.lists(st.sampled_from(VALID_CYCLES), min_size=0, max_size=3))
        if data.draw(st.booleans()):
            # a shuffled/rotated copy, which must compare isomorphic
            perm = data.draw(st.permutations(cycles_a))
            cycles_b = []
            for word in perm:
                k = data.draw(st.integers(0, 7)) % len(word)
                moved = word[k:] + word[:k]
                if data.draw(st.booleans()):
                    moved = moved[::-1]
                cycles_b.append(moved)
        else:
            cycles_b = data.draw(st.lists(st.sampled_from(VALID_CYCLES),
                                          min_size=0, max_size=3))
        a, b = CycleGraph(tuple(cycles_a)), CycleGraph(tuple(cycles_b))
        assert graphs_isomorphic(a, b) == brute_isomorphic(a, b)


class TestVertexTyping:
    def test_total_and_unambiguous_on_valid_cycles(self):
        for word in VALID_CYCLES:
            labels = vertex_labels(word)
            assert len(labels) == len(word)
            assert set(labels) <= {F, SE}

    def test_counts_match_interior_arc_ends(self):
        # each F arc has two F-type corners, each RP arc one of each type
        for word in VALID_CYCLES:
            labels = vertex_labels(word)
            f_corners = sum(1 for lab in labels if lab is F)
            assert f_corners == 2 * word.count(SP) + word.count(RP)

    def test_ambiguous_corner_raises(self):
        with pytest.raises(ValueError):
            vertex_labels((F, F))
        with pytest.raises(ValueError):
            vertex_labels((SP, K))


class TestRpParity:
    def test_every_accepted_cycle_has_even_rp_count(self):
        assert VALID_CYCLES  # sanity: the filter is not vacuous
        for word in VALID_CYCLES:
            assert word.count(RP) % 2 == 0


class TestWordEnumeration:
    def test_agrees_with_brute_force_filter_up_to_6(self):
        expected = sorted({canonicalize_cycle(w) for w in VALID_CYCLES})
        assert list(valid_cycle_words(6)) == expected

    def test_agrees_with_exhaustive_scan_up_to_8(self, exhaustive_cycles_8):
        expected = sorted({canonicalize_cycle(w) for w in exhaustive_cycles_8})
        assert list(valid_cycle_words(8)) == expected

    def test_length_two_words(self):
        assert valid_cycle_words(2) == ((F, SP), (SE, K))
