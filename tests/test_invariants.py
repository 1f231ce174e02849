"""Validation, normalization, canonical forms, and the 2d classification."""

import random
import re
from fractions import Fraction
from numbers import Integral

import pytest
from hypothesis import given, strategies as st

import orbitinv
from orbitinv import (
    CycleGraph,
    EnumerationBounds,
    InvariantError,
    OrbitInvariants,
    SeifertPair,
    Surface2d,
    canonical_form,
    cap_off,
    classify_2d,
    derived_counts,
    emit_json,
    enumerate_invariants,
    equivalent,
    normalize,
    serialize,
    validate,
)

from datum_helper import datum
from numpy_helper import numpy, numpy_case


class TestValidate:
    def test_nonzero_b_next_to_fixed_circles(self):
        report = validate(datum(b=3, f=2))
        assert not report.ok
        assert [v.condition for v in report.violations] == ["1"]

    def test_non_coprime_pair(self):
        report = validate(datum(pairs=[(4, 2)]))
        assert not report.ok
        assert report.violations[0].condition == "2"
        assert "gcd" in report.violations[0].message

    def test_closed_free_orientable_any_b(self):
        assert validate(datum(b=5, g=2, pairs=[(3, 1)])).ok

    def test_nonorientable_pair_range(self):
        report = validate(datum(eps="n", g=1, pairs=[(5, 4)]))
        assert not report.ok
        assert report.violations[0].condition == "2"

    def test_nonorientable_b_in_z2(self):
        assert validate(datum(b=1, eps="n", g=1)).ok
        assert not validate(datum(b=2, eps="n", g=1)).ok
        assert not validate(datum(b=-1, eps="n", g=1)).ok

    def test_nonorientable_b_zero_with_m_equal_2(self):
        assert validate(datum(b=0, eps="n", g=1, pairs=[(2, 1)])).ok
        report = validate(datum(b=1, eps="n", g=1, pairs=[(2, 1)]))
        assert not report.ok
        assert report.violations[0].condition == "1"

    def test_nonorientable_genus_zero(self):
        report = validate(datum(eps="n", g=0))
        assert not report.ok
        assert report.violations[0].condition == "nonorientable-genus"

    def test_bad_graph_reported_as_condition_3(self):
        report = validate(datum(graph=[["F", "SE"]]))
        assert not report.ok
        assert all(v.condition == "3" for v in report.violations)

    def test_garbage_fields_reported_not_raised(self):
        report = validate(datum(g=-1, f=-2))
        assert not report.ok
        assert all(v.condition == "domain" for v in report.violations)

    @pytest.mark.parametrize("pair, got", [
        (SeifertPair("3", 1), "'3', 1"),
        (SeifertPair(3, 1.0), "3, 1.0"),
        (SeifertPair(True, 1), "True, 1"),
        (SeifertPair(3, True), "3, True"),
        (SeifertPair(3, Fraction(1)), "3, Fraction(1, 1)"),
    ])
    def test_non_integer_pair_entries_reported_not_raised(self, pair, got):
        report = validate(datum(g=1, pairs=(pair, (4, 2))))
        assert [(v.condition, v.message) for v in report.violations] == [
            ("domain", f"pair #0 {pair}: m and n must be integers, got {got}"),
            ("2", "pair #1 (4,2): gcd(m, n) = 2 != 1")]

    def test_numpy_pair_entries_stored_as_int(self):
        np = pytest.importorskip("numpy")
        for pair in (SeifertPair(np.int64(3), 1), (np.int64(3), np.int32(1))):
            inv = datum(g=1, pairs=(pair, (4, 2)))
            assert inv.pairs[0] == SeifertPair(3, 1)
            assert [type(v) for v in (inv.pairs[0].m, inv.pairs[0].n)] == [int, int]
            assert [(v.condition, v.message) for v in validate(inv).violations] == [
                ("2", "pair #1 (4,2): gcd(m, n) = 2 != 1")]

    def test_int_subclass_pair_entries_count_as_integers(self):
        class Count(int):
            pass

        inv = datum(pairs=[SeifertPair(Count(3), Count(1))])
        assert validate(inv).ok
        assert [type(v) for v in (inv.pairs[0].m, inv.pairs[0].n)] == [int, int]
        report = validate(datum(eps="n", g=1, pairs=[SeifertPair(Count(5), Count(3))]))
        assert [str(v) for v in report.violations] == [
            "condition 2: pair #0 (5,3): need 0 < n <= m/2 for nonorientable data"]

    @pytest.mark.parametrize("eps", [5, None, True])
    def test_eps_outside_orientability_reported(self, eps):
        for inv in (datum(eps=eps), datum(b=3, eps=eps, pairs=[(5, 4)])):
            report = validate(inv)
            assert [v.condition for v in report.violations] == ["domain"]
            assert "eps" in report.violations[0].message
        with pytest.raises(InvariantError, match="domain"):
            cap_off(datum(eps=eps, t=1))

    @pytest.mark.parametrize("field", ["b", "g", "f", "s", "t"])
    @pytest.mark.parametrize("value", [True, False, "1", 1.0, Fraction(1)])
    def test_non_integer_fields_reported_not_raised(self, field, value):
        inv = datum(eps="n", g=1).replace(**{field: value})
        assert getattr(inv, field) is value
        report = validate(inv)
        assert not report.ok
        assert "domain" in [v.condition for v in report.violations]


class TestIntegralCounts:
    """Integral counts of any integer type are stored as ``int``."""

    def test_numpy_counts_give_the_int_datum(self):
        np = pytest.importorskip("numpy")
        inv = OrbitInvariants(b=np.int64(0), eps="o", g=np.int64(1), f=0, s=0, t=0)
        ref = datum(g=1)
        assert validate(inv).ok
        assert inv == ref and hash(inv) == hash(ref)
        assert serialize(inv) == serialize(ref) and emit_json(inv) == emit_json(ref)

    @pytest.mark.parametrize("field", ["b", "g", "f", "s", "t"])
    @pytest.mark.parametrize("value", [numpy_case(lambda np: np.int64(1)),
                                       numpy_case(lambda np: np.uint8(1)),
                                       numpy_case(lambda np: np.int32(1))])
    def test_each_count_becomes_int(self, field, value):
        inv = datum(eps="n", g=1).replace(**{field: value})
        assert type(getattr(inv, field)) is int
        assert inv == datum(eps="n", g=1).replace(**{field: 1})


def integral(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


PAIR_ENTRY = st.one_of(
    st.integers(-3, 12),
    *([st.integers(-3, 12).map(numpy.int64), st.integers(0, 12).map(numpy.uint8)]
      if numpy else []),
    st.booleans(),
    st.floats(),
    st.fractions(),
    st.text(max_size=3),
)


class TestPairEntries:
    """Tuple pairs keep every entry exactly: integral ones become ``int``,
    any other is left for ``validate`` to report as a domain violation."""

    @given(st.lists(st.tuples(PAIR_ENTRY, PAIR_ENTRY), max_size=3))
    def test_non_integral_entries_reported_never_truncated(self, pairs):
        inv = datum(g=1, pairs=pairs)
        for given_pair, pair in zip(pairs, inv.pairs):
            for value, kept in zip(given_pair, (pair.m, pair.n)):
                if integral(value):
                    assert type(kept) is int and kept == value
                else:
                    assert kept is value
        report = validate(inv)
        domain = [v.message.split(" ", 2)[1] for v in report.violations
                  if v.condition == "domain"]
        assert domain == [f"#{i}" for i, pair in enumerate(pairs)
                          if not all(map(integral, pair))]

    @pytest.mark.parametrize("pair", [(3.7, 1), (Fraction(7, 2), 1), ("5", "2"),
                                      (Fraction(3), 1), (True, 1)])
    def test_inexact_entries_are_not_truncated_into_admissibility(self, pair):
        inv = datum(pairs=[pair])
        assert (inv.pairs[0].m, inv.pairs[0].n) == pair
        assert [v.condition for v in validate(inv).violations] == ["domain"]
        with pytest.raises(InvariantError, match="domain"):
            cap_off(inv.replace(t=1))

    @pytest.mark.parametrize("pair", [(3, 1, 1), (3,), (), 5])
    def test_pair_of_other_length_is_named(self, pair):
        with pytest.raises(ValueError, match=re.escape(repr(pair))):
            datum(pairs=[pair])

    @pytest.mark.parametrize("field", ["pairs", "graph"])
    @pytest.mark.parametrize("value", [None, 5])
    def test_non_iterable_field_is_named(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} is an iterable .*, got {value}$"):
            datum(**{field: value})


class TestNormalize:
    def test_nonorientable_pair_reduction(self):
        inv = datum(eps="n", g=1, pairs=[(5, 4)])
        assert normalize(inv).pairs == (SeifertPair(5, 1),)

    def test_nonorientable_closed_free_b_mod_2(self):
        assert normalize(datum(b=3, eps="n", g=1)).b == 1
        assert normalize(datum(b=-4, eps="n", g=1)).b == 0

    def test_b_zeroed_when_some_m_is_2(self):
        inv = datum(b=1, eps="n", g=1, pairs=[(2, 1)])
        assert normalize(inv).b == 0

    def test_orientable_untouched(self):
        inv = datum(b=7, g=1, pairs=[(5, 4)])
        assert normalize(inv) == inv

    def test_non_normalizable_left_for_validate(self):
        inv = datum(pairs=[(4, 2)])
        assert normalize(inv) == inv
        assert not validate(normalize(inv)).ok

    def test_idempotent_on_census(self):
        bounds = EnumerationBounds(max_g=1, max_f=1, max_s=1, max_r=2, max_m=5,
                                   b_range=(-2, 2))
        for inv in enumerate_invariants(bounds):
            once = normalize(inv)
            assert normalize(once) == once

    @pytest.mark.parametrize("inv", [
        datum(eps="n", g=1, pairs=(SeifertPair("3", 1),)),
        datum(eps="n", g=1, pairs=(SeifertPair(5, 4.0),)),
        datum(b=True, eps="n", g=1),
        datum(b=3, eps="n", g=1, f="0"),
        datum(b=1.0, eps="n", g=1),
    ])
    def test_non_integer_values_left_for_validate(self, inv):
        assert normalize(inv) == inv
        with pytest.raises(InvariantError, match="domain"):
            canonical_form(inv)

    @given(st.integers(-9, 9), st.sampled_from("on"), st.integers(0, 3),
           st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
           st.lists(st.tuples(st.integers(2, 9), st.integers(1, 9)), max_size=3))
    def test_idempotent_on_arbitrary_data(self, b, eps, g, f, s, t, pairs):
        inv = datum(b=b, eps=eps, g=g, f=f, s=s, t=t, pairs=pairs)
        once = normalize(inv)
        assert normalize(once) == once


class TestDerivedCounts:
    def test_sphere_boundary_cycle(self):
        counts = derived_counts(datum(graph=[["F", "SP"]]))
        assert (counts.f0_minus_f, counts.s_p, counts.v_f, counts.v_s, counts.r_p) \
            == (1, 1, 2, 0, 0)

    def test_rp_pair_cycle(self):
        counts = derived_counts(datum(graph=[["F", "RP", "SE", "RP"]]))
        assert counts.f0_minus_f == 1 and counts.s0_minus_s == 1
        assert counts.r_p == 2 and counts.v_f == 2 and counts.v_s == 2
        # identity check: 2*s_p + r_p = 0 + 2 = v_f
        assert 2 * counts.s_p + counts.r_p == counts.v_f

    def test_empty_graph(self):
        counts = derived_counts(datum(f=1))
        assert (counts.f0_minus_f, counts.s0_minus_s, counts.s_p, counts.k,
                counts.r_p, counts.v_f, counts.v_s) == (0,) * 7
        assert counts.boundary_circles == 1

    def test_identities_across_census(self):
        bounds = EnumerationBounds(max_f=1, max_cycles=2, max_cycle_len=6)
        seen_graph = False
        for inv in enumerate_invariants(bounds):
            counts = derived_counts(inv)
            assert counts.v_f == 2 * counts.f0_minus_f == 2 * counts.s_p + counts.r_p
            assert counts.v_s == 2 * counts.s0_minus_s == 2 * counts.k + counts.r_p
            assert counts.v_f % 2 == 0 and counts.v_s % 2 == 0 and counts.r_p % 2 == 0
            seen_graph = seen_graph or bool(inv.graph)
        assert seen_graph


class TestCanonicalForm:
    def test_pair_order_is_forgotten(self):
        a = datum(b=5, g=1, pairs=[(5, 2), (3, 1)])
        b = datum(b=5, g=1, pairs=[(3, 1), (5, 2)])
        assert canonical_form(a) == canonical_form(b)

    def test_cycle_rotation_is_forgotten(self):
        a = datum(graph=[["SP", "F"]])
        b = datum(graph=[["F", "SP"]])
        assert canonical_form(a).graph_canon == canonical_form(b).graph_canon
        assert canonical_form(a) == canonical_form(b)

    def test_distinct_counts_distinguish(self):
        assert canonical_form(datum(g=1, f=1)) != canonical_form(datum(g=1, s=1))

    def test_invalid_input_raises_with_violation(self):
        with pytest.raises(InvariantError, match="condition 2"):
            canonical_form(datum(pairs=[(4, 2)]))

    def test_congruence_under_random_perturbation(self):
        rng = random.Random(7)
        bounds = EnumerationBounds(max_g=1, max_f=1, max_s=1, max_r=2, max_m=4,
                                   max_cycles=2, max_cycle_len=6, b_range=(0, 1))
        for inv in enumerate_invariants(bounds):
            expected = canonical_form(inv)
            for _ in range(3):
                assert canonical_form(perturb(inv, rng)) == expected


def perturb(inv: OrbitInvariants, rng: random.Random) -> OrbitInvariants:
    """An equivalent presentation: pairs shuffled (and reflected mod m when
    nonorientable), cycles rotated/reflected and reordered, b shifted by 2
    when it is only defined mod 2."""
    pairs = list(inv.pairs)
    rng.shuffle(pairs)
    if inv.eps.value == "n":
        pairs = [SeifertPair(p.m, p.m - p.n) if rng.random() < 0.5 and 0 < p.n < p.m else p
                 for p in pairs]
    cycles = []
    for word in inv.graph.cycles:
        k = rng.randrange(len(word))
        moved = word[k:] + word[:k]
        if rng.random() < 0.5:
            moved = moved[::-1]
        cycles.append(moved)
    rng.shuffle(cycles)
    b = inv.b
    if inv.eps.value == "n" and inv.f + inv.s + inv.t == 0 and not inv.graph:
        b += 2 * rng.randint(0, 3)
    return inv.replace(b=b, pairs=tuple(pairs), graph=CycleGraph(tuple(cycles)))


class TestEquivalent:
    def test_pair_permutation(self):
        a = datum(b=2, g=1, pairs=[(5, 2), (3, 1), (7, 3)])
        b = datum(b=2, g=1, pairs=[(7, 3), (5, 2), (3, 1)])
        assert equivalent(a, b)

    def test_nonorientable_reduction(self):
        a = datum(eps="n", g=1, pairs=[(5, 4)])
        b = datum(eps="n", g=1, pairs=[(5, 1)])
        assert equivalent(a, b)

    def test_obstruction_sign_matters(self):
        assert not equivalent(datum(b=1), datum(b=-1))

    def test_equivalence_relation_on_census(self):
        bounds = EnumerationBounds(max_g=1, max_f=1, max_r=1, max_m=4, b_range=(-1, 1))
        census = list(enumerate_invariants(bounds))
        rng = random.Random(3)
        for inv in census:
            assert equivalent(inv, inv)
        for _ in range(60):
            a, b, c = rng.choice(census), rng.choice(census), rng.choice(census)
            assert equivalent(a, b) == equivalent(b, a)
            if equivalent(a, b) and equivalent(b, c):
                assert equivalent(a, c)


class TestClassify2d:
    TABLE = {
        (1, 1, 0): Surface2d.DISK,
        (2, 0, 0): Surface2d.CYLINDER,
        (1, 0, 1): Surface2d.MOBIUS_BAND,
        (0, 2, 0): Surface2d.SPHERE,
        (0, 1, 1): Surface2d.PROJECTIVE_PLANE,
        (0, 0, 0): Surface2d.TORUS,
        (0, 0, 2): Surface2d.KLEIN_BOTTLE,
    }

    def test_the_seven_rows(self):
        for (b, f, s), surface in self.TABLE.items():
            assert classify_2d(b, f, s) is surface

    def test_disk_and_klein_bottle_rows(self):
        assert classify_2d(1, 1, 0) is Surface2d.DISK
        assert classify_2d(0, 0, 2) is Surface2d.KLEIN_BOTTLE

    def test_no_such_manifold(self):
        assert classify_2d(3, 0, 0) is None
        assert classify_2d(0, 1, 2) is None

    def test_injective_on_defined_inputs(self):
        values = [classify_2d(*key) for key in self.TABLE]
        assert len(set(values)) == len(self.TABLE) == 7

    @pytest.mark.parametrize("value", [True, False, "1", 1.0, Fraction(1), None, [1]])
    @pytest.mark.parametrize("position, name", enumerate(["boundary", "fixed", "special"]))
    def test_non_integer_count_refused_by_name(self, position, name, value):
        args = [1, 1, 0]
        args[position] = value
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            classify_2d(*args)

    def test_numpy_and_negative_counts(self):
        np = pytest.importorskip("numpy")
        assert classify_2d(np.int64(1), np.int8(1), np.uint8(0)) is Surface2d.DISK
        assert classify_2d(-1, 0, 0) is None


class TestNonDatumArguments:
    """Every entry point that takes a datum refuses anything else with a
    ``TypeError`` naming the argument."""

    ENTRY_POINTS = {
        "validate": validate,
        "normalize": normalize,
        "canonical_form": canonical_form,
        "derived_counts": derived_counts,
        "cap_off": cap_off,
        "orbit_euler_characteristic": orbitinv.orbit_euler_characteristic,
        "EquivariantCohomology": orbitinv.EquivariantCohomology,
        "is_formal": orbitinv.is_formal,
        "euler_number": orbitinv.euler_number,
        "fixed_set_shape": orbitinv.fixed_set_shape,
        "orbit_space_poincare": orbitinv.orbit_space_poincare,
        "equivariant_poincare": orbitinv.equivariant_poincare,
        "betti": lambda inv: orbitinv.betti(inv, 1),
        "serialize": serialize,
    }
    BAD = ["x", None, 3, (0, "o", 0, 0, 0, 0), object()]
    BAD_IDS = ["str", "None", "int", "tuple", "object"]

    @pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_refused_by_name(self, entry, bad):
        message = f"inv must be an OrbitInvariants, got {bad!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            self.ENTRY_POINTS[entry](bad)

    @pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
    def test_equivalent_names_either_side(self, bad):
        good = datum(f=1)
        for name, args in (("a", (bad, good)), ("b", (good, bad))):
            message = f"{name} must be an OrbitInvariants, got {bad!r}"
            with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
                equivalent(*args)
