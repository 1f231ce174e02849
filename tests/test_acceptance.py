"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every expected value here is either a closed-form identity or checked
against an independent brute-force oracle computed in this file.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from orbitinv import (
    CycleGraph,
    EdgeLabel,
    EnumerationBounds,
    OrbitInvariants,
    Poly,
    betti,
    canonical_form,
    cap_off,
    cup,
    degree_decompose,
    derived_counts,
    enumerate_invariants,
    equivariant_poincare,
    euler_number,
    inverse_mod,
    is_formal,
    module_action,
    parse,
    parse_with_diagnostics,
    serialize,
    validate,
    validate_graph,
)
from series_reference import reduced
from test_elements import random_element, ring_for
from test_invariants import perturb

ONE_MINUS_X2 = Poly((1, 0, -1))


def closed(eps, g, f, s, b=0):
    return OrbitInvariants(b=b, eps=eps, g=g, f=f, s=s, t=0)


def report(n, text):
    print(f"criterion {n}: PASS - {text}")


def test_criterion_1_betti_formula_agreement():
    started = time.perf_counter()
    checked = 0
    for eps in ("o", "n"):
        for g in range(0 if eps == "o" else 1, 6):
            for f in range(6):
                for s in range(6):
                    if f + s == 0:
                        continue
                    inv = closed(eps, g, f, s)
                    b1 = (2 * g if eps == "o" else g) + f + s - 1
                    expected = [1, b1] + [f] * 19
                    assert equivariant_poincare(inv).expansion(20) == expected
                    checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, f"series expansion matches the closed-form Betti numbers on "
              f"{checked} closed data through degree 20 in {elapsed:.2f}s")


def test_criterion_2_series_identities():
    for f in range(1, 11):
        lhs = equivariant_poincare(closed("o", 0, f, 0))
        rhs = reduced(Poly((1, f - 1, f - 1, 1)), ONE_MINUS_X2)
        assert lhs == rhs
        rhs2 = reduced(Poly((1, f, f - 1)), ONE_MINUS_X2)
        assert equivariant_poincare(closed("o", 0, f, 1)) == rhs2
        assert equivariant_poincare(closed("n", 1, f, 0)) == rhs2
    report(2, "both generator-series identities hold as reduced fractions for f=1..10")


def test_criterion_3_formality_free_module_consistency():
    for f in range(1, 6):
        for inv in (closed("o", 0, f, 0), closed("o", 0, f, 1), closed("n", 1, f, 0)):
            result = is_formal(inv)
            assert result.formal
            degree_poly = [0, 0, 0, 0]
            for gen in result.generators:
                degree_poly[gen.degree] += 1
            assert reduced(Poly(degree_poly), ONE_MINUS_X2) == equivariant_poincare(inv)

    mismatches = 0
    for eps in ("o", "n"):
        for g in range(0 if eps == "o" else 1, 4):
            for s in range(4):
                for f in range(1, 6):
                    inv = closed(eps, g, f, s)
                    monotone_fails = betti(inv, 1) > betti(inv, 3)
                    if monotone_fails != (not is_formal(inv).formal):
                        mismatches += 1
    assert mismatches == 0
    report(3, "formal families reproduce their series from generator degrees; "
              "the b1 <= b3 obstruction detects exactly the non-formal data")


def test_criterion_4_euler_number_oracle():
    np = pytest.importorskip("numpy")
    for m in range(2, 1001):
        values = np.arange(1, m, dtype=np.int64)
        is_unit = (np.outer(values, values) % m) == 1
        coprime = np.array([math.gcd(m, int(n)) == 1 for n in values])
        assert (is_unit.sum(axis=1) == coprime).all(), f"inverse not unique mod {m}"
        for idx in np.nonzero(coprime)[0]:
            brute = int(np.argmax(is_unit[idx])) + 1
            assert inverse_mod(int(values[idx]), m) == brute
    assert inverse_mod(2, 3) == 2
    assert inverse_mod(3, 5) == 2
    assert euler_number(parse("{b=1;(o,g=0,f=0,s=0,t=0);(3,2),(5,3)}")) == Fraction(31, 15)
    report(4, "extended-Euclid inverses equal brute-force search for all "
              "coprime pairs with 2 <= m <= 1000; spot values agree")


def test_criterion_5_parity_suite(exhaustive_cycles_8):
    assert len(exhaustive_cycles_8) > 0
    rng = random.Random(5)
    graphs = [CycleGraph((word,)) for word in exhaustive_cycles_8]
    graphs += [CycleGraph(tuple(rng.sample(exhaustive_cycles_8, rng.randint(2, 3))))
               for _ in range(300)]
    for graph in graphs:
        assert validate_graph(graph).ok
        counts = derived_counts(OrbitInvariants(b=0, eps="o", g=0, f=0, s=0, t=0,
                                                graph=graph))
        assert counts.v_f == 2 * counts.f0_minus_f == 2 * counts.s_p + counts.r_p
        assert counts.v_s == 2 * counts.s0_minus_s == 2 * counts.k + counts.r_p
        for cycle in graph.cycles:
            assert cycle.count(EdgeLabel.RP) % 2 == 0
    report(5, f"corner identities and per-cycle RP parity hold on all "
              f"{len(exhaustive_cycles_8)} cycles up to length 8 "
              f"(plus {len(graphs) - len(exhaustive_cycles_8)} multi-cycle unions)")


def test_criterion_6_canonical_form_stability():
    bounds = EnumerationBounds(max_g=1, max_f=1, max_s=1, max_t=1, max_r=2,
                               max_m=4, max_cycles=2, max_cycle_len=6, b_range=(0, 1))
    census = list(enumerate_invariants(bounds))
    rng = random.Random(6)
    mismatches = 0
    trials = 0
    while trials < 10_000:
        inv = census[trials % len(census)]
        if canonical_form(perturb(inv, rng)) != canonical_form(inv):
            mismatches += 1
        trials += 1
    assert mismatches == 0
    report(6, f"10,000 rotation/reflection/permutation perturbations over a "
              f"census of {len(census)} data produced identical canonical forms")


def test_criterion_7_capping_soundness():
    bounds = EnumerationBounds(max_g=2, max_f=1, max_s=1, max_t=2, max_r=1,
                               max_m=3, max_cycles=2, max_cycle_len=6)
    failures = 0
    capped = 0
    for inv in enumerate_invariants(bounds):
        if inv.closed:
            continue
        capped += 1
        rep = cap_off(inv)
        out = rep.output
        ok = (validate(out).ok and out.t == 0 and not out.graph and out.b == 0
              and rep.chi_after == rep.chi_before + inv.t
              - inv.graph.edge_count(EdgeLabel.RP) // 2)
        if not ok:
            failures += 1
    assert capped > 1000
    assert failures == 0
    report(7, f"all {capped} with-boundary data in bounds cap off to admissible "
              f"closed data with the Euler-characteristic identity")


def test_criterion_8_ring_axioms():
    rng = random.Random(8)
    for _ in range(1000):
        ring = ring_for(f=rng.randint(1, 4), g=rng.randint(0, 2), s=rng.randint(0, 2))
        a = random_element(ring, rng, max_u_degree=4)
        b = random_element(ring, rng, max_u_degree=4)
        c = random_element(ring, rng, max_u_degree=4)
        assert cup(a + b, c) == cup(a, c) + cup(b, c)
        assert cup(c, a + b) == cup(c, a) + cup(c, b)
        assert cup(cup(a, b), c) == cup(a, cup(b, c))
        a1, b1 = degree_decompose(a).get(1), degree_decompose(b).get(1)
        if a1 is not None and b1 is not None:
            assert cup(a1, b1).is_zero
        m, n = rng.randint(0, 2), rng.randint(0, 2)
        assert module_action(m + n, a) == module_action(m, module_action(n, a))
    report(8, "cup is bilinear and associative, degree-1 products vanish, and "
              "the module action adds exponents on 1000 random element triples")


def test_criterion_9_round_trip_and_fuzz():
    bounds = EnumerationBounds(max_g=2, max_f=2, max_s=2, max_t=2, max_r=2,
                               max_m=4, max_cycles=2, max_cycle_len=4, b_range=(-1, 1))
    census = list(itertools.islice(enumerate_invariants(bounds), 10_000))
    assert len(census) == 10_000
    for inv in census:
        assert parse(serialize(inv)) == inv

    rng = random.Random(9)
    alphabet = "{}();,=<>bognfst0123456789FSEPKR -"
    crashes = 0
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
        try:
            parse_with_diagnostics(text)
        except Exception:
            crashes += 1
    assert crashes == 0
    report(9, "parse/serialize round-trips 10,000 census data exactly; "
              "100,000 fuzz inputs produced diagnostics, never a crash")
