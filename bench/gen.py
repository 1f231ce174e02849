"""Seeded input generator for the benchmark.

Inputs are built from the seed alone and handed to the library as text, so
the library under test never helps to make its own inputs: nothing here
imports ``orbitinv``.  Cycles come from a random word of interior labels
(F/SE) with every boundary arc forced by its two neighbours:

    F . F -> SP      SE . SE -> K      mixed -> RP

which yields exactly the admissible cycles.  Expected canonical text is
worked out here too (Booth's least rotation, in ``canonical_cycle``), so it
serves as an oracle for ``serialize`` and ``canonical_form``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

F, SE, SP, K, RP = range(5)
NAMES = ("F", "SE", "SP", "K", "RP")


@dataclass(frozen=True)
class Datum:
    """The benchmark's own model of ``{b; (eps,g,f,s,t); pairs; G}``.

    Labels are the ints above, whose order F < SE < SP < K < RP is the
    canonical word order.
    """

    b: int
    eps: str
    g: int
    f: int
    s: int
    t: int
    pairs: tuple = ()
    cycles: tuple = ()

    @property
    def closed(self) -> bool:
        return self.t == 0 and not self.cycles

    @property
    def boundary_circles(self) -> int:
        return self.f + self.s + self.t + len(self.cycles)

    def label_count(self, label: int) -> int:
        return sum(c.count(label) for c in self.cycles)


def forced_cycle(word) -> list:
    """Interleave an F/SE word with the boundary arcs it forces."""
    k = len(word)
    out = []
    for i, a in enumerate(word):
        b = word[(i + 1) % k]
        out.append(a)
        out.append(SP if a == b == F else K if a == b == SE else RP)
    return out


def least_rotation(s) -> int:
    """Start of the lexicographically least rotation (Booth, 1980)."""
    n = len(s)
    fail = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = s[j % n]
        i = fail[j - k - 1]
        while i != -1 and sj != s[(k + i + 1) % n]:
            if sj < s[(k + i + 1) % n]:
                k = j - i - 1
            i = fail[i]
        if i == -1 and sj != s[(k + i + 1) % n]:
            if sj < s[(k + i + 1) % n]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k % n


def canonical_cycle(cycle) -> tuple:
    """Least word over all rotations of the cycle and of its reversal."""
    cycle = list(cycle)
    rev = cycle[::-1]
    a, b = least_rotation(cycle), least_rotation(rev)
    return min(tuple(cycle[a:] + cycle[:a]), tuple(rev[b:] + rev[:b]))


def render(d: Datum, pairs=None, cycles=None) -> str:
    """Text in the brace notation; pairs and cycles as given, or as stored."""
    pairs = d.pairs if pairs is None else pairs
    cycles = d.cycles if cycles is None else cycles
    out = [f"{{b={d.b};({d.eps},g={d.g},f={d.f},s={d.s},t={d.t})"]
    if pairs:
        out.append(";" + ",".join(f"({m},{n})" for m, n in pairs))
    if cycles:
        out.append(";G=[" + ",".join(
            "<" + ",".join(NAMES[x] for x in c) + ">" for c in cycles) + "]")
    out.append("}")
    return "".join(out)


def canonical_text(d: Datum) -> str:
    """What ``serialize`` must print: pairs sorted, canonical words sorted."""
    return render(d, sorted(d.pairs), sorted(canonical_cycle(c) for c in d.cycles))


def random_pairs(rng: random.Random, eps: str, count: int, max_m: int) -> list:
    """Admissible, already normalized pairs: 0 < n < m (o), 0 < n <= m/2 (n)."""
    out = []
    while len(out) < count:
        m = rng.randint(2, max_m)
        top = m - 1 if eps == "o" else m // 2
        n = rng.randint(1, top)
        if math.gcd(m, n) == 1:
            out.append((m, n))
    return out


def random_cycle(rng: random.Random, interior: int) -> list:
    return forced_cycle([rng.randrange(2) for _ in range(interior)])


def present(rng: random.Random, cycle) -> list:
    """A seeded rotation of the cycle, reflected half of the time."""
    r = rng.randrange(len(cycle))
    out = list(cycle[r:]) + list(cycle[:r])
    return out[::-1] if rng.random() < 0.5 else out


def _closed_obstruction(rng, eps, s, pairs) -> int:
    if s:
        return 0
    if eps == "o":
        return rng.randint(-1, 1)
    return 0 if any(m == 2 for m, _ in pairs) else rng.randint(0, 1)


# The (eps, g, s) shapes over which closed data with fixed circles are
# equivariantly formal.
FORMAL_SHAPES = (("o", 0, 0), ("o", 0, 1), ("n", 1, 0))

# What pipeline lines look like, counted once over the whole census stream
# of acceptance criterion 9's box (oracles.CENSUS_BOUNDS, 47,199 data) at
# the commit that defined the benchmark.  Kinds: with boundary; closed with
# fixed circles of a formal shape, or of another shape; closed without.
KIND_SHARES = {"boundary": 46314, "formal": 104, "fixed": 394, "free": 387}
KINDS = tuple(KIND_SHARES)
# Per kind: data with an orientable surface, of all; data with 0, 1 and 2
# pairs; formal data by shape (FORMAL_SHAPES order); with-boundary data by
# number of cycles; free data by s = 0, 1, 2.  The other fields are drawn
# evenly over the box: g (0..2 orientable, 1..2 not), s, t, b and f (0..2;
# 1..2 with fixed circles).
ORIENTABLE = {"boundary": (35154, 46314), "fixed": (294, 394), "free": (315, 387)}
PAIR_COUNTS = {"boundary": (2790, 11718, 31806), "formal": (6, 26, 72),
               "fixed": (24, 100, 270), "free": (23, 97, 267)}
FORMAL_SHAPE_COUNTS = (42, 42, 20)
CYCLE_COUNTS = (1494, 11205, 33615)
FREE_S = (221, 83, 83)
# Pair orders stay within the box (m <= 4), but cycles have up to 12 edges,
# where the box stops at 4, so that canonical words and capping see some
# length.
MAX_INTERIOR = 6
MAX_M = 4


def small_datum(rng: random.Random, kind: str) -> Datum:
    """A census-shaped admissible datum of the given kind."""
    if kind == "formal":
        eps, g, s = rng.choices(FORMAL_SHAPES, FORMAL_SHAPE_COUNTS)[0]
    else:
        while True:
            o, total = ORIENTABLE[kind]
            eps = "o" if rng.randrange(total) < o else "n"
            g = rng.randint(0, 2) if eps == "o" else rng.randint(1, 2)
            s = rng.choices((0, 1, 2), FREE_S)[0] if kind == "free" else rng.randint(0, 2)
            if kind != "fixed" or (eps, g, s) not in FORMAL_SHAPES:
                break
    npairs = rng.choices((0, 1, 2), PAIR_COUNTS[kind])[0]
    pairs = tuple(sorted(random_pairs(rng, eps, npairs, MAX_M)))
    if kind in ("formal", "fixed"):
        return Datum(0, eps, g, rng.randint(1, 2), s, 0, pairs)
    if kind == "free":
        return Datum(_closed_obstruction(rng, eps, s, pairs), eps, g, 0, s, 0, pairs)
    ncycles = rng.choices((0, 1, 2), CYCLE_COUNTS)[0]
    t = rng.randint(0 if ncycles else 1, 2)
    cycles = tuple(sorted(canonical_cycle(random_cycle(rng, rng.randint(1, MAX_INTERIOR)))
                          for _ in range(ncycles)))
    return Datum(0, eps, g, rng.randint(0, 2), s, t, pairs, cycles)


def kind_schedule(count: int) -> list:
    """``count`` kinds in KIND_SHARES proportions, each kind spread evenly
    along the list (smooth weighted round robin)."""
    total = sum(KIND_SHARES.values())
    credit = dict.fromkeys(KINDS, 0)
    out = []
    for _ in range(count):
        for k in KINDS:
            credit[k] += KIND_SHARES[k]
        kind = max(KINDS, key=credit.get)
        credit[kind] -= total
        out.append(kind)
    return out


def pipeline_lines(seed: int, count: int) -> list:
    """(line, datum) pairs shaped like census output: canonical text.

    Kinds follow a fixed schedule, so every seed gives the same mix of work;
    the seed draws the rest.
    """
    rng = random.Random(f"pipeline:{seed}")
    out = []
    for kind in kind_schedule(count):
        d = small_datum(rng, kind)
        out.append((canonical_text(d), d))
    return out


def van_der_corput(i: int, base: int) -> float:
    q, denom = 0.0, 1
    while i:
        denom *= base
        i, r = divmod(i, base)
        q += r / denom
    return q


@dataclass
class LongInput:
    line: str
    datum: Datum
    edges: int
    canon: tuple               # canonical word of the cycle
    expected_text: str         # what serialize must print
    bad: str | None            # the condition an inadmissible variant violates
    alt_cycle: tuple           # another rotation/reflection of the cycle


BAD_EVERY = 8


def long_inputs(seed: int, count: int) -> list:
    """Single long cycles with long pair lists.

    Edge counts (500..4000) and pair counts (100..3000) are log-uniform,
    placed on a Halton sequence so that every prefix of the list covers the
    size range evenly and every seed gets the same sizes; the seed draws the
    words, the pairs, the other fields and the presentation.  Every BAD_EVERY-th input is an
    inadmissible variant violating exactly one condition.
    """
    rng = random.Random(f"long-cycles:{seed}")
    out = []
    for i in range(count):
        interior = round(250 * 8 ** van_der_corput(i + 1, 2))
        npairs = round(100 * 30 ** van_der_corput(i + 1, 3))
        eps = "o" if rng.random() < 0.6 else "n"
        g = rng.randint(0, 3) if eps == "o" else rng.randint(1, 3)
        cycle = random_cycle(rng, interior)
        pairs = random_pairs(rng, eps, npairs, 64)
        d = Datum(0, eps, g, rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2),
                  tuple(pairs), (tuple(cycle),))
        bad = None
        if i % BAD_EVERY == BAD_EVERY - 1:
            bad = ("3", "2", "1")[(i // BAD_EVERY) % 3]
            if bad == "3":
                pos = 2 * rng.randrange(interior) + 1  # a boundary arc
                cycle[pos] = {SP: K, K: SP, RP: SP}[cycle[pos]]
                d = Datum(0, eps, g, d.f, d.s, d.t, d.pairs, (tuple(cycle),))
            elif bad == "2":
                d = Datum(0, eps, g, d.f, d.s, d.t, d.pairs + ((2 * rng.randint(2, 30), 2),),
                          d.cycles)
            else:
                d = Datum(1, eps, g, d.f, d.s, d.t, d.pairs, d.cycles)
        shown_pairs = list(d.pairs)
        rng.shuffle(shown_pairs)
        line = render(d, shown_pairs, [present(rng, d.cycles[0])])
        canon = canonical_cycle(d.cycles[0])
        out.append(LongInput(line, d, 2 * interior, canon,
                             render(d, sorted(d.pairs), [canon]), bad,
                             tuple(present(rng, d.cycles[0]))))
    return out
