"""Expected answers worked out without the library under test.

Every function here takes the benchmark's own :class:`gen.Datum` and returns
what the library must answer, from closed-form formulas of the theory or
from values pinned at the commit that defined the benchmark.  Nothing here
imports ``orbitinv``.
"""

from __future__ import annotations

from fractions import Fraction

from gen import RP, Datum, F

# The census box of acceptance criterion 9.  Count and SHA-256 of the
# newline-terminated serialized stream, pinned at the commit that defined
# the benchmark; CHECKPOINTS are the first 16 hex digits of the running
# digest after every CHECKPOINT_EVERY lines, so a partial pass is checked too.
CENSUS_BOUNDS = dict(max_g=2, max_f=2, max_s=2, max_t=2, max_r=2, max_m=4,
                     max_cycles=2, max_cycle_len=4, b_range=(-1, 1))
CENSUS_COUNT = 47199
CENSUS_DIGEST = "fa885ca04aaaaae5921f6eca6f79731a64134ab614346e087af26cde47336d11"
CHECKPOINT_EVERY = 5000
CENSUS_CHECKPOINTS = (
    "308d454657e2f1d3", "0d5d5f316eb71185", "93f85b975b0ba7c3", "ffc755b340569523",
    "211a8202a1df0e5f", "e5d61ef378c4f25d", "300cf8225c88b99f", "93f57f1c1b8857aa",
    "ebe9e642147df349",
)

# Small boxes for `orbitinv enumerate`: (bounds argv, line count, SHA-256).
CLI_BOXES = (
    (("max_g=1", "max_f=2", "max_cycles=1", "max_cycle_len=4"), 54,
     "a203d1fc5cea82848debbd27722a35f78151507712b3fb3980e19af81f0ab005"),
    (("max_g=1", "max_s=1", "max_r=1", "max_m=5", "b_range=-2..2"), 137,
     "ced7395f42a420e50d62572f7ff98895b7d968303544aa49562a4bce7353faf7"),
    (("max_t=1", "max_f=1", "max_cycles=2", "max_cycle_len=6"), 220,
     "4f557f912a75f0b76672fafb301fb32566bbe50285d2e1832552e523afe226e8"),
)
CENSUS_FIRST_LINES = ("{b=-1;(o,g=0,f=0,s=0,t=0)}", "{b=0;(o,g=0,f=0,s=0,t=0)}",
                      "{b=1;(o,g=0,f=0,s=0,t=0)}")

# The seven compact 2-manifolds with circle action, by (boundary, fixed,
# special) counts.
SURFACES = {
    (1, 1, 0): "disk", (2, 0, 0): "cylinder", (1, 0, 1): "Mobius band",
    (0, 2, 0): "sphere", (0, 1, 1): "projective plane", (0, 0, 0): "torus",
    (0, 0, 2): "Klein bottle",
}


def chi(eps: str, g: int, boundary: int) -> int:
    """Euler characteristic of a compact surface with ``boundary`` circles."""
    return 2 - (2 * g if eps == "o" else g) - boundary


def betti(d: Datum, upto: int) -> list:
    """Equivariant Betti numbers b_0..b_upto.

    The orbit surface contributes 1 + (2g+B-1)x (nonorientable: g+B-1) when
    it has B > 0 boundary circles and 1 + 2gx + x^2 (1 + gx) when closed.
    Each fixed circle adds x^2(1+x)/(1-x^2), each fixed interval (F arc)
    x^2/(1-x^2): f+I in every even degree >= 2, f in every odd one >= 3.
    """
    h = 2 * d.g if d.eps == "o" else d.g
    B = d.boundary_circles
    if B == 0:
        head = [1, h, 1] if d.eps == "o" else [1, h]
        return (head + [0] * upto)[:upto + 1]
    intervals = d.label_count(F)
    out = [1, h + B - 1] + [d.f + intervals if k % 2 == 0 else d.f
                            for k in range(2, upto + 1)]
    return out[:upto + 1]


def is_formal(d: Datum) -> bool:
    """Closed data are formal exactly when f > 0 and the orbit surface is
    (o, g=0, s<=1) or (n, g=1, s=0)."""
    if d.f == 0:
        return False
    if d.eps == "o":
        return d.g == 0 and d.s <= 1
    return d.g == 1 and d.s == 0


def generator_degrees(d: Datum) -> dict:
    """Free-module generator counts by degree of a formal closed datum: the
    coefficients of the Poincare series 1 + b1 x + f x^2/(1-x) times 1-x^2,
    that is 1 + b1 x + (f-1) x^2 + (f-b1) x^3."""
    b1 = (2 * d.g if d.eps == "o" else d.g) + d.f + d.s - 1
    counts = {0: 1, 1: b1, 2: d.f - 1, 3: d.f - b1}
    return {k: v for k, v in counts.items() if v}


def euler_number(d: Datum) -> Fraction:
    """Orbifold Euler number of a closed fixed-point-free datum."""
    if d.eps == "n" or d.s > 0:
        return Fraction(0)
    return d.b + sum((Fraction(pow(n, -1, m), m) for m, n in d.pairs), Fraction(0))


def capping_chi(d: Datum) -> tuple:
    """(chi_before, chi_after) of capping: chi_after = chi_before + t - r_p/2."""
    before = chi(d.eps, d.g, d.boundary_circles)
    return before, before + d.t - d.label_count(RP) // 2


def check_cap_json(d: Datum, doc: dict) -> str | None:
    """Check one capping report in its JSON form; None when it is right."""
    out = doc["output"]
    before, after = capping_chi(d)
    if (doc["chi_before"], doc["chi_after"]) != (before, after):
        return f"chi {doc['chi_before']}->{doc['chi_after']}, expected {before}->{after}"
    if out["t"] or out["graph"] or out["b"]:
        return "capped output is not closed with b=0"
    if chi(out["eps"], out["g"], out["f"] + out["s"]) != after:
        return "output surface does not have chi_after"
    if sorted(map(tuple, out["pairs"])) != sorted(d.pairs):
        return "pairs changed"
    if len(doc["rp_pairings"]) != d.label_count(RP) // 2:
        return "wrong number of RP pairings"
    return None
