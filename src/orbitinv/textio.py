"""Parsing and serialization of the invariant notation, and JSON reports.

The wire format is the brace notation

    {b=INT;(o|n,g=NAT,f=NAT,s=NAT,t=NAT);(m,n),...;G=[<LAB,...>,...]}

Whitespace is ignored everywhere.  The pair list and the graph segment are
optional, and so is the ``t=`` field (old closed-case data omit it); missing
segments default to t=0, no pairs, empty graph.  Parsing checks grammar and
nonnegativity only; admissibility of the parsed datum is a separate concern
(see ``invariants.validate``).

Errors come back as diagnostics carrying byte spans into the input, and the
parser recovers where it can so one run may report several problems.  JSON
output for every report type goes through :func:`emit_json`; the field names
are part of the public contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .capping import CappingReport
from .cyclegraph import CycleGraph, EdgeLabel
from .formality import FormalityResult
from .invariants import (
    CanonicalForm,
    DerivedCounts,
    OrbitInvariants,
    Orientability,
    SeifertPair,
    ValidationReport,
    Violation,
)
from .series import FixedSetShape, PoincareSeries


@dataclass(frozen=True)
class SourceSpan:
    """Half-open byte range [start, end) into the parsed text."""

    start: int
    end: int

    def __str__(self) -> str:
        return f"{self.start}..{self.end}"


@dataclass(frozen=True)
class Diagnostic:
    span: SourceSpan
    message: str

    def __str__(self) -> str:
        return f"at {self.span}: {self.message}"


class ParseError(ValueError):
    def __init__(self, diagnostics: tuple[Diagnostic, ...]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


_PUNCT = set("{}()[]<>,;=")
_LABEL_NAMES = {lab.name for lab in EdgeLabel}


@dataclass(frozen=True)
class _Token:
    kind: str  # 'int', 'name', 'punct', 'eof'
    text: str
    start: int
    end: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end)


def _lex(text: str, diags: list[Diagnostic]) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token("punct", ch, i, i + 1))
            i += 1
            continue
        # isdecimal, not isdigit: int() rejects digits such as '²'.
        if ch.isdecimal() or (ch == "-" and i + 1 < n and text[i + 1].isdecimal()):
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("int", text[i:j], i, j))
            i = j
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and text[j].isalpha():
                j += 1
            tokens.append(_Token("name", text[i:j], i, j))
            i = j
            continue
        diags.append(Diagnostic(SourceSpan(i, i + 1), f"unexpected character {ch!r}"))
        i += 1
    tokens.append(_Token("eof", "", n, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.diags: list[Diagnostic] = []
        self.tokens = _lex(text, self.diags)
        self.pos = 0

    # ---- token helpers -------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_punct(self, ch: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == ch

    def accept_punct(self, ch: str) -> bool:
        if self.at_punct(ch):
            self.advance()
            return True
        return False

    def error(self, message: str, tok: _Token | None = None) -> None:
        tok = tok or self.peek()
        self.diags.append(Diagnostic(tok.span, message))

    def expect_punct(self, ch: str) -> bool:
        if self.accept_punct(ch):
            return True
        got = self.peek()
        shown = got.text or "end of input"
        self.error(f"expected {ch!r}, got {shown!r}")
        return False

    def expect_name(self, name: str) -> bool:
        tok = self.peek()
        if tok.kind == "name" and tok.text == name:
            self.advance()
            return True
        shown = tok.text or "end of input"
        self.error(f"expected {name!r}, got {shown!r}")
        return False

    def expect_int(self) -> int | None:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            try:
                return int(tok.text)
            except ValueError:
                # interpreter guard against enormous literals
                self.error("integer literal too large", tok)
                return None
        shown = tok.text or "end of input"
        self.error(f"expected an integer, got {shown!r}")
        return None

    def expect_nat(self) -> int | None:
        tok = self.peek()
        value = self.expect_int()
        if value is not None and value < 0:
            self.error(f"expected a nonnegative integer, got {value}", tok)
            return None
        return value

    def sync(self, stops: str) -> None:
        """Skip tokens until one of the stop punctuation marks or EOF."""
        while True:
            tok = self.peek()
            if tok.kind == "eof" or (tok.kind == "punct" and tok.text in stops):
                return
            self.advance()

    # ---- grammar -------------------------------------------------------

    def parse_field(self, name: str) -> int | None:
        ok = self.expect_name(name)
        ok = self.expect_punct("=") and ok
        return self.expect_nat() if ok else None

    def parse_header(self) -> tuple | None:
        if not self.expect_punct("("):
            return None
        tok = self.peek()
        eps = None
        if tok.kind == "name" and tok.text in ("o", "n"):
            self.advance()
            eps = Orientability.from_letter(tok.text)
        else:
            self.error(f"expected orientability 'o' or 'n', got {tok.text or 'end of input'!r}")
        self.expect_punct(",")
        g = self.parse_field("g")
        self.expect_punct(",")
        f = self.parse_field("f")
        self.expect_punct(",")
        s = self.parse_field("s")
        t = 0
        if self.accept_punct(","):
            t = self.parse_field("t")
        self.expect_punct(")")
        if None in (eps, g, f, s, t):
            return None
        return eps, g, f, s, t

    def parse_pair(self) -> SeifertPair | None:
        if not self.expect_punct("("):
            return None
        m = self.expect_nat()
        if not self.expect_punct(","):
            self.sync("),;}")
            self.accept_punct(")")
            return None
        n = self.expect_nat()
        if not self.expect_punct(")"):
            self.sync("),;}")
            self.accept_punct(")")
            return None
        if m is None or n is None:
            return None
        return SeifertPair(m, n)

    def parse_pairs(self) -> list[SeifertPair]:
        pairs = []
        while True:
            pair = self.parse_pair()
            if pair is not None:
                pairs.append(pair)
            if not self.accept_punct(","):
                return pairs

    def parse_cycle(self) -> tuple | None:
        if not self.expect_punct("<"):
            return None
        edges = []
        broken = False
        while True:
            tok = self.peek()
            if tok.kind == "name" and tok.text in _LABEL_NAMES:
                self.advance()
                edges.append(EdgeLabel[tok.text])
            else:
                self.error(f"expected an edge label (F, SE, SP, K, RP), "
                           f"got {tok.text or 'end of input'!r}")
                self.sync(">,;]}")
                broken = True
            if not self.accept_punct(","):
                break
        if not self.expect_punct(">"):
            self.sync(">,]};")
            self.accept_punct(">")
            broken = True
        return None if broken else tuple(edges)

    def parse_graph(self) -> CycleGraph | None:
        self.expect_name("G")
        self.expect_punct("=")
        if not self.expect_punct("["):
            return None
        cycles = []
        broken = False
        if not self.at_punct("]"):
            while True:
                cycle = self.parse_cycle()
                if cycle is None:
                    broken = True
                else:
                    cycles.append(cycle)
                if not self.accept_punct(","):
                    break
        if not self.expect_punct("]"):
            broken = True
        return None if broken else CycleGraph(tuple(cycles))

    def parse_manifold(self) -> OrbitInvariants | None:
        self.expect_punct("{")
        self.expect_name("b")
        self.expect_punct("=")
        b = self.expect_int()
        self.expect_punct(";")
        header = self.parse_header()

        pairs: list[SeifertPair] = []
        graph: CycleGraph | None = CycleGraph()
        seen_pairs = seen_graph = False
        while self.accept_punct(";"):
            if self.at_punct("("):
                if seen_pairs or seen_graph:
                    self.error("pair list appears twice or after the graph")
                seen_pairs = True
                pairs = self.parse_pairs()
            elif self.peek().kind == "name" and self.peek().text == "G":
                if seen_graph:
                    self.error("graph segment appears twice")
                seen_graph = True
                graph = self.parse_graph()
            else:
                shown = self.peek().text or "end of input"
                self.error(f"expected a pair list or 'G=[...]' after ';', got {shown!r}")
                self.sync(";}")
        self.expect_punct("}")
        if self.peek().kind != "eof":
            self.error(f"trailing input after '}}': {self.peek().text!r}")

        if self.diags or b is None or header is None or graph is None:
            return None
        eps, g, f, s, t = header
        return OrbitInvariants(b=b, eps=eps, g=g, f=f, s=s, t=t,
                               pairs=tuple(pairs), graph=graph)


def parse_with_diagnostics(text: str) -> tuple[OrbitInvariants | None, tuple[Diagnostic, ...]]:
    """Parse, returning either a datum or the collected diagnostics.

    Never raises on malformed input; any byte string that decodes as text is
    acceptable and yields diagnostics at worst.
    """
    parser = _Parser(text)
    datum = parser.parse_manifold()
    if parser.diags:
        return None, tuple(parser.diags)
    return datum, ()


def parse(text: str) -> OrbitInvariants:
    """Parse the brace notation; raises :class:`ParseError` with the full
    diagnostic list on bad input."""
    datum, diags = parse_with_diagnostics(text)
    if datum is None:
        raise ParseError(diags)
    return datum


def serialize(inv: OrbitInvariants) -> str:
    """Canonical rendering: pairs sorted, cycles as canonical words, no
    whitespace.  ``parse(serialize(x))`` equals ``x`` with its parts sorted;
    no normalization of b or of the pairs is applied.  The graph segment is
    rendered once per ``CycleGraph`` instance (``canonical_text``) and reused,
    which is sound because graphs are immutable."""
    out = [f"{{b={inv.b};({inv.eps},g={inv.g},f={inv.f},s={inv.s},t={inv.t})"]
    if inv.pairs:
        out.append(";" + ",".join(str(p) for p in sorted(inv.pairs)))
    if inv.graph:
        out.append(";G=[" + inv.graph.canonical_text + "]")
    out.append("}")
    return "".join(out)


def to_jsonable(obj: Any, expansion_upto: int = 10) -> Any:
    """Convert a report or value to JSON-ready primitives.

    Stable field names: rationals as {"num", "den"}; series as
    {"numerator", "denominator", "expansion"}; validation reports as
    {"ok", "violations"}.
    """
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, PoincareSeries):
        return {
            "numerator": list(obj.num),
            "denominator": list(obj.den),
            "expansion": obj.expansion(expansion_upto),
        }
    if isinstance(obj, ValidationReport):
        return {"ok": obj.ok, "violations": [to_jsonable(v) for v in obj.violations]}
    if isinstance(obj, Violation):
        return {"condition": obj.condition, "message": obj.message}
    if isinstance(obj, Diagnostic):
        return {"start": obj.span.start, "end": obj.span.end, "message": obj.message}
    if isinstance(obj, OrbitInvariants):
        return {
            "text": serialize(obj),
            "b": obj.b,
            "eps": obj.eps.value,
            "g": obj.g,
            "f": obj.f,
            "s": obj.s,
            "t": obj.t,
            "pairs": [[p.m, p.n] for p in sorted(obj.pairs)],
            "graph": [[str(lab) for lab in cycle] for cycle in obj.graph],
        }
    if isinstance(obj, CanonicalForm):
        return {
            "b": obj.b,
            "eps": obj.eps.value,
            "g": obj.g,
            "f": obj.f,
            "s": obj.s,
            "t": obj.t,
            "pairs": [[p.m, p.n] for p in obj.pairs],
            "graph": [[str(lab) for lab in word] for word in obj.graph_canon],
        }
    if isinstance(obj, CappingReport):
        return {
            "input": to_jsonable(obj.input),
            "output": to_jsonable(obj.output),
            "chi_before": obj.chi_before,
            "chi_after": obj.chi_after,
            "rp_pairings": [{"cycle": ci, "positions": list(pos)}
                            for ci, pos in obj.rp_pairings],
            "notes": list(obj.notes),
        }
    if isinstance(obj, FormalityResult):
        return {
            "formal": obj.formal,
            "reason": obj.reason,
            "generators": [{"degree": gen.degree, "label": gen.label}
                           for gen in obj.generators],
        }
    if isinstance(obj, DerivedCounts):
        return {
            "f0_minus_f": obj.f0_minus_f,
            "s0_minus_s": obj.s0_minus_s,
            "s_p": obj.s_p,
            "k": obj.k,
            "r_p": obj.r_p,
            "v_f": obj.v_f,
            "v_s": obj.v_s,
            "boundary_circles": obj.boundary_circles,
        }
    if isinstance(obj, FixedSetShape):
        return {"circles": obj.circles, "intervals": obj.intervals}
    if isinstance(obj, dict):
        return {k: to_jsonable(v, expansion_upto) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v, expansion_upto) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    raise TypeError(f"no JSON form for {type(obj).__name__}")


def emit_json(obj: Any, expansion_upto: int = 10) -> str:
    return json.dumps(to_jsonable(obj, expansion_upto))
