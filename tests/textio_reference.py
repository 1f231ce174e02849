"""The character-by-character lexer and parser that ``textio`` used before
its one-regex lexer, kept unchanged as the reference the tests compare
``parse_with_diagnostics`` against: same datum, same diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

from orbitinv.cyclegraph import CycleGraph, EdgeLabel
from orbitinv.invariants import OrbitInvariants, Orientability, SeifertPair
from orbitinv.textio import Diagnostic, SourceSpan

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


def reference_lex(text: str, diags: list[Diagnostic]) -> list[_Token]:
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


class _ReferenceParser:
    def __init__(self, text: str):
        self.diags: list[Diagnostic] = []
        self.tokens = reference_lex(text, self.diags)
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


def reference_parse(text: str) -> tuple[OrbitInvariants | None, tuple[Diagnostic, ...]]:
    """``parse_with_diagnostics`` as the reference parser computes it."""
    parser = _ReferenceParser(text)
    datum = parser.parse_manifold()
    if parser.diags:
        return None, tuple(parser.diags)
    return datum, ()
