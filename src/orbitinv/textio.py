"""Parsing and serialization of the invariant notation.

The wire format is the brace notation

    {b=INT;(o|n,g=NAT,f=NAT,s=NAT,t=NAT);(m,n),...;G=[<LAB,...>,...]}

Whitespace is ignored everywhere.  The pair list and the graph segment are
optional, and so is the ``t=`` field (old closed-case data omit it); missing
segments default to t=0, no pairs, empty graph.  Parsing checks grammar and
nonnegativity only; admissibility of the parsed datum is a separate concern
(see ``invariants.validate``).

Well-formed text is read with one anchored regex match of the whole grammar,
and that match is the only place text becomes a datum.  Text it declines
goes to the token parser, which explains why: its lexer is one compiled
regex run with ``finditer``, tokens are plain ``(kind, text, start, end)``
tuples, and the parser reads the token list by index.  Whitespace is what
``str.isspace`` accepts, integers are runs of ``str.isdecimal`` digits, and
names are runs of ``str.isalpha`` letters.

Errors come back as diagnostics carrying byte spans into the input, and the
parser recovers where it can so one run may report several problems.  The
JSON forms of data and reports live in :mod:`orbitinv.jsonio`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby, repeat

from .cyclegraph import CycleGraph, EdgeLabel
from .invariants import (
    OrbitInvariants,
    Orientability,
    SeifertPair,
    _require,
    _trusted,
)


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


# After optional whitespace: punctuation, an integer, a name run, or any
# other character.  ``\s`` and ``\d`` are ``str.isspace`` and
# ``str.isdecimal`` on every code point (tests/test_lexer_classes.py); the
# name class also admits numerals such as '²' and '½', so ``_lex`` splits a
# run that fails ``str.isalpha``.
_TOKEN = re.compile(r"\s*(?:([{}()\[\]<>,;=])|(-?\d+)|([^\W\d_]+)|(\S))")
_KIND = (None, "punct", "int", "name", None)

# A token is (kind, text, start, end), kind 'punct', 'int', 'name' or 'eof'.
# Only 'eof' has empty text, and no other kind can have the text of a
# punctuation mark or keyword, so most checks below read the text alone.
_Tok = tuple[str, str, int, int]


def _unexpected(diags: list[Diagnostic], ch: str, start: int) -> None:
    diags.append(Diagnostic(SourceSpan(start, start + 1), f"unexpected character {ch!r}"))


def _lex(text: str, diags: list[Diagnostic]) -> list[_Tok]:
    tokens: list[_Tok] = []
    append = tokens.append
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        tok = match[group]
        start, end = match.span(group)
        if group == 4:
            _unexpected(diags, tok, start)
        elif group == 3 and not tok.isalpha():
            # split the run into letter runs and unexpected characters
            for alpha, chars in groupby(tok, str.isalpha):
                chars = "".join(chars)
                if alpha:
                    append(("name", chars, start, start + len(chars)))
                else:
                    for i, ch in enumerate(chars, start):
                        _unexpected(diags, ch, i)
                start += len(chars)
        else:
            append((_KIND[group], tok, start, end))
    append(("eof", "", len(text), len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.diags: list[Diagnostic] = []
        self.tokens = _lex(text, self.diags)
        self.pos = 0

    # ---- token helpers -------------------------------------------------

    def peek(self) -> _Tok:
        return self.tokens[self.pos]

    def at(self, text: str) -> bool:
        return self.tokens[self.pos][1] == text

    def accept(self, text: str) -> bool:
        """Consume the next token if its text is ``text``; 'eof' never is."""
        if self.tokens[self.pos][1] == text:
            self.pos += 1
            return True
        return False

    def error(self, message: str, tok: _Tok | None = None) -> None:
        _, _, start, end = tok or self.tokens[self.pos]
        self.diags.append(Diagnostic(SourceSpan(start, end), message))

    def expect(self, text: str) -> bool:
        """Consume a punctuation mark or keyword, or report what came instead."""
        if self.accept(text):
            return True
        self.error(f"expected {text!r}, got {self.peek()[1] or 'end of input'!r}")
        return False

    def expect_int(self) -> int | None:
        tok = self.peek()
        if tok[0] == "int":
            self.pos += 1
            try:
                return int(tok[1])
            except ValueError:
                # interpreter guard against enormous literals
                self.error("integer literal too large", tok)
                return None
        self.error(f"expected an integer, got {tok[1] or 'end of input'!r}")
        return None

    def expect_nat(self) -> None:
        tok = self.peek()
        value = self.expect_int()
        if value is not None and value < 0:
            self.error(f"expected a nonnegative integer, got {value}", tok)

    def sync(self, stops: str) -> None:
        """Skip tokens until one of the stop punctuation marks or EOF."""
        tokens, pos = self.tokens, self.pos
        # the empty 'eof' text is in every string
        while tokens[pos][1] not in stops:
            pos += 1
        self.pos = pos

    # ---- grammar -------------------------------------------------------

    def parse_field(self, name: str) -> None:
        ok = self.expect(name)
        if self.expect("=") and ok:
            self.expect_nat()

    def parse_header(self) -> None:
        if not self.expect("("):
            return
        text = self.peek()[1]
        if text in ("o", "n"):
            self.pos += 1
        else:
            self.error(f"expected orientability 'o' or 'n', got {text or 'end of input'!r}")
        for name in ("g", "f", "s"):
            self.expect(",")
            self.parse_field(name)
        if self.accept(","):
            self.parse_field("t")
        self.expect(")")

    def parse_pair(self) -> None:
        if not self.expect("("):
            return
        self.expect_nat()
        if self.expect(","):
            self.expect_nat()
            if self.expect(")"):
                return
        self.sync("),;}")
        self.accept(")")

    def parse_cycle(self) -> None:
        if not self.expect("<"):
            return
        tokens, labels = self.tokens, EdgeLabel.__members__
        pos = self.pos
        while True:
            if tokens[pos][1] in labels:
                pos += 1
            else:
                self.pos = pos
                self.error(f"expected an edge label (F, SE, SP, K, RP), "
                           f"got {tokens[pos][1] or 'end of input'!r}")
                self.sync(">,;]}")
                pos = self.pos
            if tokens[pos][1] != ",":
                break
            pos += 1
        self.pos = pos
        if not self.expect(">"):
            self.sync(">,]};")
            self.accept(">")

    def parse_graph(self) -> None:
        self.expect("G")
        self.expect("=")
        if not self.expect("["):
            return
        if not self.at("]"):
            self.parse_cycle()
            while self.accept(","):
                self.parse_cycle()
        self.expect("]")

    def diagnose(self) -> tuple[Diagnostic, ...]:
        """Walk the whole grammar, recovering where it can, and return every
        diagnostic; the empty tuple means the text is well formed."""
        self.expect("{")
        self.expect("b")
        self.expect("=")
        self.expect_int()
        self.expect(";")
        self.parse_header()
        seen_pairs = seen_graph = False
        while self.accept(";"):
            if self.at("("):
                if seen_pairs or seen_graph:
                    self.error("pair list appears twice or after the graph")
                seen_pairs = True
                self.parse_pair()
                while self.accept(","):
                    self.parse_pair()
            elif self.at("G"):
                if seen_graph:
                    self.error("graph segment appears twice")
                seen_graph = True
                self.parse_graph()
            else:
                shown = self.peek()[1] or "end of input"
                self.error(f"expected a pair list or 'G=[...]' after ';', got {shown!r}")
                self.sync(";}")
        self.expect("}")
        if self.peek()[0] != "eof":
            self.error(f"trailing input after '}}': {self.peek()[1]!r}")
        return tuple(self.diags)


# The whole grammar as one anchored regex: the only reader of text into a
# datum.  It uses the lexer's ``\s`` and ``\d`` classes, every keyword and
# label is followed by ``\s*`` and punctuation (so it is a whole name token),
# and ``\s*`` stands only directly before a mandatory token, so no two
# quantifiers share a whitespace run and a failing match stays linear in the
# input.  Counts and pair entries take a sign, as the lexer's integers do;
# ``_match_datum`` declines a negative one, so ``-0`` reads as 0.
_LABEL = "|".join(EdgeLabel.__members__)
_PAIR = r"\(\s*-?\d+\s*,\s*-?\d+\s*\)"
_CYCLE = rf"<\s*(?:{_LABEL})(?:\s*,\s*(?:{_LABEL}))*\s*>"
_DATUM = re.compile(
    r"\s*\{\s*b\s*=\s*(-?\d+)\s*;"
    r"\s*\(\s*([on])\s*,\s*g\s*=\s*(-?\d+)\s*,\s*f\s*=\s*(-?\d+)\s*,\s*s\s*=\s*(-?\d+)"
    r"(?:\s*,\s*t\s*=\s*(-?\d+))?\s*\)"
    rf"(?:\s*;\s*({_PAIR}(?:\s*,\s*{_PAIR})*))?"
    rf"(?:\s*;\s*G\s*=\s*\[((?:\s*{_CYCLE}(?:\s*,\s*{_CYCLE})*)?)\s*\])?"
    r"\s*\}\s*")
_NAT = re.compile(r"\d+")
_SIGNED = re.compile(r"-\d+")
_CYCLE_BODY = re.compile(r"<([^>]*)>")


def _match_datum(text: str) -> OrbitInvariants | None:
    """The datum ``text`` spells, or None when ``text`` is not one match of
    ``_DATUM``, has a negative count or pair entry, or holds an integer
    literal too large for ``int``."""
    match = _DATUM.fullmatch(text)
    if match is None:
        return None
    b, eps, g, f, s, t, pairs, graph = match.groups()
    pairs = pairs or ""
    try:
        b, g, f, s = int(b), int(g), int(f), int(s)
        t = 0 if t is None else int(t)
        # a signed pair entry other than -0 is negative; else the digits are the entry
        if min(g, f, s, t) < 0 or ("-" in pairs and any(map(int, _SIGNED.findall(pairs)))):
            return None
        nums = map(int, _NAT.findall(pairs))
        # the order a datum holds: the (m, n) ints sorted, then each pair built
        # once, by the tuple constructor that ``SeifertPair._make`` wraps
        pairs = tuple(map(tuple.__new__, repeat(SeifertPair), sorted(zip(nums, nums))))
    except ValueError:
        return None
    labels = EdgeLabel.__members__
    # the match admits only label names, commas and whitespace in a body
    cycles = tuple(tuple(map(labels.__getitem__, "".join(body.split()).split(",")))
                   for body in _CYCLE_BODY.findall(graph or ""))
    return _trusted(b, Orientability(eps), g, f, s, t, pairs, CycleGraph._of_words(cycles))


def parse_with_diagnostics(text: str) -> tuple[OrbitInvariants | None, tuple[Diagnostic, ...]]:
    """Parse, returning either a datum or the collected diagnostics.

    Text is read by one anchored match (``_match_datum``); the token parser
    runs only on text the match declines, to explain why.
    Never raises on malformed input; any byte string that decodes as text is
    acceptable and yields diagnostics at worst.  Anything but a ``str`` is a
    ``TypeError`` naming ``text``.
    """
    try:
        datum = _match_datum(text)
    except TypeError:
        _require(text, str, "text")
        raise
    if datum is not None:
        return datum, ()
    return None, _Parser(text).diagnose()


def parse(text: str) -> OrbitInvariants:
    """Parse the brace notation; raises :class:`ParseError` with the full
    diagnostic list on bad input."""
    datum, diags = parse_with_diagnostics(text)
    if datum is None:
        raise ParseError(diags)
    return datum


# The notation, stated once: ``_TEMPLATE % (b, head, pairs, graph)`` with the
# three segments below.  The census renders each segment once per stratum
# and joins them through the same template.
_TEMPLATE = "{b=%s;%s%s%s}"


def _head(eps, g, f, s, t) -> str:
    """The head segment ``(eps,g=…,f=…,s=…,t=…)``."""
    # ``_value_`` is the member's stored value; ``.value`` would add a
    # Python-level property call per datum.
    eps = eps._value_ if eps.__class__ is Orientability else eps
    return f"({eps},g={g},f={f},s={s},t={t})"


def _pairs_segment(pairs: tuple[SeifertPair, ...]) -> str:
    """The pair segment ``;(m,n),…`` in the held order, or ``""``."""
    return ";" + ",".join(["(%s,%s)" % pair for pair in pairs]) if pairs else ""


def _graph_segment(graph: CycleGraph) -> str:
    """The graph segment ``;G=[<…>,…]`` of canonical words, or ``""``."""
    return ";G=[" + graph.canonical_text + "]" if graph else ""


def serialize(inv: OrbitInvariants) -> str:
    """Canonical rendering: pairs in the order the datum holds them (sorted,
    see ``OrbitInvariants``), cycles as canonical words, no whitespace.
    ``parse(serialize(x))`` equals ``x`` with its cycles as sorted canonical
    words; no normalization of b or of the pairs is applied.  A census datum
    carries this text from birth, and it is returned as it is; any other
    datum is composed from its fields.  The graph segment is rendered once
    per ``CycleGraph`` instance (``canonical_text``) and reused, which is
    sound because graphs are immutable.  A field outside its type, such as
    ``eps=None``, is written as its ``str``, so a datum that ``validate``
    refuses still prints.  Anything but a datum is a ``TypeError`` naming
    ``inv``."""
    text = inv._text if inv.__class__ is OrbitInvariants else None
    if text is not None:
        return text
    try:
        eps, pairs, graph = inv.eps, inv.pairs, inv.graph
    except AttributeError:
        # checked only on failure, so a datum pays nothing for it
        _require(inv, OrbitInvariants, "inv")
        raise
    return _TEMPLATE % (inv.b, _head(eps, inv.g, inv.f, inv.s, inv.t),
                        _pairs_segment(pairs), _graph_segment(graph))
