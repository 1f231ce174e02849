"""The lexer's regex classes against the ``str`` predicates, code point by
code point.

``textio._lex`` matches whitespace with ``\\s``, integers with ``\\d`` and
names with ``[^\\W\\d_]``, and the parser's language is defined by
``str.isspace``, ``str.isdecimal`` and ``str.isalpha``.  The regex classes
follow the interpreter's Unicode tables, so this check runs on every
supported Python.  It needs only the standard library:

    PYTHONPATH=src python tests/test_lexer_classes.py

and pytest collects it as an ordinary test.
"""

import sys

from orbitinv.textio import _TOKEN

PUNCT = "{}()[]<>,;="
# _TOKEN's groups: 1 punctuation, 2 integer, 3 name run, 4 other character.
# A name run that fails str.isalpha is split by _lex into letter runs and
# "unexpected character" diagnostics, so a character that is neither
# whitespace, punctuation, decimal nor alphabetic may land in 3 or in 4.
UNEXPECTED = {3, 4}


def allowed(ch):
    """The groups ``_TOKEN`` may match ``ch`` alone with (None: no token)."""
    if ch.isspace():
        return {None}
    if ch in PUNCT:
        return {1}
    if ch.isdecimal():
        return {2}
    if ch.isalpha():
        return {3}
    return UNEXPECTED


def group(text):
    match = _TOKEN.match(text)
    return match and match.lastindex


def mismatches():
    """Code points where ``_TOKEN`` disagrees with the ``str`` predicates:
    alone, or after a '-', which starts an integer exactly when the code
    point is a decimal digit."""
    bad = []
    for cp in range(sys.maxunicode + 1):
        ch = chr(cp)
        if group(ch) not in allowed(ch) or (group("-" + ch) == 2) != ch.isdecimal():
            bad.append(cp)
    return bad


def test_lexer_classes_match_str_predicates():
    assert mismatches() == []


if __name__ == "__main__":
    bad = mismatches()
    print(f"Python {sys.version.split()[0]}: {sys.maxunicode + 1} code points, "
          f"{len(bad)} mismatches {[hex(cp) for cp in bad[:10]]}")
    sys.exit(1 if bad else 0)
