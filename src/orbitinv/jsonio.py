"""JSON reports: the stable JSON form of data, values and report types.

:func:`emit_json` writes every library type straight into JSON text, one
format string or join per type, and :func:`to_jsonable` is the parsed form
of that same text, so every field order is stated once, here.  The field
names are part of the public contract (README "JSON output").  This module
imports every result type it encodes, so loading it loads the operations;
the notation alone is :mod:`orbitinv.textio`.

The bytes are those ``json.dumps`` writes for the parsed form.  Dicts, lists
and tuples recurse, and dict keys follow ``json.dumps``'s rules.  A field
value outside its type (in a datum ``validate`` refuses, or a report built
by hand) is written as ``json.dumps`` writes it.  Strings are escaped by
``encode_basestring_ascii``, the function ``json.dumps`` itself uses, except
text that holds no character JSON escapes by construction, which is copied
as it is: field names, edge label names, the text of a datum with an ok
verdict and the notes :func:`~orbitinv.capping.cap_off` builds
(``capping._Notes``).  A datum's pairs are written in the order it holds
them, which is sorted, so no output sorts.  Within one call each datum object
is written once, so a capping payload's ``datum`` and ``cap.input`` cost one,
and each pairs tuple's JSON list once, so a capping report's input and output
share it.
"""

from __future__ import annotations

import json
from dataclasses import fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import Any

from .capping import CappingReport, _Notes
from .cyclegraph import LABEL_NAMES
from .formality import FormalityResult
from .invariants import (
    _ADMISSIBLE,
    CanonicalForm,
    DerivedCounts,
    OrbitInvariants,
    Orientability,
    ValidationReport,
    Violation,
    _as_int,
)
from .series import FixedSetShape, PoincareSeries
from .textio import Diagnostic, serialize

_dumps = json.dumps
_label = LABEL_NAMES.__getitem__


def emit_json(obj: Any, expansion_upto: int = 10) -> str:
    """The JSON text of a report or value, every series' expansion written
    to degree ``expansion_upto``.

    Stable field names: rationals as {"num", "den"}; series as
    {"numerator", "denominator", "expansion"}; the report records
    ``ValidationReport``, ``Violation``, ``DerivedCounts`` and
    ``FixedSetShape`` by their field names.  Library types are matched by
    exact class, and any other object is a ``TypeError``.  A ``bool`` or
    non-integral ``expansion_upto`` is a ``TypeError`` and a negative one a
    ``ValueError``, whatever ``obj`` holds.
    """
    upto = _as_int(expansion_upto, "expansion_upto")
    if upto < 0:
        raise ValueError(f"expansion_upto must be nonnegative, got {upto}")
    return _write(obj, upto, {})


def to_jsonable(obj: Any, expansion_upto: int = 10) -> Any:
    """``json.loads(emit_json(obj, expansion_upto))``: the report or value
    as JSON-ready primitives, dict keys as ``str``."""
    return json.loads(emit_json(obj, expansion_upto))


def _write(obj: Any, upto: int, seen: dict) -> str:
    """The JSON text of ``obj``; ``seen`` maps the id of each datum written
    in this call, and of each datum's pairs tuple, to its JSON text."""
    writer = _WRITERS.get(obj.__class__)
    if writer is not None:
        return writer(obj, upto, seen)
    if isinstance(obj, dict):
        return _dict(obj, upto, seen)
    if isinstance(obj, (list, tuple)):
        return _list(obj, upto, seen)
    if isinstance(obj, (int, str)) or obj is None:
        return _raw(obj)
    raise TypeError(f"no JSON form for {type(obj).__name__}")


def _raw(value: Any) -> str:
    """A field value as ``json.dumps`` writes it."""
    cls = value.__class__
    if cls is int:
        return int.__repr__(value)
    if cls is str:
        return _quote(value)
    if cls is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    return _dumps(value)


def _key(key: Any) -> str:
    """A dict key as ``json.dumps`` writes it, by ``json.dumps`` itself."""
    return _dumps({key: 0})[1:-4]


def _dict(obj: dict, upto: int, seen: dict) -> str:
    return "{" + ", ".join([(_quote(k) if k.__class__ is str else _key(k)) + ": "
                            + _write(v, upto, seen) for k, v in obj.items()]) + "}"


def _list(obj: list | tuple, upto: int, seen: dict) -> str:
    return "[" + ", ".join([_write(v, upto, seen) for v in obj]) + "]"


def _graph(cycles) -> str:
    """Cycles as lists of label names."""
    return "[" + ", ".join(['["' + '", "'.join(map(_label, cycle)) + '"]' if cycle else "[]"
                            for cycle in cycles]) + "]"


_DATUM = ('{"text": %s, "b": %s, "eps": %s, "g": %s, "f": %s, "s": %s, "t": %s, '
          '"pairs": %s, "graph": %s}')


def _datum(inv: OrbitInvariants, upto: int, seen: dict) -> str:
    text = seen.get(id(inv))
    if text is None:
        text = seen[id(inv)] = _datum_text(inv, seen)
    return text


def _datum_text(inv: OrbitInvariants, seen: dict) -> str:
    eps, pairs = inv.eps, inv.pairs
    b, g, f, s, t = inv.b, inv.g, inv.f, inv.s, inv.t
    ok = _ADMISSIBLE in inv.__dict__
    # a capping report's output holds its input's pairs, so both data share
    # one JSON list
    pairs_json = seen.get(id(pairs))
    if pairs_json is None:
        if ok:  # int entries, which ``%d`` writes as int.__repr__ does
            pairs_json = "[" + ", ".join(["[%d, %d]" % pair for pair in pairs]) + "]"
        else:
            pairs_json = "[" + ", ".join(["[%s, %s]" % (_raw(m), _raw(n)) for m, n in pairs]) + "]"
        seen[id(pairs)] = pairs_json
    text = serialize(inv)
    if ok:
        # every integer of an admissible datum is an exact int
        text, eps = '"' + text + '"', '"' + eps._value_ + '"'
    else:
        text, b, g, f, s, t = _quote(text), _raw(b), _raw(g), _raw(f), _raw(s), _raw(t)
        eps = _raw(eps._value_ if eps.__class__ is Orientability else eps)
    return _DATUM % (text, b, eps, g, f, s, t, pairs_json, _graph(inv.graph.cycles))


def _canonical(form: CanonicalForm, upto: int, seen: dict) -> str:
    pairs = "[" + ", ".join(["[%s, %s]" % (_raw(m), _raw(n)) for m, n in form.pairs]) + "]"
    return ('{"b": %s, "eps": %s, "g": %s, "f": %s, "s": %s, "t": %s, "pairs": %s, "graph": %s}'
            % (_raw(form.b), _raw(form.eps.value), _raw(form.g), _raw(form.f), _raw(form.s),
               _raw(form.t), pairs, _graph(form.graph_canon)))


def _capping(report: CappingReport, upto: int, seen: dict) -> str:
    pairings = ", ".join(['{"cycle": %s, "positions": [%s]}'
                         % (_raw(ci), ", ".join(map(_raw, pos)))
                         for ci, pos in report.rp_pairings])
    head = ('{"input": %s, "output": %s, "chi_before": %s, "chi_after": %s, '
            '"rp_pairings": [%s], "notes": '
            % (_write(report.input, upto, seen), _write(report.output, upto, seen),
               _raw(report.chi_before), _raw(report.chi_after), pairings))
    notes = report.notes
    if notes.__class__ is not _Notes:
        return head + _dumps(list(notes)) + "}"
    if not notes:
        return head + "[]}"
    # head, then each note quoted and comma-separated, in one join that
    # copies the notes once and never scans them
    parts = ['", "'] * (2 * len(notes) + 1)
    parts[0] = head + '["'
    parts[1::2] = notes
    parts[-1] = '"]}'
    return "".join(parts)


def _series(series: PoincareSeries, upto: int, seen: dict) -> str:
    # a series' coefficients are ints, which ``repr`` of a list writes as JSON
    return ('{"numerator": %s, "denominator": %s, "expansion": %s}'
            % (repr(list(series.num)), repr(list(series.den)), repr(series.expansion(upto))))


def _formality(result: FormalityResult, upto: int, seen: dict) -> str:
    generators = ", ".join(['{"degree": %s, "label": %s}' % (_raw(gen.degree), _raw(gen.label))
                           for gen in result.generators])
    return ('{"formal": %s, "reason": %s, "generators": [%s]}'
            % (_raw(result.formal), _raw(result.reason), generators))


def _fraction(value: Fraction, upto: int, seen: dict) -> str:
    return '{"num": %s, "den": %s}' % (_raw(value.numerator), _raw(value.denominator))


def _diagnostic(diag: Diagnostic, upto: int, seen: dict) -> str:
    return ('{"start": %s, "end": %s, "message": %s}'
            % (_raw(diag.span.start), _raw(diag.span.end), _raw(diag.message)))


def _record(cls: type):
    """The writer of a report record: its fields by name, in declaration
    order, each written as a value."""
    names = [field.name for field in fields(cls)]
    template = "{" + ", ".join(f'"{name}": %s' for name in names) + "}"
    values = attrgetter(*names)

    def write(record, upto: int, seen: dict) -> str:
        return template % tuple([_write(v, upto, seen) for v in values(record)])

    return write


_WRITERS = {
    OrbitInvariants: _datum,
    CappingReport: _capping,
    PoincareSeries: _series,
    FormalityResult: _formality,
    Fraction: _fraction,
    Diagnostic: _diagnostic,
    CanonicalForm: _canonical,
    **{cls: _record(cls) for cls in (ValidationReport, Violation, DerivedCounts, FixedSetShape)},
}
