"""JSON reports: the stable JSON form of data, values and report types.

Every report type goes through :func:`emit_json`; the field names are part
of the public contract (README "JSON output").  This module imports every
result type it encodes, so loading it loads the operations; the notation
alone is :mod:`orbitinv.textio`.

A capping report is the largest output: its notes repeat the rendered cycle
word once per sewn RP pair.  The notes :func:`~orbitinv.capping.cap_off`
builds need no escapes (``capping._Notes``), so :func:`emit_json` writes a
report holding them with one ``json.dumps`` of the other fields and one
``str.join`` that copies the notes once and never scans them.  Any other
input, a report with plain-tuple notes or one nested in a container
included, is ``json.dumps(to_jsonable(obj))``; both give the same bytes.
"""

from __future__ import annotations

import json
from dataclasses import fields
from fractions import Fraction
from typing import Any

from .capping import CappingReport, _Notes
from .cyclegraph import LABEL_NAMES
from .formality import FormalityResult
from .invariants import (
    CanonicalForm,
    DerivedCounts,
    OrbitInvariants,
    Orientability,
    ValidationReport,
    Violation,
    pair_mn,
)
from .series import FixedSetShape, PoincareSeries
from .textio import Diagnostic, serialize


def to_jsonable(obj: Any, expansion_upto: int = 10) -> Any:
    """Convert a report or value to JSON-ready primitives.

    Stable field names: rationals as {"num", "den"}; series as
    {"numerator", "denominator", "expansion"}; the report records
    ``ValidationReport``, ``Violation``, ``DerivedCounts`` and
    ``FixedSetShape`` by their field names.  Library types are matched by
    exact class, and any other object is a ``TypeError``.
    """
    cls = obj.__class__
    if cls is Fraction:
        return {"num": obj.numerator, "den": obj.denominator}
    if cls is PoincareSeries:
        return {
            "numerator": list(obj.num),
            "denominator": list(obj.den),
            "expansion": obj.expansion(expansion_upto),
        }
    if cls is Diagnostic:
        return {"start": obj.span.start, "end": obj.span.end, "message": obj.message}
    if cls is OrbitInvariants:
        return {
            "text": serialize(obj),
            "b": obj.b,
            "eps": obj.eps.value if obj.eps.__class__ is Orientability else obj.eps,
            "g": obj.g,
            "f": obj.f,
            "s": obj.s,
            "t": obj.t,
            "pairs": list(map(list, sorted(map(pair_mn, obj.pairs)))),
            "graph": [list(map(LABEL_NAMES.__getitem__, cycle)) for cycle in obj.graph],
        }
    if cls is CanonicalForm:
        return {
            "b": obj.b,
            "eps": obj.eps.value,
            "g": obj.g,
            "f": obj.f,
            "s": obj.s,
            "t": obj.t,
            "pairs": [[p.m, p.n] for p in obj.pairs],
            "graph": [list(map(LABEL_NAMES.__getitem__, word)) for word in obj.graph_canon],
        }
    if cls is CappingReport:
        out = _capping_head(obj)
        out["notes"] = list(obj.notes)
        return out
    if cls is FormalityResult:
        return {
            "formal": obj.formal,
            "reason": obj.reason,
            "generators": [{"degree": gen.degree, "label": gen.label}
                           for gen in obj.generators],
        }
    if isinstance(obj, dict):
        return {k: to_jsonable(v, expansion_upto) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v, expansion_upto) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if cls in (ValidationReport, Violation, DerivedCounts, FixedSetShape):
        return {f.name: to_jsonable(getattr(obj, f.name), expansion_upto) for f in fields(obj)}
    raise TypeError(f"no JSON form for {type(obj).__name__}")


def _capping_head(report: CappingReport) -> dict:
    """The JSON form of a capping report's fields before ``notes``."""
    return {
        "input": to_jsonable(report.input),
        "output": to_jsonable(report.output),
        "chi_before": report.chi_before,
        "chi_after": report.chi_after,
        "rp_pairings": [{"cycle": ci, "positions": list(pos)}
                        for ci, pos in report.rp_pairings],
    }


def emit_json(obj: Any, expansion_upto: int = 10) -> str:
    """``json.dumps(to_jsonable(obj, expansion_upto))``, byte for byte."""
    if obj.__class__ is CappingReport and obj.notes.__class__ is _Notes:
        head = json.dumps(_capping_head(obj))[:-1]  # drop the closing brace
        notes = obj.notes
        if not notes:
            return head + ', "notes": []}'
        # head, then each note quoted and comma-separated, in one join
        parts = ['", "'] * (2 * len(notes) + 1)
        parts[0] = head + ', "notes": ["'
        parts[1::2] = notes
        parts[-1] = '"]}'
        return "".join(parts)
    return json.dumps(to_jsonable(obj, expansion_upto))
