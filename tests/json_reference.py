"""The dict builder ``orbitinv.jsonio`` carried before ``emit_json`` wrote
JSON text directly, kept as the reference the tests compare the encoder
against: ``emit_json(x) == json.dumps(to_jsonable(x))`` byte for byte, and
the same exception class wherever this builder or ``json.dumps`` refuses
``x``.  Its one change is the pair order, which keeps pairs that cannot be
sorted in their given order; it is stated here again (``_pair_order``), not
taken from ``orbitinv.textio``, so that the identity checks the encoder's."""

from __future__ import annotations

from dataclasses import fields
from fractions import Fraction
from typing import Any

from orbitinv.capping import CappingReport
from orbitinv.cyclegraph import LABEL_NAMES
from orbitinv.formality import FormalityResult
from orbitinv.invariants import (
    CanonicalForm,
    DerivedCounts,
    OrbitInvariants,
    Orientability,
    ValidationReport,
    Violation,
)
from orbitinv.series import FixedSetShape, PoincareSeries
from orbitinv.textio import Diagnostic, serialize


def _pair_order(pairs) -> list[tuple]:
    """The ``(m, n)`` tuples of ``pairs`` sorted, or in their given order when
    sorting them raises ``TypeError``."""
    mns = [(pair.m, pair.n) for pair in pairs]
    try:
        return sorted(mns)
    except TypeError:
        return mns


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
            "pairs": list(map(list, _pair_order(obj.pairs))),
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
        return {
            "input": to_jsonable(obj.input),
            "output": to_jsonable(obj.output),
            "chi_before": obj.chi_before,
            "chi_after": obj.chi_after,
            "rp_pairings": [{"cycle": ci, "positions": list(pos)}
                            for ci, pos in obj.rp_pairings],
            "notes": list(obj.notes),
        }
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
