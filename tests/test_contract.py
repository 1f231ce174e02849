"""The error contract of the public API, drawn by hypothesis.

Every public entry point that takes a datum, a datum's fields and pairs, a
census bound or census bounds, an integer, the text of a datum, a
cohomology class or a capping report is called with ints, bools, floats,
``Fraction``s, strings, ``None`` and numpy integers (where numpy imports)
in every such argument, field and pair entry, and with values of the
argument's own kind.  Each call returns, or raises a ``TypeError`` naming
the argument or a ``ValueError`` (its subclasses ``ParseError``,
``InvariantError``, ``CappingError``, ``RelationError`` and
``ContextError`` included).  ``validate`` never raises on a datum and
reports ``domain`` for exactly the non-integral values and the negative
counts, and the constructor stores an integral value as the equal ``int``
and any other value as it is.  Scalar and cycle arguments (``Poly``, the
cycle-word functions) have contracts of their own and are not drawn here.
"""

import re
from fractions import Fraction
from numbers import Integral

import pytest
from hypothesis import given, settings, strategies as st

from orbitinv import (
    EnumerationBounds,
    EquivariantCohomology,
    OrbitInvariants,
    Orientability,
    PoincareSeries,
    SeifertPair,
    betti,
    canonical_form,
    cap_off,
    classify_2d,
    cup,
    derived_counts,
    emit_json,
    enumerate_invariants,
    equivalent,
    equivariant_poincare,
    euler_number,
    fixed_set_shape,
    inverse_mod,
    is_formal,
    module_action,
    normalize,
    orbit_euler_characteristic,
    orbit_space_poincare,
    parse,
    parse_with_diagnostics,
    serialize,
    to_jsonable,
    valid_cycle_words,
    validate,
    verify_capping,
)

from datum_helper import datum, held_order
from numpy_helper import numpy

NUMPY = [] if numpy is None else [
    st.integers(-3, 12).map(numpy.int64),
    st.integers(0, 12).map(numpy.uint8),
    st.integers(-3, 12).map(numpy.int32),
]
VALUES = st.one_of(
    st.integers(-3, 12), st.booleans(), st.integers(-3, 12).map(float),
    st.floats(-3, 12, allow_nan=False), st.fractions(-3, 12, max_denominator=3),
    st.sampled_from(["", "1", "o", "n", "x"]), st.none(), *NUMPY)
COUNTS = ("b", "g", "f", "s", "t")
GRAPHS = [(), [["F", "SP"]], [["F", "RP", "SE", "RP"]], [["SE", "K", "SE", "K"]], [["F", "SE"]]]
PAIRS = st.lists(st.tuples(VALUES, VALUES, st.booleans()), max_size=2)
FIELDS = st.fixed_dictionaries({
    "eps": st.one_of(st.sampled_from(["o", "n"]), VALUES),
    **{name: st.one_of(st.integers(0, 2), VALUES) for name in COUNTS},
    "pairs": PAIRS,
    "graph": st.sampled_from(GRAPHS),
})


def build(fields):
    """The datum of drawn fields; a pair flagged True is given as a
    ``SeifertPair``, else as a tuple.  ``None`` where the constructor
    raises, which must be a ``ValueError``."""
    pairs = [SeifertPair(m, n) if as_pair else (m, n) for m, n, as_pair in fields["pairs"]]
    try:
        return OrbitInvariants(**{**fields, "pairs": pairs})
    except ValueError:
        return None


DATA = FIELDS.map(build).filter(lambda inv: inv is not None)
DATUM_ARGUMENTS = st.one_of(DATA, VALUES)
RING = EquivariantCohomology(datum(f=2, s=1))
ELEMENTS = st.sampled_from([RING.zero(), RING.unit(), RING.u_class(),
                            RING.from_parts(C=(1, -1), q=(1, -1)),
                            EquivariantCohomology(datum(f=1)).unit()])
REPORTS = st.sampled_from([cap_off(datum(f=1, t=1)),
                           cap_off(datum(g=1, graph=[["F", "RP", "SE", "RP"]]))])
TEXTS = st.sampled_from(["{b=0;(o,g=0,f=1,s=0,t=0)}", "{b=1;(o,g=0,f=1,s=0,t=0)}",
                         "{b=0;(o,g=0,f=0,s=0,t=0);G=[<F,SP>]}", "{b=0;(", "<F,SP>"])
SERIES = st.sampled_from([PoincareSeries(()), equivariant_poincare(datum(f=2)),
                          equivariant_poincare(datum(g=1, t=1)),
                          equivariant_poincare(datum(b=1, pairs=[(3, 1)]))])
JSON_FORM = r"(Object of type \w+ is not JSON serializable|no JSON form for \w+)$"

# entry point: (function, strategies of its keyword arguments, the text of
# any other TypeError it documents)
ENTRY_POINTS = {
    **{function.__name__: (function, {"inv": DATUM_ARGUMENTS}, None) for function in (
        validate, normalize, canonical_form, derived_counts, cap_off,
        orbit_euler_characteristic, fixed_set_shape, orbit_space_poincare,
        equivariant_poincare, is_formal, euler_number, EquivariantCohomology, serialize)},
    "equivalent": (equivalent, {"a": DATUM_ARGUMENTS, "b": DATUM_ARGUMENTS}, None),
    "betti": (betti, {"inv": DATUM_ARGUMENTS, "k": VALUES}, None),
    "emit_json": (emit_json, {"obj": DATUM_ARGUMENTS, "expansion_upto": VALUES}, JSON_FORM),
    "to_jsonable": (to_jsonable, {"obj": DATUM_ARGUMENTS, "expansion_upto": VALUES},
                    JSON_FORM),
    "classify_2d": (classify_2d, {"boundary": VALUES, "fixed": VALUES, "special": VALUES},
                    None),
    "module_action": (module_action, {"power": VALUES, "x": st.one_of(ELEMENTS, VALUES)},
                      None),
    "cup": (cup, {"a": st.one_of(ELEMENTS, VALUES), "b": st.one_of(ELEMENTS, VALUES)}, None),
    **{function.__name__: (function, {"text": st.one_of(TEXTS, st.text(max_size=8), VALUES)},
                           None)
       for function in (parse, parse_with_diagnostics)},
    "verify_capping": (verify_capping, {"report": st.one_of(REPORTS, DATA, VALUES)}, None),
    "enumerate_invariants": (lambda bounds: next(enumerate_invariants(bounds), None), {
        "bounds": st.one_of(st.just(EnumerationBounds(max_f=1)), VALUES)}, None),
    "coefficient": (lambda series, k: series.coefficient(k), {"series": SERIES, "k": VALUES},
                    None),
    "expansion": (lambda series, upto: series.expansion(upto),
                  {"series": SERIES, "upto": VALUES}, None),
    "inverse_mod": (inverse_mod, {"n": VALUES, "m": VALUES}, None),
    "valid_cycle_words": (valid_cycle_words, {"max_len": VALUES}, None),
    "EnumerationBounds": (EnumerationBounds, {
        **{f"max_{name}": st.one_of(st.integers(0, 3), VALUES)
           for name in ("g", "f", "s", "t", "r", "m", "cycles", "cycle_len")},
        "b_range": st.one_of(st.tuples(VALUES, VALUES), VALUES)}, None),
}


def integral(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_raises_only_documented_errors(entry, data):
    function, arguments, other = ENTRY_POINTS[entry]
    kwargs = {name: data.draw(strategy, label=name) for name, strategy in arguments.items()}
    try:
        function(**kwargs)
    except TypeError as error:
        text = str(error)
        assert (any(text.startswith(f"{name} must be") for name in kwargs)
                or other is not None and re.match(other, text)), text
    except ValueError:
        pass


@settings(max_examples=300, deadline=None)
@given(fields=FIELDS)
def test_constructor_stores_integers_as_int_and_keeps_the_rest(fields):
    inv = build(fields)
    if inv is None:
        return
    given_values = [fields[name] for name in COUNTS]
    given_values += [v for i in held_order(fields["pairs"]) for v in fields["pairs"][i][:2]]
    stored = [getattr(inv, name) for name in COUNTS]
    stored += [v for pair in inv.pairs for v in (pair.m, pair.n)]
    for value, kept in zip(given_values, stored):
        if integral(value):
            assert type(kept) is int and kept == value
        else:
            assert kept is value


@settings(max_examples=300, deadline=None)
@given(fields=FIELDS)
def test_validate_reports_domain_for_exactly_the_non_integral_values(fields):
    inv = build(fields)
    if inv is None:
        return
    report = validate(inv)
    flagged = {re.match(r"pair #\d+|\w+", v.message).group()
               for v in report.violations if v.condition == "domain"}
    expected = {name for name in COUNTS if not integral(fields[name])}
    expected |= {name for name in COUNTS[1:] if integral(fields[name]) and fields[name] < 0}
    held = [fields["pairs"][i] for i in held_order(fields["pairs"])]
    expected |= {f"pair #{i}" for i, (m, n, _) in enumerate(held)
                 if not (integral(m) and integral(n))}
    if not isinstance(inv.eps, Orientability):
        expected.add("eps")
    assert flagged == expected
    assert report.ok == (not report.violations)


def test_fraction_scalars_are_not_integers():
    """A ``Fraction`` equal to an integer is not an integer: kept, and
    refused where an integer is required."""
    inv = datum(g=Fraction(1), pairs=[(Fraction(3), 1)])
    assert type(inv.g) is Fraction and type(inv.pairs[0].m) is Fraction
    with pytest.raises(TypeError, match="^max_len must be an integer"):
        valid_cycle_words(Fraction(4))
    with pytest.raises(TypeError, match="^n must be an integer"):
        inverse_mod(Fraction(2), 5)
