"""Circle actions on compact 3-manifolds: classification data, capping, and
exact rational equivariant cohomology.

A manifold is handled entirely through its orbit invariants

    {b; (eps, g, f, s, t); (m_1, n_1), ...; G}

see :mod:`orbitinv.invariants` for the datum, :mod:`orbitinv.textio` for the
notation, :mod:`orbitinv.jsonio` for the JSON reports, and the remaining
modules for the operations on it.

Submodules load on first use: ``import orbitinv`` imports none of them, and
the first access to a submodule or to one of the names below (PEP 562
``__getattr__``) imports that submodule and keeps the value here.
``from orbitinv import *`` binds the names of ``__all__``, not the
submodules.

An integer (an argument, a bound, a datum's count or pair entry) may be of
any integral type, numpy's included, and is stored as an ``int``.  A
``bool`` or a non-integral value is a ``TypeError`` naming the argument,
a ``ValueError`` naming the bound, or kept in the datum for ``validate`` to
report; a datum argument that is not an ``OrbitInvariants`` is a
``TypeError`` naming it.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it exports.
_EXPORTS = {
    "capping": "CappingError CappingReport cap_off orbit_euler_characteristic verify_capping",
    "census": "EnumerationBounds enumerate_invariants",
    "cyclegraph": "EMPTY_GRAPH CycleGraph EdgeLabel GraphReport GraphViolation "
                  "canonicalize_cycle graph_canonical graphs_isomorphic render_cycle "
                  "valid_cycle_words validate_graph vertex_labels",
    "elements": "CohomElement ContextError EquivariantCohomology RelationError cup "
                "degree_decompose module_action",
    "formality": "FormalityResult ModuleGenerator euler_number inverse_mod is_formal",
    "invariants": "NONORIENTABLE ORIENTABLE CanonicalForm DerivedCounts InvariantError "
                  "OrbitInvariants Orientability SeifertPair Surface2d ValidationReport "
                  "Violation canonical_form classify_2d derived_counts equivalent normalize "
                  "validate",
    "jsonio": "emit_json to_jsonable",
    "polyq": "Poly",
    "series": "FixedSetShape PoincareSeries betti equivariant_poincare fixed_set_shape "
              "orbit_space_poincare",
    "textio": "Diagnostic ParseError SourceSpan parse parse_with_diagnostics serialize",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_ORIGIN)


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f".{module}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_ORIGIN})
