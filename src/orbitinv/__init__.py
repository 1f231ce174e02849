"""Circle actions on compact 3-manifolds: classification data, capping, and
exact rational equivariant cohomology.

A manifold is handled entirely through its orbit invariants

    {b; (eps, g, f, s, t); (m_1, n_1), ...; G}

see :mod:`orbitinv.invariants` for the datum, :mod:`orbitinv.textio` for the
notation, and the remaining modules for the operations on it.

An integer argument (a degree, a bound, a power, a count) may be of any
integral type, numpy's included; a ``bool`` or a non-integral value is a
``TypeError`` naming the argument.
"""

from .capping import CappingError, CappingReport, cap_off, orbit_euler_characteristic, verify_capping
from .census import EnumerationBounds, enumerate_invariants
from .cyclegraph import (
    EMPTY_GRAPH,
    CycleGraph,
    EdgeLabel,
    GraphReport,
    GraphViolation,
    canonicalize_cycle,
    graph_canonical,
    graphs_isomorphic,
    render_cycle,
    valid_cycle_words,
    validate_graph,
    vertex_labels,
)
from .elements import (
    CohomElement,
    ContextError,
    EquivariantCohomology,
    RelationError,
    cup,
    degree_decompose,
    module_action,
)
from .formality import (
    FormalityResult,
    ModuleGenerator,
    euler_number,
    inverse_mod,
    is_formal,
)
from .invariants import (
    NONORIENTABLE,
    ORIENTABLE,
    CanonicalForm,
    DerivedCounts,
    InvariantError,
    OrbitInvariants,
    Orientability,
    SeifertPair,
    Surface2d,
    ValidationReport,
    Violation,
    canonical_form,
    classify_2d,
    derived_counts,
    equivalent,
    normalize,
    validate,
)
from .polyq import Poly
from .series import (
    FixedSetShape,
    PoincareSeries,
    betti,
    equivariant_poincare,
    fixed_set_shape,
    orbit_space_poincare,
)
from .textio import (
    Diagnostic,
    ParseError,
    SourceSpan,
    emit_json,
    parse,
    parse_with_diagnostics,
    serialize,
    to_jsonable,
)

__version__ = "0.1.0"
