"""Exact-arithmetic toolkit for continued fractions and AF-algebra invariants.

The package computes regular and Jacobi-Perron continued fractions in exact
arithmetic (rationals, real number fields, certified intervals), builds the
Bratteli diagrams of the associated Effros-Shen and toric AF-algebras, and
decides the unimodular invariance properties of period modules.
"""

from .numeric import (
    IndeterminateError,
    IntervalReal,
    NumberField,
    NumberFieldElement,
    RealScalar,
    RootIsolationError,
    algebraic_root,
    compare,
    floor_exact,
    parse_scalar,
    scalar_to_json,
    to_interval,
)
from .contfrac import (
    CFExpansion,
    InsufficientDepthError,
    Mat2Z,
    PoleError,
    TailEquivalenceReport,
    cf_convergents,
    cf_expand,
    cf_matrix_product,
    cf_tail_equivalent,
    euclid_cf,
    mobius_apply,
)
from .jacobi_perron import (
    DegenerateVectorError,
    JPConvergentState,
    JPExpansion,
    effros_shen_divergent,
    effros_shen_expansion,
    jp_convergents,
    jp_digit_matrix,
    jp_expand,
    jp_limit_check,
    jp_step,
    perron_condition,
)
from .bratteli import (
    BratteliDiagram,
    DimensionGroupTelescope,
    DivergentExpansionError,
    diagram_from_digits,
    dimension_vectors,
    effros_shen_diagram,
    export_dot,
    positive_cone_generators,
    telescope,
    toric_diagram,
    unique_trace_estimate,
)
from .lattice import (
    FunctorBundle,
    MappingClassElement,
    NonpositivePeriodError,
    ProjectivePseudoLattice,
    PseudoLattice,
    basis_change,
    from_projective,
    functor_covariance_check,
    functor_map,
    genus_dimension,
    module_equal,
    observation_check,
    projectivize,
)

__version__ = "0.1.0"
