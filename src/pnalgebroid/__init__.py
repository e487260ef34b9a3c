"""Symbolic and numeric calculus for Lie algebroids carrying Poisson and
Nijenhuis structures, with a two-step reduction to a symplectic pair with
invertible Nijenhuis tensor, and self-verifying built-in fixtures."""

from .expr import (
    Expr, Point, DualValue, parse, ExprError, ExprSyntaxError, div_exact,
    ZERO, ONE,
)
from .linalg import Frac
from .algebroid import (
    LieAlgebroid, Section, KForm, CheckReport, d_A, interior, lie_derivative,
    zero_form,
)
from .poisson import (
    Bivector, DegenerateBivector, SymplecticReport,
    is_poisson, are_compatible, koszul_bracket, dual_algebroid,
    induced_base_poisson, symplectic_check, invert_symplectic, invert_poisson,
    hamiltonian_section, schouten_1r, two_form_matrix, two_form_from_matrix,
    flat,
)
from .nijenhuis import (
    Endo, PNReport, HierarchyReport, torsion, torsion_check,
    deformed_bracket, deformed_algebroid, sharp_commutes, concomitant,
    concomitant_check, pn_check, recursion_operator, hierarchy,
    hierarchy_check, bihamiltonian_check,
)
from .lifts import (
    total_space, dual_total_space, lift_function, lift_section,
    lift_bivector, star_complete_lift, linear_function, fb_generators,
)
from .reduction import (
    EpimorphismSpec, NotBasic, LeafSpec, LeafRestriction, SubalgebroidReport,
    rewrite_basic, projectable_section_check, projectable_form_check,
    projectable_bivector_check, projectable_endo_check, project_section,
    project_bivector, project_endo, restrict_to_leaf, symbolic_riesz_index,
    kernel_subalgebroid_check,
)
from .pointwise import (
    RieszPointReport, FiberReport, FBPointReport, default_tolerance,
    characteristic_rank, riesz_at_point, riesz_report, sample_points,
    fiberwise_reduce, condition_fb_check,
)
from .fixtures import (
    TodaFixture, SemidirectFixture, build_toda, build_semidirect, build_aff1,
)
from .specio import (
    SpecDocument, SpecFileError, parse_document, serialize_document,
    load_document,
)

__version__ = "0.1.0"
