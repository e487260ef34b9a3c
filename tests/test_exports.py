"""The names the package exports, pinned so that a change to the public API
is made on purpose."""

import inspect

import pnalgebroid
from pnalgebroid import linalg, nijenhuis, poisson

EXPORTS = {
    # expr
    "Expr", "Point", "DualValue", "parse", "ExprError", "ExprSyntaxError",
    "div_exact", "ZERO", "ONE",
    # linalg
    "Frac",
    # algebroid
    "LieAlgebroid", "Section", "KForm", "CheckReport", "d_A", "interior",
    "lie_derivative", "zero_form",
    # poisson
    "Bivector", "DegenerateBivector", "SymplecticReport", "is_poisson",
    "are_compatible", "koszul_bracket", "dual_algebroid",
    "induced_base_poisson", "symplectic_check", "invert_symplectic",
    "invert_poisson", "hamiltonian_section", "schouten_1r", "two_form_matrix",
    "two_form_from_matrix", "flat",
    # nijenhuis
    "Endo", "PNReport", "HierarchyReport", "torsion", "torsion_check",
    "deformed_bracket", "deformed_algebroid", "sharp_commutes", "concomitant",
    "concomitant_check", "pn_check", "recursion_operator", "hierarchy",
    "hierarchy_check", "bihamiltonian_check",
    # lifts
    "total_space", "dual_total_space", "lift_function", "lift_section",
    "lift_bivector", "star_complete_lift", "linear_function", "fb_generators",
    # reduction
    "EpimorphismSpec", "NotBasic", "LeafSpec", "LeafRestriction",
    "RieszPointReport", "FiberReport", "SubalgebroidReport", "FBPointReport",
    "default_tolerance", "rewrite_basic", "projectable_section_check",
    "projectable_form_check", "projectable_bivector_check",
    "projectable_endo_check", "project_section", "project_bivector",
    "project_endo", "characteristic_rank", "restrict_to_leaf",
    "riesz_at_point", "riesz_report", "sample_points", "fiberwise_reduce",
    "symbolic_riesz_index", "kernel_subalgebroid_check", "condition_fb_check",
    # fixtures
    "TodaFixture", "SemidirectFixture", "build_toda", "build_semidirect",
    "build_aff1",
    # specio
    "SpecDocument", "SpecFileError", "parse_document", "serialize_document",
    "load_document",
}


def test_exported_names_are_pinned():
    exported = {
        name for name, value in vars(pnalgebroid).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == EXPORTS


def test_one_numerator_denominator_type():
    assert pnalgebroid.Frac is linalg.Frac
    for module in (pnalgebroid, linalg, poisson, nijenhuis):
        for gone in ("FracMatrix", "FracBivector", "FracTwoForm", "FracEndo"):
            assert not hasattr(module, gone)
    assert pnalgebroid.__version__ == "0.1.0"
