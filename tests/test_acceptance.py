"""Acceptance gate: the end-to-end verdicts the package promises on its
built-in fixtures, with independent oracles for the closed-form values.

Each test ends in one pass/fail assertion per promised verdict."""

import math
import random

import numpy as np
import pytest

from pnalgebroid.expr import Expr, Point, parse, ZERO, ONE
from pnalgebroid.algebroid import LieAlgebroid, Section, KForm, d_A
from pnalgebroid.poisson import (
    Bivector, is_poisson, are_compatible, koszul_bracket, dual_algebroid,
    induced_base_poisson, symplectic_check, invert_poisson,
    DegenerateBivector, two_form_matrix,
)
from pnalgebroid.nijenhuis import (
    Endo, torsion_check, concomitant_check, pn_check, recursion_operator,
    hierarchy, hierarchy_check, bihamiltonian_check, sharp_commutes,
)
from pnalgebroid.lifts import (
    lift_section, star_complete_lift, linear_function, total_space,
    dual_total_space, fiber_vars,
)
from pnalgebroid.reduction import (
    LeafSpec, restrict_to_leaf, projectable_endo_check, project_bivector,
    riesz_report, fiberwise_reduce, sample_points, riesz_at_point,
)
from pnalgebroid.fixtures import build_toda, build_aff1

TOL = 1e-10
SIZES = (2, 3, 4)


@pytest.fixture(scope="module")
def toda():
    return {n: build_toda(n) for n in SIZES}


@pytest.fixture(scope="module")
def aff1():
    return build_aff1()


# -- independent oracles ------------------------------------------------------

def laplace_det(mat):
    """Independent determinant: first-row Laplace expansion, no shared code
    with the library's fraction-free routine."""
    m = len(mat)
    if m == 1:
        return mat[0][0]
    total = ZERO
    for j in range(m):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * laplace_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def pfaffian4(mat):
    """Independent Pfaffian of an antisymmetric 4x4 matrix:
    Pf = p01 p23 - p02 p13 + p03 p12."""
    return (
        mat[0][1] * mat[2][3] - mat[0][2] * mat[1][3] + mat[0][3] * mat[1][2]
    )


def random_box_points(variables, count, seed, box=None):
    return sample_points(
        variables, count, seed,
        box or {v: (0.5, 2.0) for v in variables if v.startswith("a")},
    )


# -- 1. the canonical pair is Poisson-Nijenhuis on all three sizes -----------

@pytest.mark.parametrize("n", SIZES)
def test_criterion_1_canonical_pair_is_pn(toda, n):
    t = toda[n]
    assert is_poisson(t.lam0).ok, "lam0 fails the Poisson condition"
    assert is_poisson(t.lam1).ok, "lam1 fails the Poisson condition"
    assert are_compatible(t.lam0, t.lam1).ok, "lam0 + lam1 is not Poisson"
    assert torsion_check(t.N).ok, "the recursion tensor has torsion"
    assert concomitant_check(t.lam0, t.N).ok, "concomitant (lam0, N) is nonzero"
    assert _max_concomitant_residual(t, 200, seed=17) < TOL, (
        "numeric concomitant residual exceeds 1e-10"
    )


def _max_concomitant_residual(t, count, seed):
    """Assemble the concomitant numerically from its four Koszul-bracket
    terms so that the floating-point cancellation is genuinely exercised."""
    A = t.tangent
    P, N = t.lam0, t.N
    NP = N.push_bivector(P)
    pairs = []
    for a in range(A.rank):
        for b in range(a + 1, A.rank):
            al, be = A.dual_frame_form(a), A.dual_frame_form(b)
            terms = (
                koszul_bracket(NP, al, be),
                koszul_bracket(P, N.dual_apply(al), be).scale(Expr.number(-1)),
                koszul_bracket(P, al, N.dual_apply(be)).scale(Expr.number(-1)),
                N.dual_apply(koszul_bracket(P, al, be)),
            )
            pairs.append(terms)
    worst = 0.0
    for values in sample_points(list(A.base_vars), count, seed):
        pt = Point(values)
        for terms in pairs:
            for g in range(A.rank):
                s = sum(
                    dict(term.comps).get((g,), ZERO).evaluate(pt) for term in terms
                )
                worst = max(worst, abs(s))
    return worst


# -- 2. the recursion operator reproduces the closed-form tensor -------------

@pytest.mark.parametrize("n", SIZES)
def test_criterion_2_recursion_operator_closed_form(toda, n):
    t = toda[n]
    got = recursion_operator(t.lam0, t.lam1).exact()
    assert (got - t.N).is_zero(), "recursion operator differs from the closed form"


# -- 3. projection to the quotient coordinates -------------------------------

@pytest.mark.parametrize("n", SIZES)
def test_criterion_3_bivectors_project_endo_does_not(toda, n):
    t = toda[n]
    assert (project_bivector(t.epi_flaschka, t.lam0) - t.lam0_bar).is_zero(), (
        "lam0 does not project to lam0_bar"
    )
    assert (project_bivector(t.epi_flaschka, t.lam1) - t.lam1_bar).is_zero(), (
        "lam1 does not project to lam1_bar"
    )
    rep = projectable_endo_check(t.epi_flaschka, t.N)
    assert not rep.ok and "kernel" in rep.witness(), (
        "the recursion tensor must fail projectability with a kernel witness"
    )


# -- 4. the projected pair has no recursion operator -------------------------

@pytest.mark.parametrize("n", SIZES)
def test_criterion_4_projected_pair_degenerate_with_witness(toda, n):
    t = toda[n]
    with pytest.raises(DegenerateBivector) as exc:
        recursion_operator(t.lam0_bar, t.lam1_bar)
    # the kernel covector is proportional to the sum of the db_i directions
    w = exc.value.witness
    assert w is not None, "degeneracy must come with a kernel covector witness"
    comps = list(w)
    n_a = n - 1
    a_part_zero = all(c.is_zero() for c in comps[:n_a])
    b_part = comps[n_a:]
    ref = next(c for c in b_part if not c.is_zero())
    proportional = all((c - ref).is_zero() for c in b_part)
    assert a_part_zero and proportional, "witness is not proportional to sum(db_i)"


# -- 5. invariant-frame presentation ------------------------------------------

@pytest.mark.parametrize("n", SIZES)
def test_criterion_5_invariant_frame_structures(toda, n):
    t = toda[n]
    assert t.atiyah.check_algebroid().ok, "invariant-frame algebroid fails axioms"
    om = invert_poisson(t.pi0)
    assert symplectic_check(om).ok, "inverse of pi0 is not symplectic"
    det_oracle = laplace_det([list(r) for r in t.pi0.mat])
    want = ONE
    for i in range(n - 1):
        want = want * parse(f"a{i+1}") * parse(f"a{i+1}")
    assert (det_oracle - want).is_zero(), "det pi0 differs from prod a_i^2"
    assert (induced_base_poisson(t.pi0, t.flaschka) - t.lam0_bar).is_zero(), (
        "pi0 does not induce lam0_bar on the base"
    )
    assert (induced_base_poisson(t.pi1, t.flaschka) - t.lam1_bar).is_zero(), (
        "pi1 does not induce lam1_bar on the base"
    )


def test_criterion_5_invariant_frame_is_sn(toda):
    # the recursion operator of (pi0, pi1) has polynomial entries only for
    # two sites; the operator-level verdicts run there
    t = toda[2]
    rep = pn_check(t.pi0, t.recursion_atiyah().exact())
    assert rep.sn, rep.witness() or "pair (pi0, N_A) is not symplectic-Nijenhuis"
    assert (rep.determinant - parse("a1^2")).is_zero(), "det pi0 != a1^2"


# -- 6. the bi-Hamiltonian ladder ---------------------------------------------

@pytest.mark.parametrize("n", (2, 3))
def test_criterion_6_bihamiltonian_both_presentations(toda, n):
    t = toda[n]
    rep = bihamiltonian_check(t.lam0, t.lam1, t.H0, t.H1)
    assert rep.ok, "canonical ladder: lam0# dH1 != lam1# dH0"
    rep = bihamiltonian_check(t.lam0_bar, t.lam1_bar, t.H0_bar, t.H1_bar)
    assert rep.ok, "quotient ladder: lam0_bar# dH1_bar != lam1_bar# dH0_bar"


# -- 7. the hierarchy of compatible structures -------------------------------

def test_criterion_7_hierarchy(toda):
    t = toda[2]
    NA = t.recursion_atiyah().exact()
    for l in (1, 2, 3):
        rep = pn_check(t.pi0, NA.power(l))
        assert rep.ok, f"(pi0, N_A^{l}) fails the Poisson-Nijenhuis verdicts"
    rep = hierarchy_check(t.pi0, NA, 3)
    assert rep.ok, "the deformed bivectors are not pairwise compatible"


# -- 8. lift calculus ---------------------------------------------------------

def _random_sections(A, rng, count):
    out = []
    for _ in range(count):
        out.append(
            Section(
                A,
                tuple(
                    Expr.number(rng.randint(-2, 2))
                    + Expr.number(rng.randint(-1, 1))
                    * Expr.var(rng.choice(list(A.base_vars)))
                    for _ in range(A.rank)
                ),
            )
        )
    return out


@pytest.mark.parametrize("which", ("toda-invariant", "aff1"))
def test_criterion_8_lift_bracket_identities(toda, aff1, which):
    A = toda[2].atiyah if which == "toda-invariant" else aff1.algebroid
    rng = random.Random(23)
    secs = _random_sections(A, rng, 60)
    T, Tstar = total_space(A), dual_total_space(A)
    for X, Y in zip(secs[::2], secs[1::2]):  # 30 pairs
        cc = T.bracket(lift_section(A, X, "c"), lift_section(A, Y, "c"))
        assert (cc - lift_section(A, A.bracket(X, Y), "c")).is_zero(), (
            "[X^c, Y^c] != [X, Y]^c"
        )
        cv = T.bracket(lift_section(A, X, "c"), lift_section(A, Y, "v"))
        assert (cv - lift_section(A, A.bracket(X, Y), "v")).is_zero(), (
            "[X^c, Y^v] != [X, Y]^v"
        )
        vv = T.bracket(lift_section(A, X, "v"), lift_section(A, Y, "v"))
        assert vv.is_zero(), "[X^v, Y^v] != 0"
        got = Tstar.anchor_apply(star_complete_lift(A, X), linear_function(A, Y))
        assert (got - linear_function(A, A.bracket(X, Y))).is_zero(), (
            "X^{*c} does not act as the bracket on linear functions"
        )


def test_criterion_8_frame_element_coordinate_formulas(toda):
    A = toda[2].atiyah
    ys = fiber_vars(A)
    for a in range(A.rank):
        v = lift_section(A, A.frame_section(a), "v")
        want_fiber = [ONE if b == a else ZERO for b in range(A.rank)]
        assert all(c.is_zero() for c in v.comps[:A.dim]), "e_a^v has base part"
        assert all(
            (c - w).is_zero() for c, w in zip(v.comps[A.dim:], want_fiber)
        ), "e_a^v != d/dy_a"
        c = lift_section(A, A.frame_section(a), "c")
        assert all(
            (cc - A.anchor[a][i]).is_zero()
            for i, cc in enumerate(c.comps[:A.dim])
        ), "base part of e_a^c is not the anchor row"
        # with constant anchor and vanishing structure functions the fiber
        # part of the complete lift reduces to -C_{gb}^a y_b = 0
        assert all(x.is_zero() for x in c.comps[A.dim:]), (
            "e_a^c fiber part should vanish for a flat invariant frame"
        )


# -- 9. the semidirect fixture and its pointwise reduction -------------------

def test_criterion_9_aff1_reduction(aff1):
    rep = symplectic_check(aff1.omega)
    assert rep.ok and rep.closed, "the pairing two-form is not symplectic"
    assert (rep.determinant - ONE).is_zero(), "det omega != 1"
    assert (aff1.N.compose(aff1.N) - aff1.N).is_zero(), "N is not a projector"

    pts = sample_points(["mu1", "mu2"], 100, 7, {"mu1": (-2, 2), "mu2": (-2, 2)})
    reports = riesz_report(aff1.N, pts, tol=1e-9)
    assert all(r.index == 1 for r in reports), "stable index != 1 somewhere"
    assert all(r.dim_kernel == 2 for r in reports), "dim ker != 2 somewhere"

    # kernel span agrees with the hand solution {xi2 - mu2 eps1, eps2}
    from pnalgebroid import linalg

    hand = [[ZERO, ONE, parse("-mu2"), ZERO], [ZERO, ZERO, ZERO, ONE]]
    rows = [list(X.comps) for X in aff1.kernel_basis] + hand
    assert linalg.symbolic_rank(rows) == 2, "kernel span differs from hand basis"

    fr = fiberwise_reduce(aff1.P, aff1.N, pts, tol=1e-9)
    assert all(r.dim_quotient == 2 for r in fr), "quotient dimension != 2"
    assert all(r.p_nondegenerate for r in fr), "reduced bivector degenerate"
    assert all(
        r.n_invertible and np.allclose(r.n_tilde, np.eye(2), atol=1e-9) for r in fr
    ), "reduced endomorphism is not the identity"

    # the anchor image of the kernel drops rank on mu2 = 0
    def rho_rank(values):
        pt = Point(values)
        A = aff1.algebroid
        rows = [
            [
                sum(
                    X.comps[a].evaluate(pt) * A.anchor[a][i].evaluate(pt)
                    for a in range(A.rank)
                )
                for i in range(A.dim)
            ]
            for X in aff1.kernel_basis
        ]
        return linalg.numeric_rank(np.array(rows)).rank

    assert rho_rank({"mu1": 0.4, "mu2": 1.0}) == 2, "generic anchor rank != 2"
    assert rho_rank({"mu1": 0.4, "mu2": 0.0}) == 1, "no rank drop on mu2 = 0"


# -- 10. the differential calculus behind the verdicts ------------------------

def test_criterion_10_calculus_identities(toda, aff1):
    rng = random.Random(31)
    for A in (toda[2].tangent, toda[2].atiyah, aff1.algebroid):
        for _ in range(50):
            comps = {
                (a,): Expr.number(rng.randint(-2, 2))
                * Expr.var(rng.choice(list(A.base_vars)))
                for a in range(A.rank)
            }
            alpha = KForm(A, 1, {k: v for k, v in comps.items() if not v.is_zero()})
            assert d_A(A, d_A(A, alpha)).is_zero(), "d^2 != 0 on a random one-form"

    # a structure table violating Jacobi is rejected with a witness
    bad = LieAlgebroid.from_tables(
        ["u", "v"],
        ["e1", "e2", "e3"],
        [[ZERO, ZERO]] * 3,
        {(0, 1): {2: ONE}, (1, 2): {1: ONE}},
    )
    rep = bad.check_algebroid()
    assert not rep.ok and rep.witness() is not None, "Jacobi violation undetected"

    # Koszul bracket: Jacobi and the sharp-morphism identity
    t = toda[2]
    A = t.tangent
    forms = [
        KForm(A, 1, {(a,): Expr.var(rng.choice(list(A.base_vars)))})
        for a in range(3)
    ]
    al, be, ga = forms
    j = (
        koszul_bracket(t.lam1, al, koszul_bracket(t.lam1, be, ga))
        + koszul_bracket(t.lam1, be, koszul_bracket(t.lam1, ga, al))
        + koszul_bracket(t.lam1, ga, koszul_bracket(t.lam1, al, be))
    )
    assert j.is_zero(), "Koszul bracket fails Jacobi"
    lhs = t.lam1.sharp(koszul_bracket(t.lam1, al, be))
    rhs = A.bracket(t.lam1.sharp(al), t.lam1.sharp(be))
    assert (lhs - rhs).is_zero(), "sharp is not a bracket morphism"

    # dual algebroids of the two main bivectors satisfy the axioms
    assert dual_algebroid(t.lam0).check_algebroid().ok, "dual of lam0 fails axioms"
    assert dual_algebroid(t.pi0).check_algebroid().ok, "dual of pi0 fails axioms"

    # restriction to the top leaf realizes flat o sharp = -id
    res = restrict_to_leaf(t.pi0, None, LeafSpec(full_rank=True))
    assert res.flat_sign == -1, "flat o sharp sign is not -1"
    # direct-sum verdicts at random points for the semidirect projector
    pts = sample_points(["mu1", "mu2"], 25, 5, {"mu1": (-2, 2), "mu2": (-2, 2)})
    assert all(r.direct_sum_ok for r in riesz_report(aff1.N, pts)), (
        "Im + Ker of the stable power do not split the fiber"
    )


# -- 11. degeneracy locus of the second structure ----------------------------

def test_criterion_11_degeneracy_locus(toda):
    t = toda[2]
    # independent Pfaffian oracle: det pi1 = (Pf pi1)^2 = a1^2 (a1 - b1 b2)^2
    pf = pfaffian4([list(r) for r in t.pi1.mat])
    want = parse("a1^2*(a1 - b1*b2)^2")
    assert (pf * pf - want).is_zero(), "det pi1 differs from a1^2 (a1 - b1 b2)^2"

    NA = t.recursion_atiyah().exact()
    off = {"a1": 1.5, "b1": 1.0, "b2": 0.75}   # a1 != b1 b2
    on = {"a1": 0.75, "b1": 1.0, "b2": 0.75}   # a1 = b1 b2
    assert riesz_at_point(NA, off).index == 0, (
        "N_A should be invertible off the locus a1 = b1 b2"
    )
    rep = riesz_at_point(NA, on)
    assert rep.index >= 1 and rep.dim_kernel >= 1, (
        "fiberwise nondegeneracy should fail on the locus a1 = b1 b2"
    )
