"""Projection along bundle epimorphisms, leaf restriction, pointwise
stable-kernel reduction and the subalgebroid verdicts."""

import os

import pytest

from pnalgebroid.expr import Expr, ExprError, parse, ZERO, ONE
from pnalgebroid.algebroid import LieAlgebroid, KForm
from pnalgebroid.poisson import Bivector, symplectic_check
from pnalgebroid.nijenhuis import Endo
from pnalgebroid.reduction import (
    EpimorphismSpec, NotBasic, LeafSpec, default_tolerance, rewrite_basic,
    projectable_section_check, projectable_bivector_check,
    projectable_endo_check, project_section, project_bivector, project_endo,
    characteristic_rank, restrict_to_leaf, riesz_report, sample_points,
    fiberwise_reduce, symbolic_riesz_index, kernel_subalgebroid_check,
    condition_fb_check,
)
from pnalgebroid.fixtures import build_toda, build_aff1
from pnalgebroid import reduction


@pytest.fixture(scope="module")
def toda2():
    return build_toda(2)


@pytest.fixture(scope="module")
def aff1():
    return build_aff1()


# -- rewriting through the epimorphism --------------------------------------

def test_rewrite_basic_handles_exponential_images(toda2):
    epi = toda2.epi_flaschka
    e = parse("p1*exp(q1 - q2) + exp(2*q1 - 2*q2)")
    out = rewrite_basic(epi, e)
    assert (out - parse("b1*a1 + a1^2")).is_zero()


def test_rewrite_basic_rejects_nonbasic_with_witness(toda2):
    with pytest.raises(NotBasic):
        rewrite_basic(toda2.epi_flaschka, parse("q1"))
    with pytest.raises(NotBasic):
        # exp(q1 - q2) to a fractional power has no preimage
        rewrite_basic(toda2.epi_flaschka, parse("exp(3*q1 - q2)"))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_project_section_sends_the_bihamiltonian_fields_to_the_reduced_ones(n):
    """The Flaschka map pushes X_H = P#(dH) of the canonical pair to the
    Hamiltonian field of the reduced pair with the reduced Hamiltonian."""
    from pnalgebroid.poisson import hamiltonian_section

    t = build_toda(n)
    for P, P_bar in ((t.lam0, t.lam0_bar), (t.lam1, t.lam1_bar)):
        for H, H_bar in ((t.H0, t.H0_bar), (t.H1, t.H1_bar)):
            got = project_section(t.epi_flaschka, hamiltonian_section(P, H))
            assert got.algebroid is t.flaschka
            assert got.comps == hamiltonian_section(P_bar, H_bar).comps


def test_project_section_rejects_a_component_outside_the_base_map(toda2):
    A, epi = toda2.tangent, toda2.epi_flaschka
    X = A.section([ZERO, ZERO, parse("q1"), ZERO])  # q1 Dp1, pushed to q1 Db1
    assert [str(e) for e in epi.push_components(X)] == ["0", "q1", "0"]
    with pytest.raises(NotBasic):
        project_section(epi, X)


def test_epimorphism_validation(toda2):
    assert toda2.epi_flaschka.validate().ok
    assert toda2.epi_atiyah.validate().ok


def test_kernel_frame_spans_anchor_kernel(toda2):
    kf = toda2.epi_flaschka.kernel_frame()
    assert len(kf) == 1
    # the kernel section is killed by the fiber map
    for row in toda2.epi_flaschka.fiber_map:
        resid = sum((c * v for c, v in zip(row, kf[0].comps)), ZERO)
        assert resid.is_zero()


# -- projectability and projection -------------------------------------------

def test_project_bivectors_to_flaschka(toda2):
    assert (project_bivector(toda2.epi_flaschka, toda2.lam0) - toda2.lam0_bar).is_zero()
    assert (project_bivector(toda2.epi_flaschka, toda2.lam1) - toda2.lam1_bar).is_zero()


def test_project_bivectors_to_invariant_frame(toda2):
    assert (project_bivector(toda2.epi_atiyah, toda2.lam0) - toda2.pi0).is_zero()
    assert (project_bivector(toda2.epi_atiyah, toda2.lam1) - toda2.pi1).is_zero()


def test_toda_recursion_endo_not_projectable_to_flaschka(toda2):
    rep = projectable_endo_check(toda2.epi_flaschka, toda2.N)
    assert not rep.ok
    assert "kernel" in rep.witness()


def test_toda_recursion_endo_projects_to_invariant_frame(toda2):
    rep = projectable_endo_check(toda2.epi_atiyah, toda2.N)
    assert rep.ok, rep.witness()
    got = project_endo(toda2.epi_atiyah, toda2.N)
    want = toda2.recursion_atiyah().exact()
    assert (got - want).is_zero()


def test_projectable_section_check(toda2):
    A = toda2.tangent
    # d/dp1 is projectable, d/dq1 is not (it sees the kernel direction)
    assert projectable_section_check(toda2.epi_flaschka, A.frame_section(2)).ok
    X = A.section([parse("q1"), ZERO, ZERO, ZERO])
    assert not projectable_section_check(toda2.epi_flaschka, X).ok


# the plane onto its first coordinate: the kernel is spanned by Dy
def _plane_to_line():
    S, T = LieAlgebroid.tangent(["x", "y"]), LieAlgebroid.tangent(["u"])
    return EpimorphismSpec("p", S, T, {"u": parse("x")}, [[ONE, ZERO]])


def test_endo_preserving_the_kernel_and_invariant_along_it_projects():
    epi = _plane_to_line()
    N = Endo.from_matrix(epi.source, [[parse("2*x"), ZERO], [ZERO, parse("y")]])
    assert projectable_endo_check(epi, N).ok
    assert project_endo(epi, N).mat == ((parse("2*u"),),)


def test_endo_not_invariant_along_the_kernel_names_the_lie_derivative():
    epi = _plane_to_line()
    N = Endo.from_matrix(epi.source, [[parse("y"), ZERO], [ZERO, ONE]])
    rep = projectable_endo_check(epi, N)
    assert not rep.ok
    assert rep.witness() == ("(L_xi N) of complement section 0 leaves the kernel "
                             "(target component Du): residual 1")
    with pytest.raises(ExprError, match="endomorphism is not projectable"):
        project_endo(epi, N)


def test_bivector_not_invariant_along_the_kernel_names_the_component():
    S, T = LieAlgebroid.tangent(["x", "y", "z"]), LieAlgebroid.tangent(["u", "v"])
    epi = EpimorphismSpec("q", S, T, {"u": parse("x"), "v": parse("y")},
                          [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO]])
    P = Bivector.from_entries(S, {(0, 1): parse("z")})
    rep = projectable_bivector_check(epi, P)
    assert not rep.ok
    assert rep.witness() == ("([xi, P])# of pulled-back covector Du leaves the kernel "
                             "(component Dv): residual 1")


def test_projectable_form_check_names_each_condition():
    from pnalgebroid.reduction import projectable_form_check

    epi = _plane_to_line()
    S = epi.source
    assert projectable_form_check(epi, S.one_form([ONE, ZERO])).ok
    rep = projectable_form_check(epi, S.one_form([parse("y"), ZERO]))
    assert rep.witness() == ("form not invariant along kernel section (1)*Dy at (0,): "
                             "residual 1")
    rep = projectable_form_check(epi, S.one_form([ZERO, ONE]))
    assert rep.witness() == "form does not annihilate kernel section (1)*Dy: residual 1"


def test_validate_names_the_anchors_that_do_not_intertwine():
    good = _plane_to_line()
    bad = EpimorphismSpec("p", good.source, good.target, good.base_map, [[ZERO, ONE]])
    rep = bad.validate()
    assert not rep.ok
    assert rep.witness() == ("anchors do not intertwine on source frame Dx, "
                             "target coordinate u: residual 1")


def test_validate_decides_the_generic_rank_of_the_fiber_map():
    # zero anchors, so the anchors intertwine for every fiber map
    x = parse("x")
    S = LieAlgebroid.from_tables(["x"], ["e1", "e2"], [[ZERO], [ZERO]])
    line = LieAlgebroid.from_tables(["u"], ["f1"], [[ZERO]])
    plane = LieAlgebroid.from_tables(["u"], ["f1", "f2"], [[ZERO], [ZERO]])
    # rank 1 at every point but x = 0, which only sample points can see
    assert EpimorphismSpec("p", S, line, {"u": x}, [[x, ZERO]]).validate().ok
    rep = EpimorphismSpec("p", S, line, {"u": x}, [[ZERO, ZERO]]).validate()
    assert rep.failures == [("fiber map not surjective: generic rank 0 < target rank 1", None)]
    rep = EpimorphismSpec("q", S, plane, {"u": x}, [[ONE, x], [x, x * x]]).validate()
    assert rep.failures == [("fiber map not surjective: generic rank 1 < target rank 2", None)]
    assert EpimorphismSpec("q", S, plane, {"u": x}, [[ONE, x], [x, ONE]]).validate().ok


def test_characteristic_rank(toda2):
    pts = sample_points(["q1", "q2", "p1", "p2"], 5, 2)
    assert all(r.rank == 4 for r in characteristic_rank(toda2.lam0, pts))
    pts_bar = sample_points(["a1", "b1", "b2"], 5, 2, {"a1": (0.5, 2.0)})
    # an odd-dimensional antisymmetric matrix has rank at most 2 here
    assert all(r.rank == 2 for r in characteristic_rank(toda2.lam0_bar, pts_bar))


# -- leaf restriction ---------------------------------------------------------

def test_full_rank_leaf_restriction_sign(toda2):
    res = restrict_to_leaf(toda2.pi0, None, LeafSpec(full_rank=True))
    assert res.report.ok
    assert res.flat_sign == -1
    assert symplectic_check(res.omega).ok


def test_rank_deficient_leaf_restriction():
    # canonical plane bivector sitting inside a 4-dimensional base
    A = LieAlgebroid.tangent(["x", "y", "z", "w"])
    P = Bivector.from_entries(A, {(0, 1): ONE})
    leaf = LeafSpec(
        leaf_vars=["x", "y"],
        embedding={
            "x": Expr.var("x"), "y": Expr.var("y"),
            "z": parse("1"), "w": parse("2"),
        },
        covectors=[A.dual_frame_form(0), A.dual_frame_form(1)],
        frame_names=["E1", "E2"],
    )
    res = restrict_to_leaf(P, Endo.identity(A), leaf)
    assert res.report.ok
    assert res.flat_sign == -1
    assert res.algebroid.check_algebroid().ok
    rep = symplectic_check(res.omega)
    assert rep.ok
    assert (rep.determinant - ONE).is_zero()
    # the restricted endomorphism of the identity is the identity
    assert (res.endo - Endo.identity(res.algebroid)).is_zero()


# -- pointwise stable-kernel reduction ---------------------------------------

def test_riesz_reports_on_aff1(aff1):
    pts = sample_points(["mu1", "mu2"], 40, 11, {"mu1": (-2, 2), "mu2": (-2, 2)})
    reports = riesz_report(aff1.N, pts)
    assert all(r.index == 1 for r in reports)
    assert all(r.dim_kernel == 2 for r in reports)
    assert all(r.direct_sum_ok for r in reports)


def test_riesz_index_zero_for_invertible(toda2):
    pts = sample_points(
        ["a1", "b1", "b2"], 10, 5, {"a1": (0.5, 2.0)}
    )
    N = toda2.recursion_atiyah().exact()
    reports = riesz_report(N, pts)
    assert all(r.index == 0 for r in reports)


def test_fiberwise_reduce_aff1(aff1):
    import numpy as np

    pts = sample_points(["mu1", "mu2"], 30, 13, {"mu1": (-2, 2), "mu2": (-2, 2)})
    reports = fiberwise_reduce(aff1.P, aff1.N, pts)
    for r in reports:
        assert r.dim_quotient == 2
        assert r.p_nondegenerate and r.n_invertible
        # the projector restricts to the identity on its image
        assert np.allclose(r.n_tilde, np.eye(2), atol=1e-9)


def test_sample_points_are_the_uniform_draws_bit_for_bit():
    """One rng.uniform(lo, hi) per value, point by point and in the order of
    the variables, with (-1, 1) where the box names no range."""
    import random

    variables = ["a1", "x", "mu2", "b"]
    box = {"a1": (0.5, 2.0), "mu2": (-2.0, 2.0), "b": (-1e-3, 5.0)}
    for count, seed in ((1, 0), (300, 17), (129, 2**40 + 3)):
        rng = random.Random(seed)
        pts = sample_points(variables, count, seed, box)
        assert len(pts) == count
        for values in pts:
            assert list(values) == variables
            for v in variables:
                want = rng.uniform(*box.get(v, (-1.0, 1.0)))
                assert type(values[v]) is float and values[v].hex() == want.hex()
    assert sample_points(variables, 0, 1, box) == []
    assert sample_points([], 2, 1) == [{}, {}]


def test_sample_points_reproducible():
    a = sample_points(["x", "y"], 5, 42)
    b = sample_points(["x", "y"], 5, 42)
    assert a == b
    assert a != sample_points(["x", "y"], 5, 43)


def test_tolerance_env_override(monkeypatch):
    monkeypatch.setenv("PNALGEBROID_TOL", "1e-6")
    assert default_tolerance() == 1e-6


# -- symbolic subalgebroid verdicts ------------------------------------------

def test_symbolic_riesz_index(aff1):
    assert symbolic_riesz_index(aff1.N) == 1


@pytest.mark.parametrize("n", [5, 6])
def test_riesz_index_and_subalgebroid_check_rank_toda_without_eliminating_n(n, monkeypatch):
    # the Toda recursion operator is invertible, so its index is 0 and the
    # splitting is trivially closed; its rank comes from minors, because a
    # fraction-free elimination of N grows its rows past a thousand terms
    # at n = 5 and does not finish at n = 6
    from pnalgebroid import linalg

    N = build_toda(n).N
    on_n = [list(row) for row in N.mat]
    echelon = linalg.row_echelon

    def echelon_except_on_n(a):
        if [list(row) for row in a] == on_n:
            raise AssertionError("row_echelon called on N")
        return echelon(a)

    monkeypatch.setattr(linalg, "row_echelon", echelon_except_on_n)
    assert symbolic_riesz_index(N) == 0
    rep = kernel_subalgebroid_check(N)
    assert rep.index == 0 and rep.ok
    assert len(rep.image_frame) == 2 * n and not rep.kernel_frame


def test_kernel_subalgebroid_verdicts_on_aff1(aff1):
    rep = kernel_subalgebroid_check(aff1.N)
    assert rep.index == 1
    assert len(rep.kernel_frame) == 2
    assert rep.decomposition_ok
    assert rep.image_closed.ok
    # the honest verdict: the stable kernel of this projector is NOT closed
    # under the bracket (its torsion is nonzero, so closure is not implied)
    assert not rep.kernel_closed.ok
    assert rep.kernel_closed.witness() is not None


def _jordan_block_plus_identity():
    # N = J_2(0) + 1 on R^3: Ker N^2 = span(Dx, Dy), Im N^2 = span(Dz)
    A = LieAlgebroid.tangent(["x", "y", "z"])
    return Endo.from_matrix(A, [[ZERO, ONE, ZERO], [ZERO, ZERO, ZERO], [ZERO, ZERO, ONE]])


def test_kernel_subalgebroid_decomposition_ranks_kernel_and_image_together(aff1, monkeypatch):
    assert kernel_subalgebroid_check(aff1.N).decomposition_ok  # k = 1
    N = _jordan_block_plus_identity()
    rep = kernel_subalgebroid_check(N)
    assert rep.index == 2 and rep.decomposition_ok
    assert [X.comps for X in rep.kernel_frame + rep.image_frame] == [
        (ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE)]
    # at k = 1, below the stable index, Ker N = span(Dx) lies inside
    # Im N = span(Dx, Dz) although the dimensions add up to 3
    monkeypatch.setattr(reduction, "symbolic_riesz_index", lambda N: 1)
    rep = kernel_subalgebroid_check(N)
    assert len(rep.kernel_frame) + len(rep.image_frame) == 3
    assert not rep.decomposition_ok and not rep.ok


def test_kernel_subalgebroid_closed_for_torsion_free(toda2):
    # constant diagonal projector on the plane: torsion-free, kernel and
    # image both close trivially
    A = LieAlgebroid.tangent(["x", "y"])
    N = Endo.from_matrix(A, [[ONE, ZERO], [ZERO, ZERO]])
    rep = kernel_subalgebroid_check(N)
    assert rep.index == 1
    assert rep.kernel_closed.ok and rep.image_closed.ok
    assert rep.decomposition_ok and rep.ok


def test_kernel_subalgebroid_image_frame_is_the_pivot_columns():
    # a projector whose image span(Dx + Dy, x Dx + Dz) is not bracket-closed:
    # [Dx + Dy, x Dx + Dz] = Dx
    A = LieAlgebroid.tangent(["x", "y", "z"])
    x = parse("x")
    N = Endo.from_matrix(A, [[ZERO, ONE, x], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]])
    rep = kernel_subalgebroid_check(N)
    assert rep.index == 1
    assert [X.comps for X in rep.image_frame] == [(ONE, ONE, ZERO), (x, ZERO, ONE)]
    assert not rep.image_closed.ok
    assert rep.image_closed.witness().startswith("image bracket (0, 1) leaves Im N^1")
    assert rep.decomposition_ok

    B = LieAlgebroid.tangent(["x", "y"])
    rep = kernel_subalgebroid_check(Endo.from_matrix(B, [[ZERO, ONE], [ZERO, ONE]]))
    assert [X.comps for X in rep.image_frame] == [(ONE, ONE)]
    assert rep.ok


def test_rank_drop_of_anchor_image_on_kernel(aff1):
    """The anchor image of the stable kernel drops rank on the locus mu2=0,
    so the regularity hypotheses are genuinely open conditions."""
    import numpy as np
    from pnalgebroid import linalg
    from pnalgebroid.expr import Point

    A = aff1.algebroid
    kernel = aff1.kernel_basis
    def rho_rank(values):
        pt = Point(values)
        rows = [
            [
                sum(
                    X.comps[a].evaluate(pt) * A.anchor[a][i].evaluate(pt)
                    for a in range(A.rank)
                )
                for i in range(A.dim)
            ]
            for X in kernel
        ]
        return linalg.numeric_rank(np.array(rows)).rank

    assert rho_rank({"mu1": 0.7, "mu2": 1.3}) == 2
    assert rho_rank({"mu1": 0.7, "mu2": 0.0}) == 1


def test_condition_fb_dimension_count(aff1):
    pts = sample_points(["mu1", "mu2"], 10, 3, {"mu1": (-2, 2), "mu2": (-2, 2)})
    reports = condition_fb_check(aff1.algebroid, aff1.kernel_basis, pts, seed=4)
    assert all(r.consistent for r in reports)
    assert all(r.rank_subbundle == 2 for r in reports)


# -- the per-point numeric path against the previous one ---------------------
#
# _reference_riesz and _reference_fiberwise are the earlier per-point code:
# N evaluated twice, the stable power decomposed by two SVDs (one for the
# kernel, one for the image, identity included), and the quotient verdicts
# taken against hand-written cutoffs tol * max(1, ||.||_2).

def _evaluate(rows, values):
    import numpy as np
    from pnalgebroid.expr import Point

    pt = Point(values)
    return np.array([[e.evaluate(pt) for e in row] for row in rows], dtype=float)


def _reference_svd_bases(mat, tol):
    import numpy as np

    u, s, vt = np.linalg.svd(mat)
    cutoff = tol * max(float(s[0]) if len(s) else 0.0, 1.0)
    rank = int(np.sum(s > cutoff))
    return vt[rank:].T, u[:, :rank]


def _reference_riesz(N, values, tol):
    import numpy as np
    from pnalgebroid import linalg

    r = N.algebroid.rank
    mat = _evaluate(N.mat, values)
    powers = [np.eye(r)]
    ranks = [r]
    ill = False
    k = None
    sigma = cutoff = float("nan")   # of the deciding rank test
    for l in range(1, r + 2):
        with np.errstate(all="ignore"):
            powers.append(powers[-1] @ mat)
        if not np.isfinite(powers[-1]).all():
            return dict(overflow=True)
        res = linalg.numeric_rank(powers[-1], tol)
        ranks.append(res.rank)
        ill = ill or res.ill_conditioned
        if l == 1 and r:
            sigma, cutoff = res.singular_values[-1], res.tolerance
        if res.rank == ranks[-2]:
            k = l - 1
            break
    if k is None:
        k = r
    kernel, image = _reference_svd_bases(powers[k], tol)
    if kernel.shape[1] == 0:
        direct = True
    else:
        res = linalg.numeric_rank(np.hstack([kernel, image]), tol)
        direct = res.rank == r
        ill = ill or res.ill_conditioned
        sigma, cutoff = res.singular_values[-1], res.tolerance
    return dict(ranks=ranks, index=k, dim_kernel=kernel.shape[1], kernel=kernel,
                image=image, direct_sum_ok=direct, ill_conditioned=ill,
                sigma_min=sigma, cutoff=cutoff, overflow=False)


def _reference_fiberwise(P, N, values, tol):
    import numpy as np

    rz = _reference_riesz(N, values, tol)
    if rz["overflow"]:
        return rz
    pmat = _evaluate(P.mat, values)
    nmat = _evaluate(N.mat, values)
    C = rz["image"] if rz["index"] > 0 else np.eye(P.algebroid.rank)
    p_t = C.T @ pmat @ C
    n_t = C.T @ nmat @ C
    d = C.shape[1]
    cutoff_p = tol * max(1.0, float(np.linalg.norm(p_t, 2)) if d else 1.0)
    cutoff_n = tol * max(1.0, float(np.linalg.norm(n_t, 2)) if d else 1.0)
    sp = np.linalg.svd(p_t, compute_uv=False) if d else np.array([])
    sn = np.linalg.svd(n_t, compute_uv=False) if d else np.array([])
    nan = float("nan")
    return dict(
        rz, dim_quotient=d, p_tilde=p_t, n_tilde=n_t,
        p_nondegenerate=bool(d == 0 or (len(sp) and sp[-1] > cutoff_p)),
        n_invertible=bool(d == 0 or (len(sn) and sn[-1] > cutoff_n)),
        p_sigma_min=float(sp[-1]) if d else nan, p_cutoff=cutoff_p if d else nan,
        n_sigma_min=float(sn[-1]) if d else nan, n_cutoff=cutoff_n if d else nan,
    )


def _jordan_pair():
    """A nilpotent N of index 3 and a mixed one of index 2 on R^3, which the
    fixtures (indices 0 and 1) do not reach, with a constant bivector."""
    A = LieAlgebroid.tangent(["x", "y", "z"])
    x, y = parse("x"), parse("y")
    nilpotent = Endo.from_matrix(A, [[ZERO, x, y], [ZERO, ZERO, ONE], [ZERO, ZERO, ZERO]])
    mixed = Endo.from_matrix(A, [[ONE, x, ZERO], [ZERO, ZERO, ONE], [ZERO, ZERO, ZERO]])
    P = Bivector.from_entries(A, {(0, 1): ONE, (1, 2): y})
    return A, P, [nilpotent, mixed]


def _numeric_cases():
    t2, t3, t5, a = build_toda(2), build_toda(3), build_toda(5), build_aff1()
    A, P, jordans = _jordan_pair()
    return [
        ("toda2", t2.tangent, t2.lam0, [t2.N]),
        ("toda3", t3.tangent, t3.lam0, [t3.N]),
        ("toda5", t5.tangent, t5.lam0, [t5.N]),
        ("toda2-atiyah", t2.atiyah, t2.pi0, [t2.recursion_atiyah().exact()]),
        ("aff1", a.algebroid, a.P, [a.N]),
        ("jordan", A, P, jordans),
    ]


NUMERIC_CASES = _numeric_cases()


def _case_points(A, count, seed):
    return sample_points(list(A.base_vars), count, seed,
                         {v: (0.5, 2.0) for v in A.base_vars if v.startswith("a")})


def _assert_matches_reference(P, N, pts):
    """The batched riesz_report and fiberwise_reduce against the per-point
    reference: equal integers and flags, and floats to a few ulps (the
    stacked products and SVDs sum in another order)."""
    import numpy as np

    riesz, fiber = riesz_report(N, pts), fiberwise_reduce(P, N, pts)
    assert len(riesz) == len(fiber) == len(pts)
    for values, rz, fr in zip(pts, riesz, fiber):
        want = _reference_fiberwise(P, N, values, default_tolerance())
        assert rz.values is values and fr.values is values
        assert rz.ranks == want["ranks"]
        # the kernel is split at the rank that decided the index
        assert rz.dim_kernel == N.algebroid.rank - rz.ranks[rz.index]
        assert (rz.index, rz.dim_kernel, rz.direct_sum_ok, rz.ill_conditioned) == (
            want["index"], want["dim_kernel"], want["direct_sum_ok"],
            want["ill_conditioned"])
        assert rz.kernel_basis.shape == want["kernel"].shape
        assert rz.image_basis.shape == want["image"].shape
        for got, ref in ((rz.kernel_basis, want["kernel"]), (rz.image_basis, want["image"])):
            assert np.allclose(got @ got.T, ref @ ref.T, rtol=0, atol=1e-12)
        assert (fr.index, fr.dim_quotient, fr.direct_sum_ok, fr.ill_conditioned) == (
            want["index"], want["dim_quotient"], want["direct_sum_ok"],
            want["ill_conditioned"])
        assert (fr.p_nondegenerate, fr.n_invertible) == (
            want["p_nondegenerate"], want["n_invertible"])
        assert np.allclose(fr.p_tilde, want["p_tilde"], rtol=1e-12, atol=1e-12)
        assert np.allclose(fr.n_tilde, want["n_tilde"], rtol=1e-12, atol=1e-12)
        # the deciding rank tests: N itself at index 0, else [kernel | image]
        assert (rz.sigma_min > rz.cutoff) == (rz.index == 0 or rz.direct_sum_ok)
        if fr.dim_quotient:
            assert (fr.p_sigma_min > fr.p_cutoff) == fr.p_nondegenerate
            assert (fr.n_sigma_min > fr.n_cutoff) == fr.n_invertible
        else:
            assert np.isnan([fr.p_sigma_min, fr.p_cutoff, fr.n_sigma_min, fr.n_cutoff]).all()


@pytest.mark.parametrize("case", NUMERIC_CASES, ids=lambda c: c[0])
def test_riesz_and_fiberwise_match_the_previous_per_point_code(case):
    from pnalgebroid.reduction import riesz_at_point

    _, A, P, endos = case
    for seed in (1, 2, 3, 5, 23):
        pts = _case_points(A, 24, seed)
        for N in endos:
            _assert_matches_reference(P, N, pts)
            one, = riesz_report(N, pts[:1])
            assert riesz_at_point(N, pts[0]).ranks == one.ranks


@pytest.mark.parametrize("offset", [None, -1, 0, 1, "two-blocks+1"])
@pytest.mark.parametrize("case", [NUMERIC_CASES[2], NUMERIC_CASES[3], NUMERIC_CASES[5]],
                         ids=lambda c: c[0])
def test_batched_path_at_block_boundaries(case, offset):
    """One point, one block's worth of points and one less and one more, and
    two blocks and one point, where a block is sized from the matrices of its
    pass: N for riesz_report, N and P for fiberwise_reduce.  The 10 x 10
    toda5 blocks are smaller than the 4 x 4 toda2-atiyah ones, and those are
    smaller than the 3 x 3 jordan ones."""
    from pnalgebroid import linalg

    _, A, P, endos = case
    for N in endos:
        cn = linalg.CompiledMatrix(N.mat)
        for size in {linalg._block_size(cn),
                     linalg._block_size(cn, linalg.CompiledMatrix(P.mat))}:
            count = (1 if offset is None else 2 * size + 1 if offset == "two-blocks+1"
                     else size + offset)
            _assert_matches_reference(P, N, _case_points(A, count, 7))
        assert riesz_report(N, []) == [] and fiberwise_reduce(P, N, []) == []


def test_block_size_follows_the_widest_matrix_of_the_pass():
    import numpy as np

    from pnalgebroid import linalg

    toda5, aff1 = NUMERIC_CASES[2], NUMERIC_CASES[4]
    # 10 x 10 (38 terms) and 4 x 4 (3 terms): blocks of 128 and 800 points
    assert linalg._block_size(linalg.CompiledMatrix(toda5[3][0].mat)) == 128
    assert linalg._block_size(linalg.CompiledMatrix(aff1[3][0].mat)) == 800
    # a matrix with more terms than entries is sized by its terms
    many = linalg.CompiledMatrix([[parse(" + ".join(f"x^{k}" for k in range(1, 201)))]])
    assert linalg._block_size(many) == 64
    assert linalg._block_size(many, linalg.CompiledMatrix(aff1[3][0].mat)) == 64
    # an empty matrix gets the whole budget, a huge one blocks of one point
    assert linalg._block_size(linalg.CompiledMatrix([])) == 12_800
    assert linalg._block_size(linalg.CompiledMatrix([[ONE] * 200] * 100)) == 1
    starts = [start for start, _ in linalg.blocks(np.zeros((257, 1)), many)]
    assert starts == [0, 64, 128, 192, 256]


def _bits(x):
    """A report field as its exact bits: arrays by dtype, shape and bytes,
    floats by their hex form, NaN included."""
    import numpy as np

    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return float.hex(x)
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_bits(v) for v in x]
    return x


@pytest.mark.parametrize("seed", [3, 41])
def test_reports_are_bit_for_bit_with_one_svd_part_and_with_many(monkeypatch, seed):
    """Every field of every riesz, fiberwise and FB report at 1,500 points
    is the same when each stacked SVD is one call (one CPU) and when it is
    split into parts (two CPUs)."""
    import dataclasses

    import numpy as np

    from pnalgebroid import linalg

    t5, a = build_toda(5), build_aff1()
    cases = [(t5.tangent, t5.lam0, t5.N, t5.epi_flaschka.kernel_frame()),
             (a.algebroid, a.P, a.N, a.kernel_basis)]
    calls = []
    real = np.linalg.svd

    def counted(stack, *args, **kwargs):
        calls.append(len(stack))
        return real(stack, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(linalg, "_CPUS", cpus)
        calls.clear()
        out = []
        for A, P, N, sections in cases:
            pts = _case_points(A, 1500, seed)
            for reports in (riesz_report(N, pts), fiberwise_reduce(P, N, pts),
                            condition_fb_check(A, sections, pts, seed)):
                assert len(reports) == 1500
                out.append([{f.name: _bits(getattr(r, f.name)) for f in dataclasses.fields(r)}
                            for r in reports])
        runs[cpus] = out, len(calls)
    assert runs[1][0] == runs[2][0]
    assert runs[2][1] > runs[1][1]  # the second run decomposed stacks in parts


def test_a_constant_bivector_is_ranked_once_at_index_zero_points(monkeypatch):
    """P reads no variable, so at the points of index 0 (N invertible) its
    rank test decomposes one copy.  The points of index 1 (x = 0) in the same
    block still rank their own P~ = C^T P C, which varies with y there.
    Every report, sigma_min and cutoff included, matches the per-point
    reference."""
    import numpy as np

    from pnalgebroid import linalg

    A = LieAlgebroid.tangent(["x", "y", "z"])
    N = Endo.from_matrix(A, [[parse("x"), parse("y"), ZERO], [ZERO, ONE, ZERO],
                             [ZERO, ZERO, ONE]])
    P = Bivector.from_entries(A, {(0, 1): parse("3"), (1, 2): ONE})
    pts = _case_points(A, 40, 5)
    for i in (0, 7, 39):
        pts[i]["x"] = 0.0
    _assert_matches_reference(P, N, pts)
    shapes = []
    stacked_rank = linalg.stacked_rank
    monkeypatch.setattr(linalg, "stacked_rank",
                        lambda stack, tol: shapes.append(stack.shape) or stacked_rank(stack, tol))
    reports = fiberwise_reduce(P, N, pts)
    assert [r.index for r in reports].count(1) == 3
    assert (1, 3, 3) in shapes and (37, 3, 3) not in shapes
    for values, r in zip(pts, reports):
        want = _reference_fiberwise(P, N, values, default_tolerance())
        assert np.allclose([r.p_sigma_min, r.p_cutoff], [want["p_sigma_min"], want["p_cutoff"]],
                           rtol=1e-12, atol=0)
    assert len({r.p_sigma_min for r in reports if r.index == 1}) == 3


def _overflow_case():
    """N is finite at x = 0.99 but N^2 = exp(400 x) N overflows there; N
    itself overflows at x = 2 and underflows at x = -1.9."""
    A = LieAlgebroid.tangent(["x", "y"])
    e = parse("exp(400*x)")
    N = Endo.from_matrix(A, [[e, e], [ZERO, ZERO]])
    return A, Bivector.from_entries(A, {(0, 1): ONE}), N


@pytest.mark.parametrize("first, second", [("power", "eval"), ("eval", "power"),
                                           ("power", "bivector"), ("bivector", "power")])
@pytest.mark.parametrize("shift", [0, 200])
def test_non_finite_entry_names_the_first_bad_point(first, second, shift):
    from pnalgebroid import linalg

    A, _, N = _overflow_case()
    # P overflows at y = 1, a stage after N and its powers
    P = Bivector.from_entries(A, {(0, 1): parse("exp(800*y)")})
    bad = {"power": ("x", 0.99), "eval": ("x", 2.0), "bivector": ("y", 1.0)}
    pts = [{"x": 0.0, "y": i / 1000} for i in range(shift + 8)]
    for i, stage in ((shift + 3, first), (shift + 5, second)):
        var, value = bad[stage]
        pts[i][var] = value
    # riesz_report reads N alone, so it names the first point where N faults
    first_n = shift + (5 if first == "bivector" else 3)
    for run, want in ((lambda: riesz_report(N, pts), first_n),
                      (lambda: fiberwise_reduce(P, N, pts), shift + 3)):
        with pytest.raises(linalg.NonFiniteEntry, match="overflows") as info:
            run()
        assert info.value.values is pts[want]


def test_underflow_is_raised_only_without_a_non_finite_point():
    from pnalgebroid import linalg

    _, P, N = _overflow_case()
    pts = [{"x": 0.0, "y": 0.0}, {"x": -1.9, "y": 0.0}, {"x": 0.0, "y": 0.0}]
    for run in (lambda: riesz_report(N, pts), lambda: fiberwise_reduce(P, N, pts)):
        with pytest.raises(linalg.NonFiniteEntry, match="underflows") as info:
            run()
        assert info.value.values is pts[1]
    pts.append({"x": 2.0, "y": 0.0})
    with pytest.raises(linalg.NonFiniteEntry, match="overflows") as info:
        riesz_report(N, pts)
    assert info.value.values is pts[3]


def test_the_jordan_cases_reach_index_three_and_two():
    from pnalgebroid.reduction import riesz_at_point

    _, _, (nilpotent, mixed) = _jordan_pair()
    values = {"x": 0.3, "y": -0.7, "z": 1.1}
    assert riesz_at_point(nilpotent, values).index == 3
    assert riesz_at_point(mixed, values).index == 2


def test_riesz_block_groups_the_stable_ranks_in_ascending_order(monkeypatch):
    """One stack mixes the nilpotent N (index 3, stable rank 0), the mixed N
    (index 2, stable rank 1) and an invertible N (index 0), the stable ranks
    coming 1 first.  ``bases`` holds the ranks in ascending order, and each
    group's kernels, images, sigma and cutoff are those of grouping the
    stable stack with np.unique, bit for bit."""
    import numpy as np

    from pnalgebroid import linalg, pointwise

    _, _, (nilpotent, mixed) = _jordan_pair()
    invertible = [[ONE, parse("x"), ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, parse("2")]]
    stack = []
    for x, y in [(0.3, -0.7), (1.1, 0.4), (-0.5, 2.0), (0.9, -1.3)]:
        for rows in (mixed.mat, nilpotent.mat, invertible):
            stack.append(linalg.evaluate_matrix(rows, {"x": x, "y": y, "z": 0.0}))
    mats, tol = np.array(stack), default_tolerance()
    svds = []
    real = linalg.stacked_svd

    def spy(stable, compute_uv=False):
        out = real(stable, compute_uv=compute_uv)
        if compute_uv:
            svds.append(out)
        return out

    monkeypatch.setattr(linalg, "stacked_svd", spy)
    rz = pointwise._riesz_block(mats, tol)
    assert rz.index.tolist() == [2, 3, 0] * 4
    # the stable stack holds the points of index 1, 2, ... in point order
    split = np.concatenate([np.flatnonzero(rz.index == l) for l in range(1, 4)])
    rank = rz.ranks[split, rz.index[split]]
    (u, _, vt), = svds
    assert list(rz.bases) == np.unique(rank).tolist() == [0, 1]
    for k in np.unique(rank).tolist():
        sel = rank == k
        kernels, images = vt[sel, k:].transpose(0, 2, 1), u[sel, :, :k]
        s, _, cut, _ = linalg.stacked_rank(np.concatenate([kernels, images], axis=2), tol)
        group, got_kernels, got_images = rz.bases[k]
        assert group.tolist() == split[sel].tolist()
        assert got_kernels.tobytes() == kernels.tobytes()
        assert got_images.tobytes() == images.tobytes()
        assert rz.split.sigma[group].tobytes() == s[:, -1].tobytes()
        assert rz.split.cutoff[group].tobytes() == cut.tobytes()


# -- the CLI's numeric rows against a fold of the per-point reference ---------

def _write_spec(tmp_path, name, body):
    import json

    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(body))
    return str(path)


def _cli_numeric_cases(tmp_path):
    """(label, input, bivector name, tolerance): fixtures of index 0 and 1, a
    spec whose indices vary and whose reduced bivector fails at the points
    with |x| < 0.1, one whose direct sum fails in a band of |x| under a
    coarse tolerance, and three with non-finite points: exp(1000 x)
    overflows for x > 0.71 and underflows for x < -0.71, exp(1000 x - 1500)
    only underflows, and N^2 = exp(800 x) N overflows for x > 0.89 although
    N is finite."""
    two = {"base_vars": ["x"], "frame": ["e", "f"], "anchor": [["1"], ["0"]]}
    return [
        ("aff1", "aff1", "P", None),
        ("toda2", "toda:2", "lam0", None),
        ("mixed", _write_spec(tmp_path, "mixed", dict(
            two, bivectors={"P": {"(e,f)": "x^9"}},
            endomorphisms={"N": [["1", "0"], ["0", "x^9"]]})), "P", None),
        ("band", _write_spec(tmp_path, "band", dict(
            two, bivectors={"P": {"(e,f)": "1"}},
            endomorphisms={"N": [["0", "1"], ["0", "x"]]})), "P", "0.1"),
        ("exp", _write_spec(tmp_path, "exp", {
            "base_vars": ["x"], "frame": ["e"], "anchor": [["1"]],
            "bivectors": {"P": {}}, "endomorphisms": {"N": [["exp(1000*x)"]]}}), "P", None),
        ("tiny", _write_spec(tmp_path, "tiny", {
            "base_vars": ["x"], "frame": ["e"], "anchor": [["1"]],
            "bivectors": {"P": {}}, "endomorphisms": {"N": [["exp(1000*x - 1500)"]]}}),
         "P", None),
        ("power", _write_spec(tmp_path, "power", dict(
            two, bivectors={"P": {"(e,f)": "1"}},
            endomorphisms={"N": [["exp(400*x)", "exp(400*x)"], ["0", "0"]]})), "P", None),
    ]


def _matrix_fault(rows, values):
    """The fault code of one evaluated matrix: 0, 1 (underflow) or 2."""
    from pnalgebroid import linalg

    try:
        linalg.evaluate_matrix(rows, values)
    except linalg.NonFiniteEntry as e:
        return 1 if "underflows" in str(e) else 2
    return 0


def _fold_rows(what, rows):
    """A numeric row folded one point at a time: (verdict, witness, margin)
    from (values, ok, sigma_min, cutoff) per point."""
    import math

    witness, ratio = None, math.inf
    for values, ok, sigma, cutoff in rows:
        if not math.isnan(sigma):
            ratio = min(ratio, sigma / cutoff)
        if witness is None and not ok:
            witness = f"{what} at {values}: sigma_min {sigma:.6g}, cutoff {cutoff:.6g}"
    margin = None if ratio == math.inf else float(f"{ratio:.6g}")
    return "pass" if witness is None else "fail", witness, margin


def _reference_cli(command, spec, pname, count, seed, tol):
    """The report of ``riesz`` or ``reduce-fiberwise`` without its times,
    computed one point at a time by the per-point reference."""
    from pnalgebroid import cli

    doc, _ = cli.resolve_input(spec)
    N, P = doc.endomorphisms["N"], doc.bivectors[pname]
    variables = list(doc.algebroid.base_vars)
    pts = sample_points(variables, count, seed, cli._box_for(variables))
    fiberwise = command == "reduce-fiberwise"
    faults, refs = {}, []
    for values in pts:
        code = _matrix_fault(N.mat, values)
        if fiberwise:
            code = max(code, _matrix_fault(P.mat, values))
        ref = None
        if code < 2:
            ref = _reference_fiberwise(P, N, values, tol) if fiberwise else \
                _reference_riesz(N, values, tol)
            code = 2 if ref["overflow"] else code
        if code:
            faults.setdefault(code, values)
        refs.append((values, ref))
    if faults:
        what = ("overflows or is not finite" if 2 in faults
                else "underflows below the smallest normal float")
        witness = f"matrix entry {what} at {faults[max(faults)]}"
        return 3, [(command, "pass", witness, True, None)], {}
    ill = any(ref["ill_conditioned"] for _, ref in refs)
    if fiberwise:
        rows = [
            (f"reduced bivector({pname}) nondegenerate at {count} points",
             "reduced bivector degenerate", "p_nondegenerate", "p_"),
            (f"reduced endomorphism(N) invertible at {count} points",
             "reduced endomorphism singular", "n_invertible", "n_"),
        ]
        checks = [(name, *_fold_rows(what, [
            (values, ref[ok], ref[prefix + "sigma_min"], ref[prefix + "cutoff"])
            for values, ref in refs])) for name, what, ok, prefix in rows]
        payload = {"quotient_dimensions": sorted({ref["dim_quotient"] for _, ref in refs})}
    else:
        checks = [(f"riesz(N) stable-kernel splitting at {count} points", *_fold_rows(
            "image + kernel of the stable power do not span",
            [(values, ref["direct_sum_ok"], ref["sigma_min"], ref["cutoff"])
             for values, ref in refs]))]
        payload = {"indices": sorted({ref["index"] for _, ref in refs}),
                   "kernel_dimensions": sorted({ref["dim_kernel"] for _, ref in refs})}
    checks = [(name, verdict, witness, ill, margin) for name, verdict, witness, margin in checks]
    code = 1 if any(c[1] == "fail" for c in checks) else 3 if ill else 0
    return code, checks, payload


@pytest.mark.parametrize("count", [1, 127, 128, 129, 300])
@pytest.mark.parametrize("command", ["riesz", "reduce-fiberwise"])
def test_cli_numeric_rows_match_a_fold_of_the_per_point_reference(
        tmp_path, capsys, monkeypatch, command, count):
    import json

    from pnalgebroid import cli

    seen = set()
    for label, spec, pname, tol in _cli_numeric_cases(tmp_path):
        if tol is None:
            monkeypatch.delenv("PNALGEBROID_TOL", raising=False)
        else:
            monkeypatch.setenv("PNALGEBROID_TOL", tol)
        extra = ["--bivector", pname] if command == "reduce-fiberwise" else []
        code = cli.main([command, spec, *extra, "--points", str(count), "--seed", "5",
                         "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        got = (code, [(c["name"], c["verdict"], c["witness"], c["ill_conditioned"],
                       c.get("margin")) for c in report["checks"]],
               report.get("result", {}))
        want = _reference_cli(command, spec, pname, count, 5, default_tolerance())
        assert got == want, label
        seen.add(code)
    if count >= 127:
        # the cases reach a passing, a failing and a non-finite report
        assert seen == {0, 1, 3}


@pytest.mark.parametrize("count", [1, 4, 9])
def test_condition_fb_check_lifts_each_section_once(aff1, monkeypatch, count):
    from pnalgebroid import lifts

    calls = []
    real = lifts.lift_section
    monkeypatch.setattr(lifts, "lift_section",
                        lambda *a: calls.append(a) or real(*a))
    pts = sample_points(["mu1", "mu2"], count, 3, {"mu1": (-2, 2), "mu2": (-2, 2)})
    reports = condition_fb_check(aff1.algebroid, aff1.kernel_basis, pts, seed=4)
    assert len(reports) == count
    assert len(calls) == 2 * len(aff1.kernel_basis)


def test_condition_fb_check_reads_rho_from_the_complete_lifts(aff1):
    """dim_anchor_image equals the rank of the directly evaluated rho(X)."""
    import numpy as np
    from pnalgebroid import linalg
    from pnalgebroid.expr import Point

    A = aff1.algebroid
    pts = sample_points(["mu1", "mu2"], 10, 3, {"mu1": (-2, 2), "mu2": (-2, 2)})
    pts.append({"mu1": 0.7, "mu2": 0.0})     # rho(B) drops rank on mu2 = 0
    for values, rep in zip(pts, condition_fb_check(A, aff1.kernel_basis, pts, seed=4)):
        pt = Point(values)
        rho = [[sum(X.comps[a].evaluate(pt) * A.anchor[a][i].evaluate(pt)
                    for a in range(A.rank)) for i in range(A.dim)]
               for X in aff1.kernel_basis]
        assert rep.dim_anchor_image == linalg.numeric_rank(np.array(rho)).rank
    assert rep.dim_anchor_image == 1


# -- the epimorphism kernel, computed once ------------------------------------

def test_projectable_complement_computes_the_kernel_once(monkeypatch):
    from pnalgebroid import linalg
    from pnalgebroid.reduction import projectable_complement

    epi = build_toda(3).epi_flaschka
    calls = []
    real = linalg.symbolic_nullspace
    monkeypatch.setattr(linalg, "symbolic_nullspace",
                        lambda *a: calls.append(a) or real(*a))
    complement = projectable_complement(epi)
    assert len(complement) == epi.target.rank == 5
    assert len(calls) == 1


def test_project_endo_builds_the_complement_once(monkeypatch):
    from pnalgebroid import reduction

    t = build_toda(2)
    calls = []
    real = reduction.projectable_complement
    monkeypatch.setattr(reduction, "projectable_complement",
                        lambda *a: calls.append(a) or real(*a))
    assert projectable_endo_check(t.epi_atiyah, t.N).ok
    want = t.recursion_atiyah().exact()
    for check in (True, False):
        assert (project_endo(t.epi_atiyah, t.N, check=check) - want).is_zero()
    assert len(calls) == 1


def test_rewrite_basic_names_an_exponential_with_no_integer_preimage():
    epi = build_toda(3).epi_flaschka
    assert (rewrite_basic(epi, parse("exp(q1 - q3)")) - parse("a1*a2")).is_zero()
    # exp(3 q1 - q2) = a1^3 a2^2 exp(2 q3), and exp(2 q3) is not basic
    with pytest.raises(NotBasic, match="exponential factor does not factor"):
        rewrite_basic(epi, parse("exp(3*q1 - q2)"))


def test_rewrite_basic_divides_coefficients_exactly():
    from fractions import Fraction

    epi = EpimorphismSpec("double", LieAlgebroid.tangent(["x"]), LieAlgebroid.tangent(["u"]),
                          {"u": parse("2*x")}, [[parse("2")]])

    def rewritten(text):
        out = rewrite_basic(epi, parse(text))
        # a float equals its Fraction, so compare the stored types as well
        return [(m, [(v, k, type(k)) for v, k in l], c, type(c)) for m, l, c in out.terms]

    assert rewritten("x") == [((("u", 1),), [], Fraction(1, 2), Fraction)]
    assert rewritten("2*x") == [((("u", 1),), [], 1, int)]
    assert rewritten("3*x^2 + 1") == [((), [], 1, int), ((("u", 2),), [], Fraction(3, 4), Fraction)]
    assert rewritten("exp(x + 1)") == [((), [("", 1, int), ("u", Fraction(1, 2), Fraction)], 1, int)]
    assert rewritten("exp(2*x)") == [((), [("u", 1, int)], 1, int)]
    assert str(rewrite_basic(epi, parse("x"))) == "1/2*u"


def test_rewrite_basic_witness_prints_the_exponential_once():
    epi = build_toda(3).epi_flaschka
    with pytest.raises(NotBasic) as exc:
        rewrite_basic(epi, parse("exp(q1)"))
    assert str(exc.value) == (
        "exponential factor does not factor through the base map: exp(q1)"
    )


def _powers_by_solve_pair(exps, hard_vars, k):
    """The powers as one elimination per right-hand side finds them."""
    from fractions import Fraction

    from pnalgebroid import linalg

    rows = [[Expr.number(l.get(v, Fraction(0))) for _, _, l in exps] for v in hard_vars]
    try:
        x = linalg.solve_pair(rows, [Expr.number(q) for q in k]).exact()
    except ExprError:
        return None
    return [e.constant_value() for e in x]


def test_power_system_matches_one_elimination_per_right_hand_side():
    import random
    from fractions import Fraction

    rng = random.Random(11)
    half, third = Fraction(1, 2), Fraction(1, 3)
    systems = [
        build_toda(4).epi_flaschka._images[1],
        [("a", 1, {"x": 1, "y": -1}), ("b", 1, {"x": 2, "y": -2})],  # dependent
        [("a", 1, {"x": half}), ("b", 1, {"x": 1, "y": third, "": 2})],
        [("a", 1, {"x": 1, "y": 1, "z": 1})],
        [],
    ]
    for exps in systems:
        hard = tuple(sorted({v for _, _, l in exps for v in l if v} | {"x"}))
        system = reduction._PowerSystem(exps, hard)
        for trial in range(40):
            if trial % 2:  # in the column space: k = A n
                n = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in exps]
                k = [sum((q * l.get(v, 0) for q, (_, _, l) in zip(n, exps)), Fraction(0))
                     for v in hard]
            else:
                k = [Fraction(rng.randint(-2, 2), rng.choice((1, 3))) for _ in hard]
            assert system.solve(k) == _powers_by_solve_pair(exps, hard, k), (exps, k)


def test_rewrite_basic_classifies_and_eliminates_once_per_variable_set(monkeypatch):
    from pnalgebroid import linalg

    t = build_toda(4)
    want = [rewrite_basic(t.epi_flaschka, e) for e in (t.H0, t.H1)]
    epi = build_toda(4).epi_flaschka  # a fresh spec, nothing cached yet
    classified, eliminated = [], []
    classify, echelon = reduction._classify_images, linalg.row_echelon
    monkeypatch.setattr(reduction, "_classify_images",
                        lambda m: classified.append(1) or classify(m))
    monkeypatch.setattr(linalg, "row_echelon", lambda a: eliminated.append(1) or echelon(a))
    assert [rewrite_basic(epi, e) for e in (t.H0, t.H1)] == want
    assert (rewrite_basic(epi, parse("exp(q1 - q3)")) - parse("a1*a2")).is_zero()
    for text in ("exp(q1)", "q1", "exp(3*q1 - q2)"):
        with pytest.raises(NotBasic):
            rewrite_basic(epi, parse(text))
    # every term above reads the exponent system over q1..q4
    assert classified == [1] and len(eliminated) == len(epi._power_systems) == 1


def test_condition_fb_check_with_no_sections_is_a_rank_zero_subbundle(aff1):
    pts = sample_points(["mu1", "mu2"], 3, 1, {"mu1": (-2, 2), "mu2": (-2, 2)})
    reports = condition_fb_check(aff1.algebroid, [], pts, seed=4)
    assert len(reports) == 3
    for rep in reports:
        assert (rep.rank_subbundle, rep.dim_anchor_image, rep.dim_lifted) == (0, 0, 0)
        assert rep.consistent and not rep.ill_conditioned
        assert list(rep.fiber_point) == [0.0] * aff1.algebroid.rank


def test_kernel_frame_is_computed_once_per_spec(monkeypatch):
    from pnalgebroid import linalg

    epi = build_toda(2).epi_atiyah
    calls = []
    real = linalg.symbolic_nullspace
    monkeypatch.setattr(linalg, "symbolic_nullspace",
                        lambda *a: calls.append(a) or real(*a))
    first = epi.kernel_frame()
    assert epi.kernel_frame() == first
    assert len(calls) == 1


def _reference_fb(A, sections, points, seed, tol=1e-9):
    """condition_fb_check one point at a time, as before the batched path."""
    import random

    import numpy as np
    from pnalgebroid import linalg
    from pnalgebroid.lifts import fiber_vars, lift_section

    rng = random.Random(seed)
    ys = fiber_vars(A)
    lifts = [lift_section(A, X, kind).comps for X in sections for kind in ("c", "v")]
    out = []
    for values in points:
        span = _evaluate([X.comps for X in sections], values).reshape(len(sections), A.rank).T
        rank_b = linalg.numeric_rank(span, tol)
        y = span @ np.array([rng.uniform(-1.0, 1.0) for _ in sections])
        total = dict(values, **{ys[a]: float(y[a]) for a in range(A.rank)})
        gens = _evaluate(lifts, total).reshape(len(lifts), A.dim + A.rank)
        rank_rho = linalg.numeric_rank(gens[::2, :A.dim], tol)
        rank_f = linalg.numeric_rank(gens, tol)
        out.append((y, rank_f.rank, rank_rho.rank, rank_b.rank,
                    rank_f.rank == rank_rho.rank + rank_b.rank,
                    rank_f.ill_conditioned or rank_b.ill_conditioned or rank_rho.ill_conditioned))
    return out


def _fb_cases():
    a, t2 = build_aff1(), build_toda(2)
    A = t2.atiyah
    b1 = parse("b1")
    frame = [A.frame_section(0).scale(b1), A.frame_section(2) + A.frame_section(1)]
    return [("aff1", a.algebroid, a.kernel_basis), ("toda2-atiyah", A, frame)]


@pytest.mark.parametrize("seed", [1, 2, 3, 23])
@pytest.mark.parametrize("case", _fb_cases(), ids=lambda c: c[0])
def test_condition_fb_check_matches_the_per_point_code(case, seed):
    """The same rng draws in the same order: fiber points bit for bit."""
    _, A, sections = case
    _assert_fb_matches_reference(A, sections, _case_points(A, 150, seed), seed)


def _assert_fb_matches_reference(A, sections, pts, seed):
    import numpy as np

    got = condition_fb_check(A, sections, pts, seed)
    for rep, want in zip(got, _reference_fb(A, sections, pts, seed), strict=True):
        assert np.array_equal(rep.fiber_point, want[0])
        assert (rep.dim_lifted, rep.dim_anchor_image, rep.rank_subbundle, rep.consistent,
                rep.ill_conditioned) == want[1:]


def test_condition_fb_check_across_blocks():
    """Two blocks and one point: the draws continue from block to block."""
    from pnalgebroid import linalg
    from pnalgebroid.lifts import lift_section

    _, A, sections = _fb_cases()[0]
    size = linalg._block_size(
        linalg.CompiledMatrix([X.comps for X in sections]),
        linalg.CompiledMatrix([lift_section(A, X, kind).comps
                               for X in sections for kind in ("c", "v")]))
    _assert_fb_matches_reference(A, sections, _case_points(A, 2 * size + 1, 11), 11)


# -- projectability of bivectors against the Schouten route ------------------


def _schouten_projectable_failures(epi, P):
    """The failures of ``projectable_bivector_check`` read from
    ``schouten_1r(xi, P)`` for each kernel section xi."""
    from pnalgebroid.poisson import schouten_1r

    out = []
    for xi in epi.kernel_frame():
        Q = schouten_1r(xi, P)
        for a, covector in enumerate(epi.target.frame):
            pushed = epi.push_components(Q.sharp(epi.pullback_dual_frame(a)))
            out += [(f"([xi, P])# of pulled-back covector {covector} leaves the kernel "
                     f"(component {name})", e)
                    for name, e in zip(epi.target.frame, pushed) if not e.is_zero()]
    return out


def _perturbed(P, rng):
    """P plus a random bivector on a few frame pairs, with polynomial and
    exponential entries in the source coordinates."""
    A = P.algebroid
    xs = [Expr.var(v) for v in A.base_vars]
    pairs = [(a, b) for a in range(A.rank) for b in range(a + 1, A.rank)]
    entries = {}
    for a, b in rng.sample(pairs, 3):
        e = Expr.number(rng.choice([-2, -1, 1, 2])) * rng.choice(xs)
        if rng.random() < 0.5:
            e = e * Expr.exp_of(rng.choice(xs) - rng.choice(xs))
        entries[a, b] = e
    return P + Bivector.from_entries(A, entries)


@pytest.mark.parametrize("which", ["epi_flaschka", "epi_atiyah"])
def test_projectable_bivector_check_matches_the_schouten_route(which):
    import random

    toda = build_toda(3)
    epi = getattr(toda, which)
    rng = random.Random(f"projectable/{which}")
    bivectors = [toda.lam0, toda.lam1] + [_perturbed(P, rng) for P in (toda.lam0, toda.lam1)
                                          for _ in range(2)]
    failing = 0
    for P in bivectors:
        want = _schouten_projectable_failures(epi, P)
        rep = projectable_bivector_check(epi, P)
        assert rep.failures == want
        assert rep.ok == (not want)
        failing += bool(want)
    # the invariant frame's fiber map is invertible: no kernel section, no failure
    assert failing >= 3 if which == "epi_flaschka" else failing == 0
