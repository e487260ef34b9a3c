"""Projection along bundle epimorphisms, leaf restriction, pointwise
stable-kernel reduction and the subalgebroid verdicts."""

import os

import pytest

from pnalgebroid.expr import Expr, parse, ZERO, ONE
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


def test_kernel_subalgebroid_closed_for_torsion_free(toda2):
    # constant diagonal projector on the plane: torsion-free, kernel and
    # image both close trivially
    A = LieAlgebroid.tangent(["x", "y"])
    N = Endo.from_matrix(A, [[ONE, ZERO], [ZERO, ZERO]])
    rep = kernel_subalgebroid_check(N)
    assert rep.index == 1
    assert rep.kernel_closed.ok and rep.image_closed.ok
    assert rep.decomposition_ok and rep.ok


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
    for l in range(1, r + 2):
        powers.append(powers[-1] @ mat)
        res = linalg.numeric_rank(powers[-1], tol)
        ranks.append(res.rank)
        ill = ill or res.ill_conditioned
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
    return dict(ranks=ranks, index=k, dim_kernel=kernel.shape[1], kernel=kernel,
                image=image, direct_sum_ok=direct, ill_conditioned=ill)


def _reference_fiberwise(P, N, values, tol):
    import numpy as np

    rz = _reference_riesz(N, values, tol)
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
    return dict(
        rz, dim_quotient=d, p_tilde=p_t, n_tilde=n_t,
        p_nondegenerate=bool(d == 0 or (len(sp) and sp[-1] > cutoff_p)),
        n_invertible=bool(d == 0 or (len(sn) and sn[-1] > cutoff_n)),
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
    t2, t3, a = build_toda(2), build_toda(3), build_aff1()
    A, P, jordans = _jordan_pair()
    return [
        ("toda2", t2.tangent, t2.lam0, [t2.N]),
        ("toda3", t3.tangent, t3.lam0, [t3.N]),
        ("toda2-atiyah", t2.atiyah, t2.pi0, [t2.recursion_atiyah().exact()]),
        ("aff1", a.algebroid, a.P, [a.N]),
        ("jordan", A, P, jordans),
    ]


@pytest.mark.parametrize("case", _numeric_cases(), ids=lambda c: c[0])
def test_riesz_and_fiberwise_match_the_previous_per_point_code(case):
    import numpy as np
    from pnalgebroid.reduction import riesz_at_point

    _, A, P, endos = case
    tol = 1e-9
    pts = sample_points(list(A.base_vars), 12, 5, {v: (0.5, 2.0) for v in A.base_vars
                                                     if v.startswith("a")})
    for N in endos:
        new = fiberwise_reduce(P, N, pts, tol)
        for values, fr in zip(pts, new):
            want = _reference_fiberwise(P, N, values, tol)
            rz = riesz_at_point(N, values, tol)
            assert rz.ranks == want["ranks"]
            assert (rz.index, rz.dim_kernel, rz.direct_sum_ok, rz.ill_conditioned) == (
                want["index"], want["dim_kernel"], want["direct_sum_ok"],
                want["ill_conditioned"])
            assert rz.kernel_basis.shape == want["kernel"].shape
            assert rz.image_basis.shape == want["image"].shape
            for got, ref in ((rz.kernel_basis, want["kernel"]), (rz.image_basis, want["image"])):
                assert np.allclose(got @ got.T, ref @ ref.T)
            assert (fr.index, fr.dim_quotient, fr.direct_sum_ok, fr.ill_conditioned) == (
                want["index"], want["dim_quotient"], want["direct_sum_ok"],
                want["ill_conditioned"])
            assert (fr.p_nondegenerate, fr.n_invertible) == (
                want["p_nondegenerate"], want["n_invertible"])
            assert np.allclose(fr.p_tilde, want["p_tilde"])
            assert np.allclose(fr.n_tilde, want["n_tilde"])


def test_the_jordan_cases_reach_index_three_and_two():
    from pnalgebroid.reduction import riesz_at_point

    _, _, (nilpotent, mixed) = _jordan_pair()
    values = {"x": 0.3, "y": -0.7, "z": 1.1}
    assert riesz_at_point(nilpotent, values).index == 3
    assert riesz_at_point(mixed, values).index == 2


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


def test_project_endo_builds_the_complement_once(toda2, monkeypatch):
    from pnalgebroid import reduction

    calls = []
    real = reduction.projectable_complement
    monkeypatch.setattr(reduction, "projectable_complement",
                        lambda *a: calls.append(a) or real(*a))
    got = project_endo(toda2.epi_atiyah, toda2.N, check=True)
    assert (got - toda2.recursion_atiyah().exact()).is_zero()
    assert len(calls) == 1
    calls.clear()
    project_endo(toda2.epi_atiyah, toda2.N, check=False)
    assert len(calls) == 1


def test_rewrite_basic_names_an_exponential_with_no_integer_preimage():
    epi = build_toda(3).epi_flaschka
    assert (rewrite_basic(epi, parse("exp(q1 - q3)")) - parse("a1*a2")).is_zero()
    # exp(3 q1 - q2) = a1^3 a2^2 exp(2 q3), and exp(2 q3) is not basic
    with pytest.raises(NotBasic, match="exponential factor does not factor"):
        rewrite_basic(epi, parse("exp(3*q1 - q2)"))
