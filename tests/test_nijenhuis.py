"""Endomorphism calculus: torsion, deformed brackets, concomitant,
recursion operators and hierarchies."""

import pytest

from pnalgebroid.expr import Expr, ExprError, parse, ZERO, ONE
from pnalgebroid.algebroid import LieAlgebroid
from pnalgebroid.poisson import Bivector, DegenerateBivector, is_poisson
from pnalgebroid.nijenhuis import (
    Endo, torsion, torsion_check, deformed_algebroid, sharp_commutes,
    concomitant_check, pn_check, recursion_operator, hierarchy,
    hierarchy_check, bihamiltonian_check, deformed_bracket,
)
from pnalgebroid.fixtures import build_toda, build_aff1
from pnalgebroid import nijenhuis


@pytest.fixture(scope="module")
def toda2():
    return build_toda(2)


def test_identity_and_constant_endos_are_torsion_free():
    A = LieAlgebroid.tangent(["x", "y"])
    assert torsion_check(Endo.identity(A)).ok
    n = Endo.from_matrix(A, [[parse("2"), ONE], [ZERO, parse("3")]])
    assert torsion_check(n).ok


def test_toda_recursion_operator_matches_closed_form(toda2):
    frac = recursion_operator(toda2.lam0, toda2.lam1)
    assert (frac.exact() - toda2.N).is_zero()


def test_recursion_operator_intertwines_sharps(toda2):
    # N P0# = P1# on the dual frame, after clearing the denominator
    frac = recursion_operator(toda2.lam0, toda2.lam1)
    A = toda2.tangent
    for a in range(A.rank):
        theta = A.dual_frame_form(a)
        lhs = frac.num.apply(toda2.lam0.sharp(theta))
        rhs = toda2.lam1.sharp(theta).scale(frac.den)
        assert (lhs - rhs).is_zero()


def test_recursion_operator_degenerate_gives_witness(toda2):
    with pytest.raises(DegenerateBivector) as exc:
        recursion_operator(toda2.lam0_bar, toda2.lam1_bar)
    assert exc.value.witness is not None
    # the witness spans ker P0 (invert_poisson's spans ker P0^T)
    assert str(exc.value) == (
        "first bivector is degenerate; kernel covector witness: (a1)*th_Db1 + (a1)*th_Db2")
    assert [str(c) for c in exc.value.witness] == ["0", "a1", "a1"]


def test_toda_pn_verdicts(toda2):
    rep = pn_check(toda2.lam0, toda2.N)
    assert rep.ok, rep.witness()
    rep = pn_check(toda2.lam1, toda2.N)
    assert rep.ok, rep.witness()


def test_deformed_algebroid_is_an_algebroid(toda2):
    B = deformed_algebroid(toda2.N)
    rep = B.check_algebroid()
    assert rep.ok, rep.witness()


def test_deformed_bracket_with_identity_is_plain_bracket():
    A = LieAlgebroid.tangent(["x", "y"])
    X = A.section([parse("x"), ONE])
    Y = A.section([ZERO, parse("y*x")])
    got = deformed_bracket(Endo.identity(A), X, Y)
    want = A.bracket(X, Y)
    assert (got - want).is_zero()


def test_torsion_failure_has_witness():
    a = build_aff1()
    rep = torsion_check(a.N)
    assert not rep.ok
    assert "eps" in rep.witness() or "xi" in rep.witness()


def test_sharp_compatibility_failure_detected(toda2):
    A = toda2.tangent
    # skew the endomorphism so that N P0# is no longer antisymmetric
    bad = [[e for e in row] for row in toda2.N.mat]
    bad[0][0] = bad[0][0] + parse("q1")
    rep = sharp_commutes(toda2.lam0, Endo.from_matrix(A, bad))
    assert not rep.ok


def test_hierarchy_of_bivectors(toda2):
    levels = hierarchy(toda2.lam0, toda2.N, 3)
    assert [l for l, _ in levels] == [0, 1, 2, 3]
    assert (levels[1][1] - toda2.lam1).is_zero()
    rep = hierarchy_check(toda2.lam0, toda2.N, 3)
    assert rep.ok


def test_bihamiltonian_ladder(toda2):
    rep = bihamiltonian_check(toda2.lam0, toda2.lam1, toda2.H0, toda2.H1)
    assert rep.ok, rep.witness()
    # and it fails when the Hamiltonians are swapped
    assert not bihamiltonian_check(toda2.lam0, toda2.lam1, toda2.H1, toda2.H0).ok


def test_push_bivector_requires_antisymmetry(toda2):
    A = toda2.tangent
    bad = Endo.from_matrix(
        A, [[parse("q1") if i == j == 0 else ZERO for j in range(4)] for i in range(4)]
    )
    with pytest.raises(ValueError):
        bad.push_bivector(toda2.lam0)


def test_apply_matches_the_dense_product():
    import random

    from pnalgebroid.algebroid import Section

    A = build_toda(3).tangent
    r = A.rank
    rng = random.Random(5)
    xs = [Expr.var(v) for v in A.base_vars]

    def sparse_entry():
        return rng.choice([ZERO, ZERO, ONE, rng.choice(xs) * Expr.number(rng.randint(-2, 2))])

    for _ in range(4):
        N = Endo.from_matrix(A, [[sparse_entry() for _ in range(r)] for _ in range(r)])
        X = Section(A, tuple(sparse_entry() for _ in range(r)))
        dense = [sum((N.mat[a][b] * X.comps[b] for b in range(r)), ZERO) for a in range(r)]
        assert N.apply(X).comps == tuple(dense)


def test_push_bivector_and_sharp_commutes_agree(toda2):
    A = toda2.tangent
    good, bad = toda2.N, Endo.from_matrix(
        A, [[parse("q1") if i == j == 0 else ZERO for j in range(4)] for i in range(4)]
    )
    assert sharp_commutes(toda2.lam0, good).ok
    assert (good.push_bivector(toda2.lam0) - toda2.lam1).is_zero()
    rep = sharp_commutes(toda2.lam0, bad)
    assert rep.failures == [("N P# != P# N* on dual pair (Dq1, Dp1)", parse("q1"))]
    with pytest.raises(ExprError, match="N P is not antisymmetric"):
        bad.push_bivector(toda2.lam0)


def _counting_contract(monkeypatch):
    calls = []
    real = nijenhuis._contract

    def counted(N, P):
        calls.append((N, P))
        return real(N, P)

    monkeypatch.setattr(nijenhuis, "_contract", counted)
    return calls


def test_pn_check_contracts_n_p_once(toda2, monkeypatch):
    calls = _counting_contract(monkeypatch)
    rep = pn_check(toda2.lam0, toda2.N)
    assert rep.ok and len(calls) == 1
    assert rep.compatible.seconds > 0
    alone = concomitant_check(toda2.lam0, toda2.N)
    assert rep.concomitant.failures == alone.failures


def test_pn_check_skips_the_concomitant_when_sharps_do_not_commute(toda2, monkeypatch):
    A = toda2.tangent
    bad = Endo.from_matrix(
        A, [[parse("q1") if i == j == 0 else ZERO for j in range(4)] for i in range(4)]
    )
    want = sharp_commutes(toda2.lam0, bad).failures
    calls = _counting_contract(monkeypatch)
    rep = pn_check(toda2.lam0, bad)
    assert len(calls) == 1
    assert rep.compatible.failures == want
    assert rep.concomitant.failures == [("skipped: sharp maps do not commute", ZERO)]
