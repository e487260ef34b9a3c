"""Endomorphism calculus: torsion, deformed brackets, concomitant,
recursion operators and hierarchies."""

import functools
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pnalgebroid.expr import Expr, ExprError, parse, ZERO, ONE
from pnalgebroid.algebroid import KForm, LieAlgebroid
from pnalgebroid.poisson import (
    Bivector, DegenerateBivector, are_compatible, dual_algebroid, is_poisson, poisson_pair,
)
from pnalgebroid.nijenhuis import (
    Endo, torsion, torsion_check, deformed_algebroid, sharp_commutes,
    concomitant, concomitant_check, pn_check, recursion_operator, hierarchy,
    hierarchy_check, bihamiltonian_check, deformed_bracket,
)
from pnalgebroid.fixtures import build_toda, build_aff1, build_semidirect
from pnalgebroid import linalg, nijenhuis


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


def test_toda5_verdicts_differentiate_each_entry_along_each_variable_once(monkeypatch):
    T = build_toda(5)
    calls, operands = {}, []
    real = Expr.diff

    def counted(self, v):
        operands.append(self)  # keeps each entry alive, so no id below is reused
        calls[id(self), v] = calls.get((id(self), v), 0) + 1
        return real(self, v)

    monkeypatch.setattr(Expr, "diff", counted)
    assert all(rep.ok for rep in poisson_pair(T.lam0, T.lam1))
    assert pn_check(T.lam0, T.N).ok
    assert hierarchy_check(T.lam0, T.N, 3).ok
    assert calls and max(calls.values()) == 1


def test_hierarchy_check_caps_its_levels_at_the_rank(toda2):
    def shape(rep):
        return [l for l, _ in rep.levels], [(i, j) for i, j, _ in rep.pairwise]

    rank = toda2.lam0.algebroid.rank
    capped = shape(hierarchy_check(toda2.lam0, toda2.N, rank))
    assert capped[0] == list(range(rank + 1))
    assert len(capped[1]) == (rank + 1) * rank // 2
    assert shape(hierarchy_check(toda2.lam0, toda2.N, rank + 1)) == capped
    assert [l for l, _ in hierarchy(toda2.lam0, toda2.N, rank + 1)] == capped[0]


def test_hierarchy_depth_zero_is_valid_and_a_negative_depth_raises(toda2):
    assert hierarchy(toda2.lam0, toda2.N, 0) == [(0, toda2.lam0)]
    assert hierarchy_check(toda2.lam0, toda2.N, 0).ok
    for depth in (-1, -3):
        with pytest.raises(ValueError, match="nonnegative"):
            hierarchy(toda2.lam0, toda2.N, depth)
        with pytest.raises(ValueError, match="nonnegative"):
            hierarchy_check(toda2.lam0, toda2.N, depth)


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


def _skewed3():
    # the skewed algebroid of test_algebroid.py: non-constant anchor and
    # structure entries (not a Lie algebroid: the routes are compared as
    # formulas)
    x, y = parse("x"), parse("y")
    return LieAlgebroid.from_tables(
        ["x", "y"],
        ["e1", "e2", "e3"],
        [[x, ONE], [ZERO, y * Expr.exp_of(x)], [ZERO, ZERO]],
        {(0, 1): {2: x}, (0, 2): {0: y, 2: ONE}, (1, 2): {1: x * y}},
    )


def _toda3_pair():
    t = build_toda(3)
    return t.tangent, t.lam1, t.N


def _aff1_pair():
    a = build_aff1()
    return a.algebroid, a.P, a.N


CONTRACTION_CASES = {
    "toda3": _toda3_pair,
    "aff1": _aff1_pair,
    "skewed": lambda: (_skewed3(), None, None),
}


def _sparse_expr(A, rng):
    """Zero half the time, else one or two terms c x^k [exp(y)] with c in
    (1/2)Z, so that sums over several denominators occur."""
    if rng.random() < 0.5:
        return ZERO
    out = ZERO
    for _ in range(rng.randint(1, 2)):
        t = Expr.number(Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2])))
        t = t * Expr.var(rng.choice(A.base_vars)) ** rng.randint(0, 2)
        if rng.random() < 0.3:
            t = t * Expr.exp_of(Expr.var(rng.choice(A.base_vars)))
        out = out + t
    return out


def _sparse_form(A, degree, rng):
    # zero components are stored too: a contraction must skip them
    return KForm(A, degree, {idx: _sparse_expr(A, rng)
                             for idx in itertools.combinations(range(A.rank), degree)})


def _dense_sum(terms):
    return sum(terms, ZERO)


def dense_bracket(A, X, Y):
    """[X, Y]^g = X^a Y^b C_ab^g + rho(X)(Y^g) - rho(Y)(X^g), every sum over
    all indices, rho(S)(f) = S^a rho_a^i df/dx^i."""
    r = A.rank

    def rho(S, f):
        return _dense_sum(S.comps[a] * A.anchor[a][i] * f.diff(v)
                          for a in range(r) for i, v in enumerate(A.base_vars))

    return tuple(
        _dense_sum(X.comps[a] * Y.comps[b] * A.structure[a][b][g]
                   for a in range(r) for b in range(r))
        + rho(X, Y.comps[g]) - rho(Y, X.comps[g])
        for g in range(r)
    )


def _sign(seq):
    return -1 if sum(a > b for a, b in itertools.combinations(seq, 2)) % 2 else 1


def dense_wedge(a, b):
    """(a ^ b)_I = sum over the a.degree-subsets S of I of
    sign(S, I - S) a_S b_{I - S}."""
    A, k = a.algebroid, a.degree + b.degree
    out = {}
    for idx in itertools.combinations(range(A.rank), k):
        e = _dense_sum(
            _sign(S + rest) * a.entry(S) * b.entry(rest)
            for S in itertools.combinations(idx, a.degree)
            for rest in [tuple(i for i in idx if i not in S)])
        if not e.is_zero():
            out[idx] = e
    return out


def dense_evaluation(omega, sections):
    """omega(X_1, ..., X_k) = omega_{i_1 ... i_k} X_1^{i_1} ... X_k^{i_k},
    summed over every index tuple."""
    total = ZERO
    for idx in itertools.product(range(omega.algebroid.rank), repeat=omega.degree):
        t = omega.entry(idx)
        for X, i in zip(sections, idx):
            t = t * X.comps[i]
        total = total + t
    return total


@pytest.mark.parametrize("case", sorted(CONTRACTION_CASES))
def test_contractions_match_their_dense_sums(case):
    """N, N*, P#, P(., .), interior and wedge products, a form on sections and
    the section bracket against the textbook sums over every index, on
    seeded sparse inputs."""
    from pnalgebroid.algebroid import Section, interior

    A, P0, N0 = CONTRACTION_CASES[case]()
    r = A.rank
    rng = random.Random(f"contractions/{case}")
    for k in range(5):
        P = P0 if k == 0 and P0 is not None else Bivector.from_entries(
            A, {(a, b): _sparse_expr(A, rng) for a, b in itertools.combinations(range(r), 2)})
        N = N0 if k == 0 and N0 is not None else Endo.from_matrix(
            A, [[_sparse_expr(A, rng) for _ in range(r)] for _ in range(r)])
        X, Y, Z = (Section(A, tuple(_sparse_expr(A, rng) for _ in range(r))) for _ in range(3))
        alpha, beta = _sparse_form(A, 1, rng), _sparse_form(A, 1, rng)
        al = [alpha.entry((a,)) for a in range(r)]
        be = [beta.entry((a,)) for a in range(r)]

        assert N.apply(X).comps == tuple(
            _dense_sum(N.mat[a][b] * X.comps[b] for b in range(r)) for a in range(r))
        assert N.dual_apply(alpha).comps == A.one_form(
            [_dense_sum(al[c] * N.mat[c][b] for c in range(r)) for b in range(r)]).comps
        assert P.sharp(alpha).comps == tuple(
            _dense_sum(al[a] * P.mat[a][b] for a in range(r)) for b in range(r))
        assert P.apply(alpha, beta) == _dense_sum(
            al[a] * be[b] * P.mat[a][b] for a in range(r) for b in range(r))
        for degree in range(1, min(r, 3) + 1):
            omega = _sparse_form(A, degree, rng)
            want = {
                idx: e for idx in itertools.combinations(range(r), degree - 1)
                if not (e := _dense_sum(X.comps[b] * omega.entry((b,) + idx)
                                        for b in range(r))).is_zero()
            }
            got = interior(X, omega)
            assert (got.degree, got.comps) == (degree - 1, want)
            assert omega(*[X, Y, Z][:degree]) == dense_evaluation(omega, [X, Y, Z][:degree])
            if degree < r:
                got = alpha.wedge(omega)
                assert (got.degree, got.comps) == (degree + 1, dense_wedge(alpha, omega))
        assert A.bracket(X, Y).comps == dense_bracket(A, X, Y)


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
    # a skipped check has no residual, and its witness is the message alone
    assert rep.concomitant.failures == [("skipped: sharp maps do not commute", None)]
    assert rep.concomitant.witness() == "skipped: sharp maps do not commute"


# -- concomitant_check (dual algebroids) against the textbook concomitant ----


def _skewed4():
    # non-constant anchor and structure entries (not a Lie algebroid: the
    # two routes are compared as formulas)
    x, y = parse("x"), parse("y")
    return LieAlgebroid.from_tables(
        ["x", "y"],
        ["e1", "e2", "e3", "e4"],
        [[x, ONE], [ZERO, y * Expr.exp_of(x)], [ZERO, ZERO], [ONE, ZERO]],
        {(0, 1): {2: x}, (0, 2): {0: y, 3: ONE}, (1, 3): {1: x * y}, (2, 3): {0: parse("2")}},
    )


CONCOMITANT_CASES = {
    "tangent-R4": lambda: LieAlgebroid.tangent(["x", "y", "z", "w"]),
    "toda2": lambda: build_toda(2).tangent,
    "toda2-atiyah": lambda: build_toda(2).atiyah,
    "aff1": lambda: build_aff1().algebroid,
    "skewed4": _skewed4,
}


def _random_poly(variables, rng, degree):
    e = ZERO
    for _ in range(rng.randint(0, 2)):
        t = Expr.number(rng.choice([-2, -1, 1, 2]))
        for _ in range(rng.randint(0, degree)):
            t = t * Expr.var(rng.choice(variables))
        e = e + t
    return e


def _random_pn_pair(A, rng, degree=2):
    """A constant nondegenerate P and N = Q adj(P) for a random antisymmetric
    Q of polynomial degree at most ``degree``, so that N P = det(P) Q is
    antisymmetric."""
    r = A.rank
    while True:
        P = Bivector.from_entries(A, {
            (a, b): Expr.number(rng.randint(-2, 2))
            for a in range(r) for b in range(a + 1, r)
        })
        if not P.determinant().is_zero():
            break
    Q = Bivector.from_entries(A, {
        (a, b): _random_poly(list(A.base_vars), rng, degree)
        for a in range(r) for b in range(a + 1, r)
    })
    return P, Endo.from_matrix(A, linalg.mat_mul(Q.mat, linalg.adjugate(P.mat)))


def textbook_failures(P, N):
    """The failures of the concomitant check, computed pair by pair from the
    Koszul brackets of :func:`concomitant`, components in frame order."""
    A = P.algebroid
    out = []
    for a in range(A.rank):
        for b in range(a + 1, A.rank):
            c = concomitant(P, N, A.dual_frame_form(a), A.dual_frame_form(b))
            out += [
                (f"concomitant nonzero on dual pair ({A.frame[a]}, {A.frame[b]}) "
                 f"component {A.frame[g]}", c.entry((g,)))
                for g in range(A.rank)
                if not c.entry((g,)).is_zero()
            ]
    return out


@pytest.mark.parametrize("case", sorted(CONCOMITANT_CASES))
def test_concomitant_check_matches_the_textbook_concomitant(case):
    A = CONCOMITANT_CASES[case]()
    rng = random.Random(f"concomitant/{case}")
    failing = 0
    for k in range(6):
        # every third Q is constant; those draws pass on the algebroids
        # whose structure functions vanish
        P, N = _random_pn_pair(A, rng, degree=2 if k % 3 else 0)
        want = textbook_failures(P, N)
        rep = concomitant_check(P, N)
        assert rep.failures == want
        assert rep.ok == (not want)
        failing += bool(want)
    assert failing


def test_concomitant_check_makes_no_koszul_bracket_or_d_A_call(toda2, monkeypatch):
    from pnalgebroid import algebroid, poisson

    calls = []

    def refuse(name):
        return lambda *args: calls.append(name)

    for module in (algebroid, poisson, nijenhuis):
        for name in ("koszul_bracket", "d_A"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse(name))
    assert concomitant_check(toda2.lam0, toda2.N).ok
    P, N = _random_pn_pair(build_aff1().algebroid, random.Random(3))
    assert not concomitant_check(P, N).ok
    assert calls == []


def test_deformed_algebroid_keeps_frame_names_apart_from_base_variables():
    # a base variable named like the old "n_" deformed frame names
    A = LieAlgebroid.from_tables(["n_e1", "y"], ["e1", "e2"], [[ONE, ZERO], [ZERO, ONE]])
    B = deformed_algebroid(Endo.from_matrix(A, [[parse("2"), ZERO], [ZERO, parse("2")]]))
    assert B.frame == A.frame
    assert B.check_algebroid().ok


# -- the frame-table verdicts against their textbook routes ------------------


def _exp_frame():
    # a Lie algebroid whose anchor and structure functions are not constant
    x = parse("x")
    return LieAlgebroid.from_tables(
        ["x", "y"],
        ["e1", "e2", "e3", "e4"],
        [[ONE, ZERO], [ZERO, Expr.exp_of(x)], [ZERO, ZERO], [ZERO, ZERO]],
        {(0, 1): {1: ONE}, (0, 3): {3: ONE}, (2, 3): {2: Expr.exp_of(x)}},
    )


FRAME_TABLE_CASES = {
    "toda3": lambda: build_toda(3).tangent,
    "toda3-atiyah": lambda: build_toda(3).atiyah,
    "aff1": lambda: build_aff1().algebroid,
    "semidirect3": lambda: build_semidirect(
        3, {(0, 1): {1: Fraction(1)}, (0, 2): {2: Fraction(1)}}, [0]).algebroid,
    "toda2-lam1-dual": lambda: dual_algebroid(build_toda(2).lam1),
    "toda3-lam0-dual": lambda: dual_algebroid(build_toda(3).lam0),
    "exp-frame": _exp_frame,
    "skewed4": _skewed4,
}


def _random_endo(A, rng, degree=2):
    """Entries random polynomials in the base variables, about a third of
    them zero: such an N almost never has vanishing torsion."""
    return Endo.from_matrix(A, [
        [ZERO if rng.random() < 0.3 else _random_poly(list(A.base_vars), rng, degree)
         for _ in range(A.rank)]
        for _ in range(A.rank)
    ])


def _nonzero_comps(section, label):
    A = section.algebroid
    return [(f"{label} component {A.frame[g]}", c)
            for g, c in enumerate(section.comps) if not c.is_zero()]


def reference_torsion_failures(N):
    """The torsion check's failures from ``torsion`` on each frame pair."""
    A = N.algebroid
    out = []
    for a, b in itertools.combinations(range(A.rank), 2):
        T = torsion(N, A.frame_section(a), A.frame_section(b))
        out += _nonzero_comps(T, f"torsion nonzero on ({A.frame[a]}, {A.frame[b]})")
    return out


def reference_concomitant_failures(P, N):
    """The concomitant check's failures from the structure of
    ``dual_algebroid(N P)`` and ``deformed_bracket`` of N* on the dual frame
    of ``dual_algebroid(P)``."""
    A = P.algebroid
    dual = dual_algebroid(P)
    N_star = Endo.from_matrix(dual, linalg.mat_transpose(N.mat))
    lhs = dual_algebroid(N.push_bivector(P))
    out = []
    for a, b in itertools.combinations(range(A.rank), 2):
        rhs = deformed_bracket(N_star, dual.frame_section(a), dual.frame_section(b))
        diff = dual.section(list(lhs.structure[a][b])) - rhs
        out += _nonzero_comps(diff, f"concomitant nonzero on dual pair ({A.frame[a]}, {A.frame[b]})")
    return out


@pytest.mark.parametrize("case", sorted(FRAME_TABLE_CASES))
def test_torsion_check_matches_the_torsion_of_each_frame_pair(case):
    A = FRAME_TABLE_CASES[case]()
    rng = random.Random(f"torsion/{case}")
    failing = 0
    for k in range(4):
        N = _random_endo(A, rng, degree=2 if k % 2 else 1)
        want = reference_torsion_failures(N)
        rep = torsion_check(N)
        assert rep.failures == want
        assert rep.ok == (not want)
        failing += bool(want)
    assert failing >= 3


@pytest.mark.parametrize("case", sorted(FRAME_TABLE_CASES))
def test_concomitant_check_matches_the_deformed_dual_bracket(case):
    A = FRAME_TABLE_CASES[case]()
    rng = random.Random(f"deformed-dual/{case}")
    failing = 0
    for k in range(3):
        P, N = _random_pn_pair(A, rng, degree=2 if k % 2 else 1)
        want = reference_concomitant_failures(P, N)
        rep = concomitant_check(P, N)
        assert rep.failures == want
        assert rep.ok == (not want)
        failing += bool(want)
    assert failing >= 2


def _scaled_identity(A, c):
    return Endo.from_matrix(
        A, [[Expr.number(c) if i == j else ZERO for j in range(A.rank)] for i in range(A.rank)])


TORSION_FREE_CASES = {
    "toda2": lambda: build_toda(2).N,
    "toda3": lambda: build_toda(3).N,
    "toda2-atiyah": lambda: build_toda(2).recursion_atiyah().exact(),
    "aff1-scaled": lambda: _scaled_identity(build_aff1().algebroid, 3),
    "exp-frame-scaled": lambda: _scaled_identity(_exp_frame(), -2),
}


@pytest.mark.parametrize("case", sorted(TORSION_FREE_CASES))
def test_deformed_algebroid_matches_the_deformed_bracket(case):
    N = TORSION_FREE_CASES[case]()
    A = N.algebroid
    B = deformed_algebroid(N)
    for a in range(A.rank):
        for b in range(A.rank):
            want = deformed_bracket(N, A.frame_section(a), A.frame_section(b))
            assert B.structure[a][b] == want.comps, (a, b)
        for i in range(A.dim):
            want = sum((N.mat[c][a] * A.anchor[c][i] for c in range(A.rank)), ZERO)
            assert B.anchor[a][i] == want


def test_deformed_algebroid_refuses_an_endomorphism_with_torsion():
    N = _random_endo(_exp_frame(), random.Random(7))
    want = reference_torsion_failures(N)
    assert want
    with pytest.raises(ExprError, match="cannot deform: " + re.escape(f"{want[0][0]}: residual")):
        deformed_algebroid(N)


def test_frame_verdicts_make_no_section_bracket_or_anchor_apply_call(monkeypatch):
    calls = []

    def refuse(name):
        return lambda *args: calls.append(name)

    for name in ("bracket", "anchor_apply"):
        monkeypatch.setattr(LieAlgebroid, name, refuse(name))
    toda = build_toda(2)
    assert torsion_check(toda.N).ok
    assert concomitant_check(toda.lam0, toda.N).ok
    assert deformed_algebroid(toda.N).check_algebroid().ok
    N = _random_endo(_exp_frame(), random.Random(5))
    assert not torsion_check(N).ok
    assert not FRAME_TABLE_CASES["skewed4"]().check_algebroid().ok
    P, N = _random_pn_pair(build_aff1().algebroid, random.Random(3))
    assert not concomitant_check(P, N).ok
    assert calls == []


# -- [xi, P] from frame tables against schouten_1r ---------------------------


def _random_bivector(A, rng, degree=2):
    return Bivector.from_entries(A, {
        (a, b): _random_poly(list(A.base_vars), rng, degree)
        for a in range(A.rank) for b in range(a + 1, A.rank) if rng.random() < 0.7
    })


@pytest.mark.parametrize("case", sorted(FRAME_TABLE_CASES))
def test_schouten_of_a_section_and_a_bivector_matches_the_frame_formula(case):
    from pnalgebroid.algebroid import Section
    from pnalgebroid.poisson import _schouten_frame, schouten_1r

    A = FRAME_TABLE_CASES[case]()
    rng = random.Random(f"schouten/{case}")
    nonzero = 0
    for k in range(3):
        degree = 2 if k % 2 else 1
        xi = Section(A, tuple(ZERO if rng.random() < 0.3
                              else _random_poly(list(A.base_vars), rng, degree)
                              for _ in range(A.rank)))
        P = _random_bivector(A, rng, degree)
        want = schouten_1r(xi, P)
        assert _schouten_frame(xi, P).mat == want.mat
        nonzero += not want.is_zero()
    assert nonzero >= 2


# -- what the frame verdicts build ----------------------------------------------


def test_concomitant_check_makes_no_dual_algebroid_or_from_tables_call(monkeypatch):
    from pnalgebroid import poisson

    calls = []

    def refuse(name):
        return lambda *args: calls.append(name)

    toda = build_toda(3)
    P, N = _random_pn_pair(build_aff1().algebroid, random.Random(3))
    monkeypatch.setattr(poisson, "dual_algebroid", refuse("dual_algebroid"))
    monkeypatch.setattr(LieAlgebroid, "from_tables", staticmethod(refuse("from_tables")))
    assert concomitant_check(toda.lam0, toda.N).ok
    assert not concomitant_check(P, N).ok
    assert calls == []


def _counting_frame_tables(monkeypatch):
    calls = []
    real = nijenhuis._frame_tables

    def counted(N):
        calls.append(N)
        return real(N)

    monkeypatch.setattr(nijenhuis, "_frame_tables", counted)
    return calls


def test_pn_check_builds_the_frame_tables_once_per_endomorphism(monkeypatch):
    calls = _counting_frame_tables(monkeypatch)
    toda = build_toda(3)
    N = Endo(toda.N.algebroid, toda.N.mat)
    assert pn_check(toda.lam0, N).ok
    assert len(calls) == 1
    assert pn_check(toda.lam1, N).ok
    assert len(calls) == 1
    assert pn_check(toda.lam0, Endo(toda.N.algebroid, toda.N.mat)).ok
    assert len(calls) == 2


def test_deformed_algebroid_builds_the_frame_tables_once(monkeypatch):
    calls = _counting_frame_tables(monkeypatch)
    toda = build_toda(3)
    B = deformed_algebroid(Endo(toda.N.algebroid, toda.N.mat))
    assert len(calls) == 1
    assert B.structure == deformed_algebroid(toda.N).structure


def test_pn_report_witness_names_the_first_failing_check():
    a = build_aff1()
    rep = pn_check(a.P, a.N)
    assert rep.poisson.ok and not rep.torsion.ok and not rep.ok
    assert rep.witness() == "[torsion] torsion nonzero on (xi2, eps2) component eps1: residual 1"
    assert pn_check(build_toda(2).lam0, build_toda(2).N).witness() is None


# -- metamorphic: N and N + cI give the same torsion and concomitant --------


@functools.cache
def _metamorphic_pair(case):
    if case == "toda3":
        t = build_toda(3)
        return t.lam0, t.N
    a = build_aff1()
    return a.P, a.N


@settings(max_examples=24, deadline=5000)
@given(case=st.sampled_from(["aff1", "toda3"]), rng=st.randoms(use_true_random=False),
       c=st.sampled_from([Fraction(2), Fraction(-3), Fraction(1, 2)]))
def test_shifting_n_by_a_constant_multiple_of_the_identity_moves_no_verdict(case, rng, c):
    """T_{N+cI} = T_N, and the concomitant is linear in N and zero at I, so
    the torsion, sharp-compatibility and concomitant verdicts, failure lists
    included, and the textbook torsion and concomitant are those of N."""
    from pnalgebroid.algebroid import Section

    P, N0 = _metamorphic_pair(case)
    A = P.algebroid
    r, xs = A.rank, list(A.base_vars)
    mat = [list(row) for row in N0.mat]
    if rng.random() < 0.5:
        # one or two entries moved: sharp compatibility almost always fails
        for _ in range(rng.randint(1, 2)):
            a, b = rng.randrange(r), rng.randrange(r)
            mat[a][b] = mat[a][b] + _random_poly(xs, rng, 2)
    else:
        # plus f I: N P stays a bivector, and a nonconstant f moves the concomitant
        f = _random_poly(xs, rng, 2)
        for a in range(r):
            mat[a][a] = mat[a][a] + f
    N = Endo.from_matrix(A, mat)
    shifted = Endo.from_matrix(A, [[e + Expr.number(c) if a == b else e
                                    for b, e in enumerate(row)] for a, row in enumerate(mat)])

    assert torsion_check(shifted).failures == torsion_check(N).failures
    compatible = sharp_commutes(P, N)
    assert sharp_commutes(P, shifted).failures == compatible.failures
    X, Y = (Section(A, tuple(_random_poly(xs, rng, 1) for _ in range(r))) for _ in range(2))
    assert torsion(shifted, X, Y) == torsion(N, X, Y)
    if compatible.ok:
        assert concomitant_check(P, shifted).failures == concomitant_check(P, N).failures
        alpha, beta = (A.one_form([_random_poly(xs, rng, 1) for _ in range(r)]) for _ in range(2))
        assert concomitant(P, shifted, alpha, beta).comps == concomitant(P, N, alpha, beta).comps


# -- metamorphic: P and cP give the same verdicts ----------------------------


@functools.cache
def _scaling_case(case):
    """(P0, P1, N): a Poisson pair and a Nijenhuis candidate for P0.  On aff1,
    P1 = N P is Poisson but not compatible with P, and the concomitant fails."""
    if case == "aff1":
        a = build_aff1()
        return a.P, a.N.push_bivector(a.P), a.N
    t = build_toda(int(case[-1]))
    return t.lam0, t.lam1, t.N


@pytest.mark.parametrize("c", [Fraction(-2, 3), Fraction(5), Fraction(1, 7)], ids=str)
@pytest.mark.parametrize("case", ["toda2", "toda3", "aff1"])
def test_scaling_p_by_a_nonzero_constant_moves_no_verdict(case, c):
    """[cP, cP] = c^2 [P, P], [cP0, P1] = c [P0, P1] and the concomitant is
    linear in P, so every Poisson, compatibility and PN verdict stays, and
    each failing concomitant component is c times that of P."""
    P0, P1, N = _scaling_case(case)
    k = Expr.number(c)
    cP0 = P0.map(lambda e: e * k)
    assert is_poisson(cP0).ok == is_poisson(P0).ok
    assert are_compatible(cP0, P1).ok == are_compatible(P0, P1).ok
    scaled, plain = pn_check(cP0, N), pn_check(P0, N)
    for name in ("poisson", "torsion", "compatible", "concomitant"):
        assert getattr(scaled, name).ok == getattr(plain, name).ok, name
    assert (scaled.ok, scaled.nondegenerate) == (plain.ok, plain.nondegenerate)
    if case == "aff1":
        assert plain.concomitant.failures
        assert scaled.concomitant.failures == [(msg, e * k) for msg, e in plain.concomitant.failures]


# -- the hierarchy against its modular shadow -------------------------------------

@pytest.mark.parametrize("n, perturbed", [(2, False), (3, False), (4, False),
                                          (2, True), (3, True)])
def test_hierarchy_residuals_vanish_where_their_modular_shadow_does(monkeypatch, n, perturbed):
    """Level by level and pair by pair, each exact residual of
    ``hierarchy_check`` is zero exactly when the textbook Poisson defect of
    N^l P (or of the pair's sum) is zero mod p, at two seeded points.  The
    levels mod p come from the jets of P and N by the product rule, so the
    shadow shares neither the arithmetic nor the grouping of the frame
    tables.  N + p1 I keeps N P antisymmetric but breaks the hierarchy."""
    from modular import Shadow, jet_matrix, jet_product, jet_sum, poisson_residuals_mod

    t = build_toda(n)
    P, N = t.lam0, t.N
    A = P.algebroid
    if perturbed:
        N = N + Endo.identity(A).map(lambda x: x * Expr.var("p1"))
    calls = []
    real = nijenhuis._bracket_check

    def record(pairs, *known):
        rep, residuals = real(pairs, *known)
        calls.append(residuals)
        return rep, residuals

    monkeypatch.setattr(nijenhuis, "_bracket_check", record)
    rep = hierarchy_check(P, N, 4)
    top = len(rep.levels)
    labels = [(l, l) for l in range(top)] + list(itertools.combinations(range(top), 2))
    assert len(calls) == len(labels)
    assert ([r.ok for _, r in rep.levels] + [r.ok for _, _, r in rep.pairwise]
            == [all(e.is_zero() for e in res) for res in calls])
    assert rep.ok != perturbed
    exprs = [e for m in (P.mat, N.mat, A.anchor) for row in m for e in row]
    exprs += [e for plane in A.structure for row in plane for e in row]
    for seed in (1, 2):
        shadow = Shadow(exprs, seed)
        nj = jet_matrix(shadow, N.mat, A.base_vars)
        chain = [jet_matrix(shadow, P.mat, A.base_vars)]
        while len(chain) < top:
            chain.append(jet_product(nj, chain[-1]))
        for (i, j), exact in zip(labels, calls):
            S = chain[i] if i == j else jet_sum(chain[i], chain[j])
            modular = poisson_residuals_mod(shadow, A, S)
            assert [e.is_zero() for e in exact] == [v == 0 for v in modular], (i, j, seed)
