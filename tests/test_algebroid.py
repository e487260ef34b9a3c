"""Bracket/anchor axioms, the Koszul differential and the Cartan calculus."""

import dataclasses
import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pnalgebroid.expr import Expr, parse, ZERO, ONE
from pnalgebroid.algebroid import (
    LieAlgebroid, Section, KForm, d_A, interior, lie_derivative, zero_form,
)
from pnalgebroid.fixtures import build_aff1, build_semidirect, build_toda
from pnalgebroid.poisson import dual_algebroid


def random_section(A, rng):
    return Section(
        A,
        tuple(
            Expr.number(rng.randint(-2, 2))
            + Expr.number(rng.randint(-1, 1)) * Expr.var(rng.choice(list(A.base_vars)))
            for _ in range(A.rank)
        ),
    )


def random_one_form(A, rng):
    comps = {}
    for a in range(A.rank):
        c = Expr.number(rng.randint(-2, 2)) * Expr.var(rng.choice(list(A.base_vars)))
        if not c.is_zero():
            comps[(a,)] = c
    return KForm(A, 1, comps)


@pytest.fixture
def nonabelian():
    # rank 3 over a 2-dimensional base, nontrivial structure and anchor
    return LieAlgebroid.from_tables(
        ["u", "v"],
        ["e1", "e2", "e3"],
        [[ONE, ZERO], [ZERO, ONE], [ZERO, ZERO]],
        {(0, 1): {2: parse("u")}},
    )


def test_tangent_algebroid_passes_axioms():
    A = LieAlgebroid.tangent(["x", "y"])
    assert A.check_algebroid().ok


def test_nonabelian_fixture_consistency(nonabelian):
    rep = nonabelian.check_algebroid()
    assert rep.ok, rep.witness()


def test_bracket_leibniz(nonabelian):
    rng = random.Random(11)
    A = nonabelian
    for _ in range(5):
        X, Y = random_section(A, rng), random_section(A, rng)
        f = Expr.var("u") * Expr.number(rng.randint(1, 3))
        lhs = A.bracket(X, Y.scale(f))
        rhs = A.bracket(X, Y).scale(f) + Y.scale(A.anchor_apply(X, f))
        assert (lhs - rhs).is_zero()


def test_d_squared_zero_on_functions_and_forms(nonabelian):
    rng = random.Random(7)
    A = nonabelian
    f = parse("u*v + 2*u")
    assert d_A(A, d_A(A, f)).is_zero()
    for _ in range(5):
        alpha = random_one_form(A, rng)
        assert d_A(A, d_A(A, alpha)).is_zero()


def test_structure_constants_in_d_of_dual_frame(nonabelian):
    A = nonabelian
    # d theta^g (e_a, e_b) = -C_ab^g
    for g in range(A.rank):
        dth = d_A(A, A.dual_frame_form(g))
        for a in range(A.rank):
            for b in range(a + 1, A.rank):
                got = dth(A.frame_section(a), A.frame_section(b))
                want = -A.structure[a][b][g]
                assert (got - want).is_zero()


def test_cartan_magic_formula(nonabelian):
    rng = random.Random(3)
    A = nonabelian
    for _ in range(4):
        X = random_section(A, rng)
        alpha = random_one_form(A, rng)
        lhs = lie_derivative(X, alpha)
        rhs = interior(X, d_A(A, alpha)) + d_A(A, interior(X, alpha))
        assert (lhs - rhs).is_zero()


def test_lie_derivative_bracket_identity(nonabelian):
    # L_X i_Y - i_Y L_X = i_[X,Y] on one-forms
    rng = random.Random(5)
    A = nonabelian
    for _ in range(4):
        X, Y = random_section(A, rng), random_section(A, rng)
        alpha = d_A(A, random_one_form(A, rng))  # a 2-form
        lhs = lie_derivative(X, interior(Y, alpha)) - interior(
            Y, lie_derivative(X, alpha)
        )
        rhs = interior(A.bracket(X, Y), alpha)
        assert (lhs - rhs).is_zero()


def test_jacobi_violation_is_caught_and_matches_d_squared():
    # structure constants violating Jacobi (anchor identically zero, so the
    # anchor-morphism condition holds trivially)
    A = LieAlgebroid.from_tables(
        ["u", "v"],
        ["e1", "e2", "e3"],
        [[ZERO, ZERO], [ZERO, ZERO], [ZERO, ZERO]],
        {(0, 1): {2: parse("1")}, (1, 2): {1: parse("1")}},
    )
    rep = A.check_algebroid()
    assert not rep.ok
    assert rep.witness() is not None
    # and a degree-1 form witnesses d^2 != 0
    some_bad = any(
        not d_A(A, d_A(A, A.dual_frame_form(g))).is_zero() for g in range(A.rank)
    )
    assert some_bad


def test_wedge_and_form_evaluation():
    A = LieAlgebroid.tangent(["x", "y"])
    dx, dy = A.dual_frame_form(0), A.dual_frame_form(1)
    om = dx.wedge(dy)
    X, Y = A.frame_section(0), A.frame_section(1)
    assert (om(X, Y) - ONE).is_zero()
    assert (om(Y, X) + ONE).is_zero()
    assert (dx.wedge(dx)).is_zero()


# -- the sparse, cached calculus path against the direct formulas ------------


def reference_anchor_apply(A, X, f):
    """rho(X)(f) as the plain triple sum over (a, i)."""
    out = ZERO
    for a in range(A.rank):
        if X.comps[a].is_zero():
            continue
        for i, v in enumerate(A.base_vars):
            out = out + X.comps[a] * A.anchor[a][i] * f.diff(v)
    return out


def reference_d_A(A, omega):
    """Koszul formula over every frame element and structure entry."""
    if isinstance(omega, Expr):
        return A.one_form(
            [reference_anchor_apply(A, A.frame_section(a), omega) for a in range(A.rank)]
        )
    k = omega.degree
    d = {}
    for idx in itertools.combinations(range(A.rank), k + 1):
        val = ZERO
        for i in range(k + 1):
            inner = omega.entry(idx[:i] + idx[i + 1 :])
            if not inner.is_zero():
                term = reference_anchor_apply(A, A.frame_section(idx[i]), inner)
                val = val + (term if i % 2 == 0 else -term)
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                rest = tuple(x for t, x in enumerate(idx) if t != i and t != j)
                for g in range(A.rank):
                    c = A.structure[idx[i]][idx[j]][g]
                    inner = omega.entry((g,) + rest)
                    if c.is_zero() or inner.is_zero():
                        continue
                    term = c * inner
                    val = val + (term if (i + j) % 2 == 0 else -term)
        if not val.is_zero():
            d[idx] = val
    return KForm(A, k + 1, d)


def random_expr(A, rng):
    """A few terms c * x^m * y^n * exp(k x) in the base variables (may be 0)."""
    out = ZERO
    for _ in range(rng.randint(0, 3)):
        x, y = rng.choice(A.base_vars), rng.choice(A.base_vars)
        t = Expr.number(rng.randint(-3, 3)) * Expr.var(x) ** rng.randint(0, 2)
        t = t * Expr.var(y) ** rng.randint(0, 1)
        if rng.random() < 0.3:
            t = t * Expr.exp_of(Expr.number(rng.randint(-1, 1)) * Expr.var(x))
        out = out + t
    return out


def random_form(A, degree, rng):
    comps = {}
    for idx in itertools.combinations(range(A.rank), degree):
        if rng.random() < 0.6:
            c = random_expr(A, rng)
            if not c.is_zero():
                comps[idx] = c
    return KForm(A, degree, comps)


def skewed_algebroid():
    # non-constant anchor and structure entries (not a Lie algebroid: the
    # formulas are compared as formulas)
    x, y = Expr.var("x"), Expr.var("y")
    return LieAlgebroid.from_tables(
        ["x", "y"],
        ["e1", "e2", "e3"],
        [[x, ONE], [ZERO, y * Expr.exp_of(x)], [ZERO, ZERO]],
        {(0, 1): {2: x}, (0, 2): {0: y, 2: ONE}, (1, 2): {1: x * y}},
    )


CALCULUS_CASES = {
    "toda3-atiyah": lambda: build_toda(3).atiyah,
    "aff1": lambda: build_aff1().algebroid,
    "tangent": lambda: LieAlgebroid.tangent(["x", "y", "z"]),
    "skewed": skewed_algebroid,
}


@pytest.mark.parametrize("case", sorted(CALCULUS_CASES))
def test_anchor_apply_and_d_A_match_the_direct_formulas(case):
    A = CALCULUS_CASES[case]()
    rng = random.Random(sorted(CALCULUS_CASES).index(case))
    for _ in range(6):
        X = Section(A, tuple(random_expr(A, rng) for _ in range(A.rank)))
        f = random_expr(A, rng)
        assert A.anchor_apply(X, f).terms == reference_anchor_apply(A, X, f).terms
        assert d_A(A, f).comps == reference_d_A(A, f).comps
        for degree in (0, 1, 2):
            omega = random_form(A, degree, rng)
            got, want = d_A(A, omega), reference_d_A(A, omega)
            assert got.degree == want.degree
            assert got.comps == want.comps


RHO_ROW_CASES = {
    "aff1": lambda: build_aff1().algebroid,
    "toda3-atiyah": lambda: build_toda(3).atiyah,
    "toda3-flaschka": lambda: build_toda(3).flaschka,
    "tangent": lambda: LieAlgebroid.tangent(["x", "y", "z"]),
    "skewed": skewed_algebroid,
}


@functools.cache
def rho_row_case(case):
    return RHO_ROW_CASES[case]()


@st.composite
def base_functions(draw, A):
    """Zero, a constant, a pure exponential or a few general terms, over the
    base variables of ``A`` and ``w``, which no anchor row reads."""
    names = list(A.base_vars) + ["w"]
    shape = draw(st.sampled_from(["zero", "constant", "exponential", "general"]))
    if shape == "zero":
        return ZERO
    c = Expr.number(Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 3))))
    if shape == "constant":
        return c
    out = ZERO
    for _ in range(1 if shape == "exponential" else draw(st.integers(1, 3))):
        t = c if shape == "exponential" else Expr.number(draw(st.integers(-3, 3)))
        if shape == "general":
            for v in draw(st.lists(st.sampled_from(names), max_size=2)):
                t = t * Expr.var(v) ** draw(st.integers(1, 2))
        if shape == "exponential" or draw(st.booleans()):
            arg = Expr.number(draw(st.integers(-1, 1)))
            for v in draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True)):
                arg = arg + Expr.number(Fraction(draw(st.integers(-2, 2)), 2)) * Expr.var(v)
            t = t * Expr.exp_of(arg)
        out = out + t
    return out


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("case", sorted(RHO_ROW_CASES))
def test_rho_row_is_the_anchor_times_the_partials(case, data):
    A = rho_row_case(case)
    f = data.draw(base_functions(A))
    got = dict(A._rho_row(f))
    assert all(not v.is_zero() for v in got.values())
    for a in range(A.rank):
        want = ZERO
        for v, rho in zip(A.base_vars, A.anchor[a]):
            want = want + rho * f.diff(v)
        assert got.get(a, ZERO) == want, (a, str(f))


def test_cached_rows_leave_equality_and_hash_alone():
    A, B = skewed_algebroid(), skewed_algebroid()
    before = hash(A)
    d_A(A, d_A(A, parse("x*y")))  # fills the cached rows of A only
    assert "_anchor_rows" in vars(A) and "_anchor_rows" not in vars(B)
    assert A == B and hash(A) == before == hash(B)


def test_replace_gets_fresh_rows():
    A = skewed_algebroid()
    f = parse("x^2*y")
    X = A.frame_section(0)
    assert not A.anchor_apply(X, f).is_zero()
    zero_anchor = tuple(tuple(ZERO for _ in row) for row in A.anchor)
    B = dataclasses.replace(A, anchor=zero_anchor)
    assert B._anchor_rows == ((), (), ())
    assert B.anchor_apply(B.frame_section(0), f).is_zero()
    assert A.anchor_apply(X, f).terms == reference_anchor_apply(A, X, f).terms


def test_adding_zero_returns_the_other_operand():
    a = parse("x^2*exp(y) - 3/2*y + 1")
    assert (a + ZERO).terms == a.terms
    assert (ZERO + a).terms == a.terms
    assert (a + 0).terms == a.terms
    assert (0 + a).terms == a.terms
    assert (ZERO + ZERO).terms == ()


D_A_CASES = {
    "toda3": lambda: build_toda(3).tangent,
    "toda2-atiyah": lambda: build_toda(2).atiyah,
    "toda5-atiyah": lambda: build_toda(5).atiyah,
    "aff1": lambda: build_aff1().algebroid,
    "skewed": skewed_algebroid,
}


@pytest.mark.parametrize("case", sorted(D_A_CASES))
def test_d_A_matches_the_reference_on_dense_and_one_component_forms(case):
    """d_A against the walk over every (k+1)-subset: the same components in
    the same order, on dense random forms and on one-component forms."""
    A = D_A_CASES[case]()
    rng = random.Random(sorted(D_A_CASES).index(case))
    forms = [random_form(A, degree, rng) for degree in (1, 2, 3) for _ in range(2)]
    for degree in (1, 2):
        for idx in rng.sample(list(itertools.combinations(range(A.rank), degree)), 3):
            forms.append(KForm(A, degree, {idx: random_expr(A, rng) + ONE}))
    for omega in forms:
        got, want = d_A(A, omega), reference_d_A(A, omega)
        assert list(got.comps) == list(want.comps)
        assert [e.terms for e in got.comps.values()] == [e.terms for e in want.comps.values()]


# -- check_algebroid's frame tables against nested section brackets ----------


def reference_algebroid_failures(A):
    """check_algebroid's failures from sections: the anchor of [e_a, e_b]
    against the commutator of the anchors, then the cyclic sum of the nested
    brackets [e_a, [e_b, e_c]] on each frame triple."""
    out = []
    e = [A.frame_section(a) for a in range(A.rank)]
    for a, b in itertools.combinations(range(A.rank), 2):
        br = A.bracket(e[a], e[b])
        for i in range(A.dim):
            lhs = sum((c * A.anchor[g][i] for g, c in enumerate(br.comps)), ZERO)
            rhs = A.anchor_apply(e[a], A.anchor[b][i]) - A.anchor_apply(e[b], A.anchor[a][i])
            if not (lhs - rhs).is_zero():
                out.append((f"anchor morphism fails on ({A.frame[a]}, {A.frame[b]}) "
                            f"component {A.base_vars[i]}", lhs - rhs))
    for a, b, c in itertools.combinations(range(A.rank), 3):
        jac = (A.bracket(e[a], A.bracket(e[b], e[c]))
               + A.bracket(e[b], A.bracket(e[c], e[a]))
               + A.bracket(e[c], A.bracket(e[a], e[b])))
        out += [(f"Jacobi fails on ({A.frame[a]}, {A.frame[b]}, {A.frame[c]}) "
                 f"component {A.frame[g]}", t)
                for g, t in enumerate(jac.comps) if not t.is_zero()]
    return out


def random_tables(A, rng):
    """Random anchor and structure tables on the base and frame of A; the
    result is almost never a Lie algebroid."""
    anchor = [[random_expr(A, rng) if rng.random() < 0.5 else ZERO for _ in A.base_vars]
              for _ in A.frame]
    structure = {
        (a, b): {g: random_expr(A, rng) for g in range(A.rank) if rng.random() < 0.4}
        for a, b in itertools.combinations(range(A.rank), 2) if rng.random() < 0.6
    }
    return LieAlgebroid.from_tables(list(A.base_vars), list(A.frame), anchor, structure)


JACOBI_CASES = {
    "toda3": lambda: build_toda(3).tangent,
    "toda3-atiyah": lambda: build_toda(3).atiyah,
    "aff1": lambda: build_aff1().algebroid,
    "semidirect3": lambda: build_semidirect(
        3, {(0, 1): {1: Fraction(1)}, (0, 2): {2: Fraction(1)}}, [0]).algebroid,
    "toda2-lam1-dual": lambda: dual_algebroid(build_toda(2).lam1),
    "toda3-lam0-dual": lambda: dual_algebroid(build_toda(3).lam0),
    "skewed": skewed_algebroid,
}


@pytest.mark.parametrize("case", sorted(JACOBI_CASES))
def test_check_algebroid_matches_nested_brackets(case):
    A = JACOBI_CASES[case]()
    rng = random.Random(f"jacobi/{case}")
    algebroids = [A] + [random_tables(A, rng) for _ in range(4)]
    failing = 0
    for B in algebroids:
        want = reference_algebroid_failures(B)
        rep = B.check_algebroid()
        assert rep.failures == want
        assert rep.ok == (not want)
        failing += any(msg.startswith("Jacobi") for msg, _ in want)
    assert failing >= 3
