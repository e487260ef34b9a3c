"""sympy as an independent oracle for the exact kernel: ring operations,
calculus, exact division, printing and det/adjugate, on hypothesis-drawn
expressions with non-integral rational coefficients and exponentials of
rational-affine forms.  Each drawn Expr is built next to its sympy mirror, so
the oracle never reads our own printer to learn what an operand is."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from pnalgebroid import linalg  # noqa: E402
from pnalgebroid.expr import Expr, ZERO, div_exact, parse  # noqa: E402

VARS = ["x", "y", "z"]
SYM = {v: sympy.Symbol(v) for v in VARS}

rationals = st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=5)


def _q(c: Fraction):
    return sympy.Rational(c.numerator, c.denominator)


@st.composite
def pairs(draw, max_terms=3):
    """An Expr and the same expression built in sympy."""
    e, s = ZERO, sympy.Integer(0)
    for _ in range(draw(st.integers(0, max_terms))):
        c = draw(rationals)
        t, ts = Expr.number(c), _q(c)
        for v in draw(st.lists(st.sampled_from(VARS), max_size=2)):
            t, ts = t * Expr.var(v), ts * SYM[v]
        if draw(st.booleans()):
            k0 = draw(rationals)
            lin, lins = Expr.number(k0), _q(k0)
            for v in draw(st.lists(st.sampled_from(VARS), max_size=2, unique=True)):
                k = draw(rationals)
                lin, lins = lin + Expr.number(k) * Expr.var(v), lins + _q(k) * SYM[v]
            t, ts = t * Expr.exp_of(lin), ts * sympy.exp(lins)
        e, s = e + t, s + ts
    return e, s


def to_sympy(e: Expr):
    return sympy.sympify(str(e).replace("^", "**"), locals=SYM)


def same(a, b) -> bool:
    """Exact equality in sympy: expand, then merge products of exponentials."""
    d = sympy.expand(a - b, power_exp=False)
    return sympy.powsimp(d, combine="exp") == 0


@settings(max_examples=40, deadline=None)
@given(pairs(), pairs())
def test_add_sub_mul_match_sympy(a, b):
    (ea, sa), (eb, sb) = a, b
    assert same(to_sympy(ea), sa)
    assert same(to_sympy(ea + eb), sa + sb)
    assert same(to_sympy(ea - eb), sa - sb)
    assert same(to_sympy(ea * eb), sa * sb)


@settings(max_examples=60, deadline=None)
@given(pairs(), st.sampled_from(VARS))
def test_diff_matches_sympy(a, v):
    e, s = a
    assert same(to_sympy(e.diff(v)), sympy.diff(s, SYM[v]))


@settings(max_examples=40, deadline=None)
@given(pairs(), rationals, rationals, st.sampled_from(VARS), st.sampled_from(VARS))
def test_affine_substitute_matches_sympy(a, k, k0, v, w):
    e, s = a
    img = Expr.number(k) * Expr.var(w) + Expr.number(k0)
    got = e.substitute({v: img})
    assert same(to_sympy(got), s.subs(SYM[v], _q(k) * SYM[w] + _q(k0)))


@settings(max_examples=40, deadline=None)
@given(pairs(), pairs())
def test_div_exact_inverts_mul(a, b):
    (ea, sa), (eb, sb) = a, b
    if eb.is_zero():
        return
    q = div_exact(ea * eb, eb)
    assert q == ea
    assert same(to_sympy(q) * sb, sa * sb)


@settings(max_examples=60, deadline=None)
@given(pairs())
def test_parse_str_roundtrip_is_exact(a):
    e, s = a
    assert parse(str(e)) == e
    assert same(to_sympy(parse(str(e))), s)


@pytest.mark.parametrize("n, max_terms", ((3, 2), (4, 1)))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_det_and_adjugate_match_sympy(n, max_terms, data):
    cells = [[data.draw(pairs(max_terms)) for _ in range(n)] for _ in range(n)]
    m = [[e for e, _ in row] for row in cells]
    ms = sympy.Matrix([[s for _, s in row] for row in cells])
    d = linalg.det(m)
    assert same(to_sympy(d), ms.det(method="berkowitz"))
    adj = linalg.adjugate(m)
    adj_s = ms.adjugate(method="berkowitz")
    for i in range(n):
        for j in range(n):
            assert same(to_sympy(adj[i][j]), adj_s[i, j])
    if not d.is_zero():
        inv = linalg.inverse_pair(m)
        assert inv.den == d and inv.num == adj
