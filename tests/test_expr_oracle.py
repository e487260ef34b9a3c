"""sympy as an independent oracle for the exact kernel: ring operations,
calculus, exact division, printing and det/adjugate, on hypothesis-drawn
expressions with non-integral rational coefficients and exponentials of
rational-affine forms.  Each drawn Expr is built next to its sympy mirror, so
the oracle never reads our own printer to learn what an operand is."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from pnalgebroid import expr, linalg  # noqa: E402
from pnalgebroid.expr import Expr, ZERO, div_exact, dot, parse  # noqa: E402
from pnalgebroid.fixtures import build_toda  # noqa: E402

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


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(pairs(), pairs()), max_size=4))
def test_dot_matches_sympy_sum_of_products(factors):
    got = dot((ea, eb) for (ea, _), (eb, _) in factors)
    assert same(to_sympy(got), sum((sa * sb for (_, sa), (_, sb) in factors), sympy.Integer(0)))
    assert got == sum((ea * eb for (ea, _), (eb, _) in factors), ZERO)


@settings(max_examples=60, deadline=None)
@given(rationals, pairs())
def test_constant_factor_scales_as_the_generic_product(k, a):
    e, _ = a
    c = Expr.number(k)
    generic = dot([(c, e)])  # dot always runs the term-by-term product
    for got in (c * e, e * c):
        assert got.terms == generic.terms
        assert all(type(t[2]) is int for t in got.terms if t[2].denominator == 1)
    x = Expr.number(Fraction(1, 2)) * parse("2*x")
    assert x.terms == (((("x", 1),), (), 1),) and type(x.terms[0][2]) is int


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


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 3), st.integers(1, 3), st.integers(0, 3), st.data())
def test_mat_mul_matches_sympy(n, k, m, data):
    a = [[data.draw(pairs(2)) for _ in range(k)] for _ in range(n)]
    b = [[data.draw(pairs(2)) for _ in range(m)] for _ in range(k)]
    got = linalg.mat_mul([[e for e, _ in row] for row in a], [[e for e, _ in row] for row in b])
    assert len(got) == n and all(len(row) == m for row in got)
    a_s = sympy.Matrix(n, k, [s for row in a for _, s in row])
    b_s = sympy.Matrix(k, m, [s for row in b for _, s in row])
    want = a_s * b_s
    for i in range(n):
        for j in range(m):
            assert same(to_sympy(got[i][j]), want[i, j])


# -- the memo tables of key products and derivatives ---------------------------
#
# They only memoise: clearing them, even after every few entries, must change
# no result.

def fresh_tables(mp, bound=None) -> None:
    """Empty product and derivative tables, and the bound if given, for the
    life of the monkeypatch ``mp``."""
    mp.setattr(expr, "_PROD", {})
    mp.setattr(expr, "_DIFF", {})
    mp.setattr(expr, "_entries", 0)
    if bound is not None:
        mp.setattr(expr, "_TABLE_BOUND", bound)


def under_bound(bound, compute):
    """``compute()`` with fresh tables under ``bound`` (None: the default),
    and the number of memo entries it stored."""
    with pytest.MonkeyPatch.context() as mp:
        fresh_tables(mp, bound)
        stored = []
        entry = expr._memo_entry
        mp.setattr(expr, "_memo_entry", lambda: stored.append(1) or entry())
        got = compute()
        assert expr._entries <= (bound or expr._TABLE_BOUND)
        return got, len(stored)


def kernel_results(a: Expr, b: Expr, m, v: str, k: Fraction) -> list:
    """The terms of every kernel operation the oracle tests above check."""
    out = [a + b, a - b, a * b, b * a, Expr.number(k) * a, dot([(a, b), (b, a)]),
           a.diff(v), a.substitute({v: Expr.number(k) * Expr.var("y") + Expr.number(k)}),
           parse(str(a)), linalg.det(m)]
    out += [e for row in linalg.adjugate(m) for e in row]
    out += [e for row in linalg.mat_mul(m, m) for e in row]
    if not b.is_zero():
        out.append(div_exact(a * b, b))
    return [e.terms for e in out]


@settings(max_examples=40, deadline=None)
@given(pairs(), pairs(), st.sampled_from(VARS), rationals, st.data())
def test_a_tiny_memo_bound_changes_no_kernel_result(a, b, v, k, data):
    (ea, _), (eb, _) = a, b
    m = [[data.draw(pairs(2))[0] for _ in range(3)] for _ in range(3)]
    want, _ = under_bound(None, lambda: kernel_results(ea, eb, m, v, k))
    got, _ = under_bound(4, lambda: kernel_results(ea, eb, m, v, k))
    assert got == want


def test_a_tiny_memo_bound_keeps_det_and_adjugate_on_toda3():
    t = build_toda(3)

    def results():
        out = []
        for mat in (t.N.mat, t.pi1.mat, t.lam1.mat):
            out.append(linalg.det(mat).terms)
            out.append([e.terms for row in linalg.adjugate(mat) for e in row])
        return out

    want, stored = under_bound(None, results)
    got, _ = under_bound(4, results)
    assert got == want
    assert stored > 4  # so the tiny bound emptied the tables


def test_each_distinct_key_product_is_computed_once(monkeypatch):
    x, y = Expr.var("x"), Expr.var("y")
    a = sum((Expr.number(e) * x ** e for e in range(1, 21)), ZERO)
    b = sum((y ** e * Expr.exp_of(Expr.number(e) * x) for e in range(1, 21)), ZERO)
    assert len(a.terms) == len(b.terms) == 20
    fresh_tables(monkeypatch)
    misses = []
    miss = expr._product
    monkeypatch.setattr(expr, "_product", lambda i, j, row: misses.append((i, j)) or miss(i, j, row))
    want = a * b
    assert len(misses) == len(set(misses)) == 400
    assert a * b == want and dot([(a, b)] * 3) == 3 * want
    assert len(misses) == 400
