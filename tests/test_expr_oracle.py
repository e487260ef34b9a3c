"""sympy as an independent oracle for the exact kernel: ring operations,
calculus, exact division, printing and det/adjugate, on hypothesis-drawn
expressions with non-integral rational coefficients and exponentials of
rational-affine forms.  Each drawn Expr is built next to its sympy mirror, so
the oracle never reads our own printer to learn what an operand is.  A
second oracle, a dict from term key to Fraction, checks the stored form:
int numerators over one denominator."""

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from pnalgebroid import expr, linalg  # noqa: E402
from pnalgebroid.expr import Expr, ONE, ZERO, div_exact, dot, parse  # noqa: E402
from pnalgebroid.fixtures import build_toda  # noqa: E402

VARS = ["x", "y", "z"]
SYM = {v: sympy.Symbol(v) for v in VARS}

rationals = st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=5)


def _q(c: Fraction):
    return sympy.Rational(c.numerator, c.denominator)


@st.composite
def pairs(draw, max_terms=3, laurent=False):
    """An Expr and the same expression built in sympy; with ``laurent``, a
    variable factor may come with exponent -1."""
    e, s = ZERO, sympy.Integer(0)
    for _ in range(draw(st.integers(0, max_terms))):
        c = draw(rationals)
        t, ts = Expr.number(c), _q(c)
        for v in draw(st.lists(st.sampled_from(VARS), max_size=2)):
            k = -1 if laurent and draw(st.booleans()) else 1
            t, ts = t * Expr.var(v) ** k, ts * SYM[v] ** k
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


@settings(max_examples=40, deadline=None)
@given(pairs(laurent=True), pairs(laurent=True), st.sampled_from(VARS))
def test_laurent_terms_match_sympy(a, b, v):
    (ea, sa), (eb, sb) = a, b
    assert same(to_sympy(ea * eb - ea), sa * sb - sa)
    assert same(to_sympy(ea.diff(v)), sympy.diff(sa, SYM[v]))
    assert parse(str(ea)) == ea
    if not eb.is_zero():
        assert div_exact(ea * eb, eb) == ea


def test_division_with_a_negative_exponent_in_the_quotient():
    x, y = SYM["x"], SYM["y"]
    q = div_exact(parse("(x + y^2)*(x^-1 + y)"), parse("x + y^2"))
    assert q == parse("x^-1 + y")
    assert same(to_sympy(q), 1 / x + y)


def test_division_with_no_laurent_quotient_raises():
    # x^2 + 1 = (x + 1)(x - 1) + 2 and x + 1 is no unit, so no Laurent
    # polynomial q has q (x + 1) = x^2 + 1
    x = SYM["x"]
    assert sympy.denom(sympy.cancel((x**2 + 1) / (x + 1))) == x + 1
    with pytest.raises(expr.ExprError, match="no quotient in class"):
        div_exact(parse("x^2 + 1"), parse("x + 1"))


def test_a_negative_exponent_parses_and_prints_back():
    e = parse("a2^-1")
    assert str(e) == "a2^-1"
    assert parse(str(e)) == e
    assert same(to_sympy(e), 1 / sympy.Symbol("a2"))
    assert parse("a1*a2^-1*b1 - a1*a2^-1*b2") * parse("a2") == parse("a1*b1 - a1*b2")
    with pytest.raises(expr.ExprSyntaxError):
        parse("a2^(-1)")


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


# -- the stored form against a dict-of-Fraction reference ----------------------
#
# An Expr stores int numerators over one denominator.  The reference below is
# the plain form: a dict from (mono, lin) to a Fraction coefficient, with
# every operation written out term by term.  Coefficients and linear parts
# carry mixed denominators, so results need a common denominator, and
# cancellation must reduce it again.

coeffs = st.fractions(min_value=Fraction(-4), max_value=Fraction(4),
                      max_denominator=12).filter(bool)
lin_coeffs = st.fractions(min_value=Fraction(-2), max_value=Fraction(2),
                          max_denominator=3).filter(bool)


def _q(c):
    """A rational in the stored form of linear-part coefficients."""
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _lin(d: dict) -> tuple:
    return tuple(sorted((v, _q(c)) for v, c in d.items() if c))


def _clean(d: dict) -> dict:
    return {k: Fraction(c) for k, c in d.items() if c}


@st.composite
def refs(draw, max_terms=4):
    """A reference expression: {(mono, lin): Fraction}."""
    d = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = draw(st.dictionaries(st.sampled_from(VARS), st.integers(1, 2), max_size=2))
        lin = {}
        if draw(st.booleans()):
            lin = draw(st.dictionaries(st.sampled_from([""] + VARS), lin_coeffs, max_size=2))
        key = (tuple(sorted(mono.items())), _lin(lin))
        d[key] = d.get(key, 0) + draw(coeffs)
    return _clean(d)


def built(r: dict) -> Expr:
    """The reference expression as an Expr, from its terms."""
    return Expr([(m, l, c) for (m, l), c in r.items()])


def built_by_arithmetic(r: dict) -> Expr:
    """The reference expression as an Expr, from numbers, variables and
    exponentials."""
    out = ZERO
    for (m, l), c in r.items():
        t = Expr.number(c)
        for v, e in m:
            t = t * Expr.var(v) ** e
        if l:
            arg = sum((Expr.number(k) * (Expr.var(v) if v else ONE) for v, k in l), ZERO)
            t = t * Expr.exp_of(arg)
        out = out + t
    return out


def ref_of(e: Expr) -> dict:
    return {(m, l): Fraction(c) for m, l, c in e.terms}


def r_add(a: dict, b: dict, sign: int = 1) -> dict:
    d = dict(a)
    for k, c in b.items():
        d[k] = d.get(k, 0) + sign * c
    return _clean(d)


def r_mul(a: dict, b: dict) -> dict:
    d = {}
    for (m1, l1), c1 in a.items():
        for (m2, l2), c2 in b.items():
            m, l = dict(m1), dict(l1)
            for v, e in m2:
                m[v] = m.get(v, 0) + e
            for v, k in l2:
                l[v] = l.get(v, 0) + k
            key = (tuple(sorted(m.items())), _lin(l))
            d[key] = d.get(key, 0) + c1 * c2
    return _clean(d)


def r_pow(a: dict, n: int) -> dict:
    out = {((), ()): Fraction(1)}
    for _ in range(n):
        out = r_mul(out, a)
    return out


def r_diff(a: dict, v: str) -> dict:
    d = {}
    for (m, l), c in a.items():
        md = dict(m)
        e = md.pop(v, 0)
        if e:
            if e > 1:
                md[v] = e - 1
            key = (tuple(sorted(md.items())), l)
            d[key] = d.get(key, 0) + c * e
        lv = dict(l).get(v, 0)
        if lv:
            d[(m, l)] = d.get((m, l), 0) + c * lv
    return _clean(d)


def r_substitute(a: dict, v: str, k: Fraction, w: str, k0: Fraction) -> dict:
    """v -> k*w + k0 in every term."""
    image = _clean({(((w, 1),), ()): k, ((), ()): k0})
    out = {}
    for (m, l), c in a.items():
        t = {((), ()): c}
        for u, e in m:
            t = r_mul(t, r_pow(image, e) if u == v else {(((u, e),), ()): Fraction(1)})
        ld = dict(l)
        lv = ld.pop(v, 0)
        ld[w] = ld.get(w, 0) + lv * k
        ld[""] = ld.get("", 0) + lv * k0
        out = r_add(out, r_mul(t, {((), _lin(ld)): Fraction(1)}))
    return out


def assert_stored_form(e: Expr) -> None:
    """The denominator is a positive int sharing no factor with all the
    numerators, each a nonzero int; zero is the empty table over 1."""
    t, den = e._t, e._d
    assert type(den) is int and den >= 1
    assert all(type(c) is int and c for c in t.values())
    assert math.gcd(den, *t.values()) == 1
    if not t:
        assert den == 1


@settings(max_examples=80, deadline=None)
@given(refs(), refs(), coeffs)
def test_ring_operations_match_the_fraction_reference(ra, rb, k):
    a, b = built(ra), built(rb)
    got = {"a": a, "a+b": a + b, "a-b": a - b, "b-a": b - a, "a*b": a * b, "-a": -a,
           "k*a": Expr.number(k) * a, "a*k": a * k, "a+k": a + k, "k-a": k - a,
           "dot": dot([(a, b), (b, a), (a, a)]), "a^3": a ** 3, "a-a": a - a}
    kr = {((), ()): k}
    want = {"a": ra, "a+b": r_add(ra, rb), "a-b": r_add(ra, rb, -1), "b-a": r_add(rb, ra, -1),
            "a*b": r_mul(ra, rb), "-a": r_add({}, ra, -1), "k*a": r_mul(kr, ra),
            "a*k": r_mul(ra, kr), "a+k": r_add(ra, kr), "k-a": r_add(kr, ra, -1),
            "dot": r_add(r_add(r_mul(ra, rb), r_mul(rb, ra)), r_mul(ra, ra)),
            "a^3": r_pow(ra, 3), "a-a": {}}
    for name, e in got.items():
        assert ref_of(e) == want[name], name
        assert_stored_form(e)


@st.composite
def shaped_refs(draw):
    """A reference expression of one of the shapes a product treats apart:
    empty, a nonzero constant, one term, or any."""
    shape = draw(st.sampled_from(["empty", "constant", "one-term", "general"]))
    if shape == "empty":
        return {}
    if shape == "constant":
        return {((), ()): draw(coeffs)}
    if shape == "one-term":
        return draw(refs(1).filter(lambda r: len(r) == 1))
    return draw(refs())


@settings(max_examples=150, deadline=None)
@given(shaped_refs(), shaped_refs(), shaped_refs())
def test_products_of_each_shape_match_the_fraction_reference(ra, rb, rc):
    # each pair of a dot lands in an empty or a filled table
    a, b, c = built(ra), built(rb), built(rc)
    got = {"a*b": a * b, "b*a": b * a, "dot(ab)": dot([(a, b)]),
           "dot(ab,ca,bc)": dot([(a, b), (c, a), (b, c)]),
           "dot(cc,ab)": dot([(c, c), (a, b)])}
    ab, ca, bc = r_mul(ra, rb), r_mul(rc, ra), r_mul(rb, rc)
    want = {"a*b": ab, "b*a": ab, "dot(ab)": ab,
            "dot(ab,ca,bc)": r_add(r_add(ab, ca), bc),
            "dot(cc,ab)": r_add(r_mul(rc, rc), ab)}
    for name, e in got.items():
        assert ref_of(e) == want[name], name
        assert_stored_form(e)


@settings(max_examples=80, deadline=None)
@given(refs(), st.sampled_from(VARS))
def test_diff_matches_the_fraction_reference(ra, v):
    # linear parts such as x/2 and 2/3*y put denominators into the factors
    e = built(ra).diff(v)
    assert ref_of(e) == r_diff(ra, v)
    assert_stored_form(e)


def test_diff_of_exponentials_with_rational_linear_parts():
    e = parse("3/4*exp(x/2) + 5*x*exp(2/3*x - y) - 1/6*exp(y/5)")
    assert e.diff("x") == parse("3/8*exp(x/2) + 5*exp(2/3*x - y) + 10/3*x*exp(2/3*x - y)")
    assert e.diff("y") == parse("-5*x*exp(2/3*x - y) - 1/30*exp(y/5)")
    # the halves cancel: d/dx of 2*exp(x/2) is exp(x/2), over denominator 1
    d = parse("2*exp(x/2)").diff("x")
    assert d == parse("exp(x/2)") and d._d == 1
    for f in (e.diff("x"), e.diff("y"), d):
        assert_stored_form(f)


@settings(max_examples=40, deadline=None)
@given(refs(3), st.sampled_from(VARS), coeffs, st.sampled_from(VARS), coeffs)
def test_substitute_matches_the_fraction_reference(ra, v, k, w, k0):
    img = Expr.number(k) * Expr.var(w) + Expr.number(k0)
    e = built(ra).substitute({v: img})
    assert ref_of(e) == r_substitute(ra, v, k, w, k0)
    assert_stored_form(e)


@settings(max_examples=40, deadline=None)
@given(refs(3), refs(2))
def test_div_exact_matches_the_fraction_reference(ra, rb):
    if not rb:
        return
    a, b = built(ra), built(rb)
    q = div_exact(a * b, b)
    assert ref_of(q) == ra
    assert_stored_form(q)


@settings(max_examples=60, deadline=None)
@given(coeffs, st.dictionaries(st.sampled_from([""] + VARS), lin_coeffs, max_size=3),
       st.integers(1, 3))
def test_negative_powers_of_exponentials_match_the_fraction_reference(c, lin, n):
    unit = {((), _lin(lin)): Fraction(c)}
    inverse = {((), _lin({v: -k for v, k in lin.items()})): 1 / Fraction(c)}
    e = built(unit) ** -n
    assert ref_of(e) == r_pow(inverse, n)
    assert_stored_form(e)
    assert built(unit) ** n * e == ONE


@settings(max_examples=60, deadline=None)
@given(refs())
def test_values_built_by_different_routes_are_equal_and_hash_equal(ra):
    routes = [built(ra), built_by_arithmetic(ra), Expr.from_terms(ra), parse(str(built(ra))),
              pickle.loads(pickle.dumps(built(ra)))]
    for e in routes:
        assert_stored_form(e)
        assert e == routes[0] and hash(e) == hash(routes[0])
        assert (e._t, e._d) == (routes[0]._t, routes[0]._d)


def test_equal_values_from_different_routes_store_one_form():
    x = Expr.var("x")
    half = Expr.number(Fraction(1, 2))
    cases = [
        (parse("2/4*x"), half * x),
        (parse("x/2 + y/3"), half * x + Expr.number(Fraction(1, 3)) * Expr.var("y")),
        (parse("x/6 + x/3"), half * x),
        (parse("x/2 + x/2"), x),
        (parse("3/4*x - 1/4*x + 1/2*y - y/2"), half * x),
        (parse("x/3 - x/3"), ZERO),
        (Expr.number(Fraction(6, 4)), parse("3/2")),
    ]
    for a, b in cases:
        assert a == b and hash(a) == hash(b) and str(a) == str(b)
        assert (a._t, a._d) == (b._t, b._d)
        assert_stored_form(a)
    assert ZERO._d == 1 and (parse("x/3") - parse("x/3"))._d == 1
    e = parse("1/6*x^2 - 3/4*exp(y/2) + 5")
    copied = pickle.loads(pickle.dumps(e))
    assert copied == e and hash(copied) == hash(e) and copied._d == e._d == 12
