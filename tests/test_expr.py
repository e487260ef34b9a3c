"""Ring axioms, calculus rules and parser round-trips for the closed
expression class (rational coefficients, Laurent monomials, exponentials of
affine forms)."""

import copy
import functools
import math
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pnalgebroid.expr import (
    Expr, Point, DualValue, parse, div_exact, dot, ExprError, ExprSyntaxError,
    ZERO, ONE,
)
from pnalgebroid.fixtures import build_toda
from pnalgebroid.poisson import Bivector

VARS = ["x", "y", "z"]

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)


@st.composite
def exprs(draw, max_terms=3):
    terms = draw(st.integers(0, max_terms))
    out = ZERO
    for _ in range(terms):
        c = draw(rationals)
        t = Expr.number(c)
        for v in draw(st.lists(st.sampled_from(VARS), max_size=2)):
            t = t * Expr.var(v)
        if draw(st.booleans()):
            lin = sum(
                (Expr.number(draw(st.integers(-2, 2))) * Expr.var(v)
                 for v in draw(st.lists(st.sampled_from(VARS), max_size=2, unique=True))),
                ZERO,
            )
            t = t * Expr.exp_of(lin)
        out = out + t
    return out


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs(), exprs())
def test_ring_axioms(a, b, c):
    assert ((a + b) + c - (a + (b + c))).is_zero()
    assert (a * b - b * a).is_zero()
    assert ((a * b) * c - a * (b * c)).is_zero()
    assert (a * (b + c) - (a * b + a * c)).is_zero()
    assert (a + ZERO - a).is_zero()
    assert (a * ONE - a).is_zero()
    assert (a - a).is_zero()


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs(), st.sampled_from(VARS))
def test_leibniz_rule(a, b, v):
    lhs = (a * b).diff(v)
    rhs = a.diff(v) * b + a * b.diff(v)
    assert (lhs - rhs).is_zero()


@settings(max_examples=60, deadline=None)
@given(exprs())
def test_parse_str_roundtrip(a):
    assert (parse(str(a)) - a).is_zero()
    # canonical printing is stable
    assert str(parse(str(a))) == str(a)


@settings(max_examples=40, deadline=None)
@given(exprs(), st.sampled_from(VARS))
def test_dual_number_matches_symbolic_derivative(a, v):
    values = {"x": 0.3, "y": -0.7, "z": 1.1}
    res = a.evaluate(Point(values, dual={v: 1.0}))
    want = a.diff(v).evaluate(Point(values))
    got = res.dual[v] if isinstance(res, DualValue) else 0.0
    assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-10)


def test_exp_merges_and_is_unit():
    e = Expr.exp_of(Expr.var("x"))
    assert ((e * e) - Expr.exp_of(Expr.number(2) * Expr.var("x"))).is_zero()
    inv = e ** (-1)
    assert (e * inv - ONE).is_zero()


def test_division_by_constant_and_exact():
    a = parse("2*x^2 + 4*x")
    assert ((a / 2) - parse("x^2 + 2*x")).is_zero()
    q = div_exact(parse("x^2 - y^2"), parse("x - y"))
    assert (q - parse("x + y")).is_zero()
    # a one-term divisor is a unit: the quotient may be Laurent
    assert div_exact(parse("x^2 + 1"), parse("x")) == parse("x + x^-1")
    with pytest.raises(ExprError):
        div_exact(parse("x^2 + 1"), parse("x + 1"))


def test_exact_division_with_exponentials():
    num = parse("x*exp(2*x - 2*y) - y*exp(2*x - 2*y)")
    den = parse("exp(x - y)")
    q = div_exact(num, den)
    assert (q - parse("(x - y)*exp(x - y)")).is_zero()


@settings(max_examples=40, deadline=None)
@given(exprs(), exprs())
def test_exact_division_roundtrip(a, b):
    prod = a * b
    if b.is_zero():
        return
    q = div_exact(prod, b)
    assert (q - a).is_zero()


def test_exact_division_outside_the_class_fails_without_running_out_its_steps():
    # 1 / (1 + exp(x)) is a series in exp(-x) with no last term: its terms
    # leave the bounds that num = q * den puts on each coordinate of q
    for num, den in (("1", "1 + exp(x)"), ("x", "2*exp(x) - exp(2*x)")):
        with pytest.raises(ExprError, match="no quotient in class"):
            div_exact(parse(num), parse(den))
    q = div_exact(parse("1 - exp(3*x)"), parse("1 - exp(x)"))
    assert (q - parse("1 + exp(x) + exp(2*x)")).is_zero()


def _quotient_or_error(num: Expr, den: Expr):
    try:
        return div_exact(num, den)
    except ExprError as e:
        return str(e)


@st.composite
def one_terms(draw):
    """One nonzero term, its exponential's form rational in y."""
    t = draw(exprs(max_terms=1).filter(lambda e: not e.is_zero()))
    return t * Expr.exp_of(Expr.number(draw(rationals)) * Expr.var("y"))


@settings(max_examples=80, deadline=None)
@given(exprs(max_terms=4), one_terms(), st.booleans(),
       st.sampled_from(["1 + x", "exp(x) - 2*y", "z^2 - exp(-y/2)"]))
def test_division_by_one_term_agrees_with_long_division(num, den, multiple, g):
    """A one-term divisor divides each term of num on its own; times a
    two-term g, the same quotient comes out of the leading-term loop, or
    neither division has one."""
    if multiple:
        num = num * den
    g = parse(g)
    direct = _quotient_or_error(num, den)
    long = _quotient_or_error(num * g, den * g)
    if isinstance(direct, str):
        assert direct == "exact division failed (no quotient in class)"
        assert isinstance(long, str)
    else:
        assert long == direct and direct * den == num


def test_substitute_keeps_class_closed():
    a = parse("x*exp(x - y)")
    out = a.substitute({"x": parse("2*z + 1")})
    assert (out - parse("(2*z + 1)*exp(2*z + 1 - y)")).is_zero()
    with pytest.raises(ExprError):
        # exponent argument would leave the affine class
        a.substitute({"x": parse("z^2")})


def test_parser_rejects_garbage_with_position():
    for bad in ("x +", "exp(x^2)", "1/(x)", "(x", "x ** 2"):
        with pytest.raises(ExprSyntaxError):
            parse(bad)


def test_zero_test_is_decidable_on_disguised_zero():
    a = parse("exp(x)*exp(-x) - 1")
    assert a.is_zero()
    b = parse("(x + y)^2 - x^2 - 2*x*y - y^2")
    assert b.is_zero()


# -- storage: every rational is an int when integral, else a Fraction ---------

def assert_stored(e: Expr) -> None:
    for _, lin, c in e.terms:
        for q in [c] + [k for _, k in lin]:
            assert type(q) is int or (type(q) is Fraction and q.denominator != 1), (e, q)


@st.composite
def rational_exp_exprs(draw):
    """exprs() times exp of a rational-affine form: fractions in Lin keys."""
    k, k0 = draw(rationals), draw(rationals)
    return draw(exprs()) * Expr.exp_of(Expr.number(k) * Expr.var("x") + Expr.number(k0))


@settings(max_examples=60, deadline=None)
@given(rational_exp_exprs(), rational_exp_exprs(), rationals, st.sampled_from(VARS))
def test_every_operation_stores_int_or_nonintegral_fraction(a, b, k, v):
    results = [a, b, a + b, a - b, -a, a * b, a.diff(v), a ** 2, parse(str(a)),
               a.substitute({v: Expr.number(k) * Expr.var("y") + Expr.number(k)})]
    if k:
        results.append(a / Expr.number(k))
    if not b.is_zero():
        results.append(div_exact(a * b, b))
    for term in a.terms:
        if not term[0]:  # a unit: a pure exponential times a constant
            results.append(Expr((term,)) ** -1)
    for e in results:
        assert_stored(e)


def test_integral_fractions_are_stored_as_int():
    half = Fraction(1, 2)
    e = Expr.number(half) * Expr.var("x") + Expr.number(half) * Expr.var("x")
    assert e.terms == (((("x", 1),), (), 1),) and type(e.terms[0][2]) is int
    assert type(Expr.number(Fraction(4, 2)).terms[0][2]) is int
    lin = Expr.exp_of(parse("1/2*x + 1/2*x + 3/3")).terms[0][1]
    assert lin == (("", 1), ("x", 1)) and all(type(k) is int for _, k in lin)
    assert (parse("exp(1/2*x)") ** 2).terms == (((), (("x", 1),), 1),)
    assert [type(k) for _, k in parse("x/2 + 3").as_linear()] == [int, Fraction]
    assert div_exact(parse("3*x"), parse("2")).terms[0][2] == Fraction(3, 2)
    # constant_value keeps returning a Fraction
    assert type(parse("2").constant_value()) is Fraction
    assert type(ZERO.constant_value()) is Fraction


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs(), rationals)
def test_subtraction_equals_addition_of_the_negation(a, b, q):
    assert (a - b).terms == (a + (-b)).terms
    assert (q - a).terms == (Expr.number(q) + (-a)).terms
    assert (a - q).terms == (a + Expr.number(-q)).terms


def test_subtraction_makes_no_negated_copy(monkeypatch):
    a, b = parse("x^2 + 3*y - exp(x)"), parse("2*x^2 - y/2 - exp(x)")
    want = [a + (-b), ZERO, -b, a, a + Expr.number(-2), Expr.number(Fraction(1, 3)) + (-b)]
    calls = []
    neg = Expr.__neg__
    monkeypatch.setattr(Expr, "__neg__", lambda e: calls.append(1) or neg(e))
    got = [a - b, a - a, ZERO - b, a - ZERO, a - 2, Fraction(1, 3) - b]
    assert [e.terms for e in got] == [e.terms for e in want]
    assert calls == []


# -- term tables: the order a value was built in is invisible ----------------

def rebuilt(e: Expr, rnd) -> Expr:
    """``e`` built again from its terms in a shuffled order."""
    terms = list(e.terms)
    rnd.shuffle(terms)
    return Expr(terms)


def assert_same(x: Expr, y: Expr) -> None:
    assert x == y and hash(x) == hash(y)
    assert x.terms == y.terms and str(x) == str(y)


@settings(max_examples=60, deadline=None)
@given(st.lists(exprs(), min_size=1, max_size=4), st.randoms(use_true_random=False))
def test_results_do_not_depend_on_the_order_of_construction(es, rnd):
    other = [rebuilt(e, rnd) for e in es]
    for e, f in zip(es, other):
        assert_same(e, f)
    assert_same(sum(es, ZERO), sum(reversed(other), ZERO))
    assert_same(functools.reduce(operator.mul, es), functools.reduce(operator.mul, other[::-1]))
    pairs = list(zip(es, es[1:] + es[:1]))
    swapped = [(rebuilt(b, rnd), rebuilt(a, rnd)) for a, b in pairs]
    rnd.shuffle(swapped)
    assert_same(dot(pairs), dot(swapped))
    assert_same(dot(pairs), sum((a * b for a, b in pairs), ZERO))


def test_dot_of_no_pair_is_zero_and_of_one_pair_the_product():
    assert dot([]) is ZERO and dot(iter(())) is ZERO
    operands = [ZERO, Expr.number(Fraction(-3, 2)), parse("2/3*x^2*exp(y)"),
                parse("x - 1/2*y + exp(-z)")]
    for a in operands:
        for b in operands:
            assert_same(dot([(a, b)]), a * b)
            assert_same(dot((p for p in [(a, b)])), a * b)


@settings(max_examples=60, deadline=None)
@given(rational_exp_exprs(), exprs(), rationals, st.sampled_from(VARS))
def test_terms_are_sorted_after_every_operation(a, b, k, v):
    results = [a, b, a + b, a - b, k - a, -a, a * b, k * a, a ** 2, dot([(a, b), (b, a)]),
               a.diff(v), parse(str(a)), Expr(reversed(a.terms)),
               a.substitute({v: Expr.number(k) * Expr.var("y") + Expr.number(k)})]
    if not b.is_zero():
        results.append(div_exact(a * b, b))
    for e in results:
        keys = [(m, l) for m, l, _ in e.terms]
        assert keys == sorted(set(keys))
        assert all(c != 0 for _, _, c in e.terms)


def test_expr_is_immutable():
    e = parse("x^2 + 3*exp(y)")
    for name in ("terms", "_t", "_hash", "anything"):
        with pytest.raises(AttributeError):
            setattr(e, name, ())
        with pytest.raises(AttributeError):
            delattr(e, name)
    assert str(e) == "3*exp(y) + x^2" and e == parse("3*exp(y) + x^2")
    # copies and pickles carry the terms, not the interned key ids
    assert copy.deepcopy(e) == e and pickle.loads(pickle.dumps(e)) == e


def test_bivectors_built_in_different_orders_are_equal():
    t = build_toda(3)
    lam2 = t.N.push_bivector(t.lam1)  # entries of up to three terms
    entries = {(a, b): e for a, row in enumerate(lam2.mat)
               for b, e in enumerate(row) if a < b and not e.is_zero()}
    assert max(len(e.terms) for e in entries.values()) == 3
    one = Bivector.from_entries(t.tangent, entries)
    # the entries in reverse order, each summed from its terms in reverse order
    reverse = {ab: sum((Expr([term]) for term in reversed(e.terms)), ZERO)
               for ab, e in reversed(entries.items())}
    two = Bivector.from_entries(t.tangent, reverse)
    assert one == two == lam2 and hash(one) == hash(two) == hash(lam2)
