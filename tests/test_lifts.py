"""Complete/vertical/star lifts and their bracket identities."""

import random

import pytest

from pnalgebroid.expr import Expr, parse, ZERO, ONE
from pnalgebroid.algebroid import LieAlgebroid, Section
from pnalgebroid.lifts import (
    lift_section, lift_function, star_complete_lift, linear_function,
    lift_bivector, fb_generators, total_space, dual_total_space,
)
from pnalgebroid.fixtures import build_toda


@pytest.fixture
def A():
    # nontrivial anchor and structure over a 2-dimensional base
    return LieAlgebroid.from_tables(
        ["u", "v"],
        ["e1", "e2", "e3"],
        [[ONE, ZERO], [ZERO, ONE], [ZERO, ZERO]],
        {(0, 1): {2: parse("u")}},
    )


def random_section(A, rng):
    return Section(
        A,
        tuple(
            Expr.number(rng.randint(-2, 2))
            + Expr.number(rng.randint(-1, 1)) * Expr.var(rng.choice(list(A.base_vars)))
            for _ in range(A.rank)
        ),
    )


def test_complete_lift_is_bracket_morphism(A):
    rng = random.Random(1)
    for _ in range(8):
        X, Y = random_section(A, rng), random_section(A, rng)
        lhs = total_space(A).bracket(lift_section(A, X, "c"), lift_section(A, Y, "c"))
        rhs = lift_section(A, A.bracket(X, Y), "c")
        assert (lhs - rhs).is_zero()


def test_mixed_lift_bracket(A):
    rng = random.Random(2)
    for _ in range(8):
        X, Y = random_section(A, rng), random_section(A, rng)
        lhs = total_space(A).bracket(lift_section(A, X, "c"), lift_section(A, Y, "v"))
        rhs = lift_section(A, A.bracket(X, Y), "v")
        assert (lhs - rhs).is_zero()


def test_vertical_lifts_commute(A):
    rng = random.Random(3)
    for _ in range(4):
        X, Y = random_section(A, rng), random_section(A, rng)
        br = total_space(A).bracket(lift_section(A, X, "v"), lift_section(A, Y, "v"))
        assert br.is_zero()


def test_star_lift_acts_on_linear_functions(A):
    # X^{*c}(hat Y) = hat([X, Y])
    rng = random.Random(4)
    for _ in range(6):
        X, Y = random_section(A, rng), random_section(A, rng)
        got = dual_total_space(A).anchor_apply(star_complete_lift(A, X), linear_function(A, Y))
        want = linear_function(A, A.bracket(X, Y))
        assert (got - want).is_zero()


def test_lift_function_complete_is_anchor_pairing(A):
    f = parse("u*v")
    fc = lift_function(A, f, "c")
    # against the frame fiber coordinates: coefficient of y_a is rho(e_a)(f)
    for a in range(A.rank):
        coeff = fc.diff("y_" + A.frame[a])
        want = A.anchor_apply(A.frame_section(a), f)
        assert (coeff - want).is_zero()


def test_lift_bivector_product_rule_consistency():
    t = build_toda(2)
    A = t.tangent
    lam0c = lift_bivector(A, t.lam0, "c")
    lam0v = lift_bivector(A, t.lam0, "v")
    assert not lam0c.is_zero() and not lam0v.is_zero()
    # the vertical lift only has fiber-fiber components
    n = A.dim
    for i, row in enumerate(lam0v.mat):
        for j, e in enumerate(row):
            assert e.is_zero() or (i >= n and j >= n)


def test_fb_generators_shape(A):
    secs = [A.frame_section(0), A.frame_section(2)]
    pt = {"u": 0.5, "v": -1.0, "y_e1": 0.1, "y_e2": 0.2, "y_e3": 0.3}
    rows = fb_generators(A, secs, pt)
    assert rows.shape == (4, A.dim + A.rank)
