"""Compatibility and hierarchy verdicts against the sum-bivector reference.

Two Poisson bivectors P and Q are compatible when P + Q is Poisson, so the
reference for every pair verdict is ``is_poisson`` on the sum, formed with
``Bivector.__add__``: ``are_compatible`` must report what checking the first,
the second and then the sum bivector reports, and each pair report of
``hierarchy_check`` must equal ``is_poisson(Qi + Qj)``, failures and
residuals included, even where a level itself fails."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from pnalgebroid import nijenhuis
from pnalgebroid.algebroid import CheckReport, LieAlgebroid
from pnalgebroid.expr import Expr, ONE, ZERO, parse
from pnalgebroid.fixtures import build_aff1, build_toda
from pnalgebroid.nijenhuis import Endo, hierarchy_check
from pnalgebroid.poisson import Bivector, _bracket_check, are_compatible, is_poisson


def action():
    # aff(1) + R^2 acting on the (u, v) plane: rho(e1) = -u d/du,
    # rho(e2) = d/du, rho(e3) = d/dv, [e1, e2] = e2
    return LieAlgebroid.from_tables(
        ["u", "v"],
        ["e1", "e2", "e3", "e4"],
        [[parse("-u"), ZERO], [ONE, ZERO], [ZERO, ONE], [ZERO, ZERO]],
        {(0, 1): {1: ONE}},
    )


ALGEBROIDS = {
    "aff1": lambda: build_aff1().algebroid,
    "toda2-tangent": lambda: build_toda(2).tangent,
    "toda2-atiyah": lambda: build_toda(2).atiyah,
    "action": action,
}


def random_entry(A, rng):
    """c * x^i * y^j with small c, i and j in the base variables."""
    x, y = rng.choice(A.base_vars), rng.choice(A.base_vars)
    return (
        Expr.number(rng.choice([-2, -1, 1, 2]))
        * Expr.var(x) ** rng.randint(0, 1)
        * Expr.var(y) ** rng.randint(0, 1)
    )


def random_bivector(A, rng):
    """Sparse, so that many draws are Poisson and reach the sum check."""
    entries = {
        (a, b): random_entry(A, rng)
        for a, b in itertools.combinations(range(A.rank), 2)
        if rng.random() < 0.35
    }
    return Bivector.from_entries(A, entries)


def reference_are_compatible(P0, P1):
    for name, Q in (("first", P0), ("second", P1), ("sum", P0 + P1)):
        rep = is_poisson(Q)
        if not rep.ok:
            msg, e = rep.failures[0]
            return CheckReport(False, [(f"{name} bivector: {msg}", e)])
    return CheckReport(True, [])


def same(a: CheckReport, b: CheckReport) -> bool:
    return a.ok == b.ok and a.failures == b.failures


def triples(case, count=15):
    A = ALGEBROIDS[case]()
    rng = random.Random(sorted(ALGEBROIDS).index(case) + 11)
    return A, [[random_bivector(A, rng) for _ in range(3)] for _ in range(count)]


@pytest.mark.parametrize("case", sorted(ALGEBROIDS))
def test_pair_verdicts_equal_is_poisson_of_the_sum(case, monkeypatch):
    A, draws = triples(case)
    N = Endo.identity(A)
    seen = {"level fails": 0, "sum fails": 0, "pass": 0}
    for chain in draws:
        # hierarchy_check reads level 0 and, N being the identity, N P = P,
        # then the levels above from hierarchy(N P, N, top - 1); hand it the draw
        monkeypatch.setattr(nijenhuis, "hierarchy",
                            lambda P, N, depth: list(enumerate(chain[1:], 1)))
        rep = hierarchy_check(chain[0], N, 2)
        for (_, got), Q in zip(rep.levels, chain):
            assert same(got, is_poisson(Q))
        for li, lj, got in rep.pairwise:
            assert same(got, is_poisson(chain[li] + chain[lj]))
        for Pi, Pj in itertools.combinations(chain, 2):
            want = reference_are_compatible(Pi, Pj)
            assert same(are_compatible(Pi, Pj), want)
            if want.ok:
                seen["pass"] += 1
            elif want.failures[0][0].startswith("sum"):
                seen["sum fails"] += 1
            else:
                seen["level fails"] += 1
    # the draws reach every branch of are_compatible
    assert all(seen.values()), seen


def test_no_verdict_forms_a_bivector_sum(monkeypatch):
    calls = []
    add = Bivector.__add__
    monkeypatch.setattr(Bivector, "__add__", lambda P, Q: calls.append(1) or add(P, Q))
    t, a = build_toda(3), build_aff1()
    assert are_compatible(t.lam0, t.lam1).ok
    assert hierarchy_check(t.lam0, t.N, 3).ok
    assert not hierarchy_check(a.P, a.N, 2).ok
    _, draws = triples("toda2-atiyah", count=3)
    for Pi, Pj in itertools.combinations(draws[0], 2):
        are_compatible(Pi, Pj)
    assert calls == []
    t.lam0 + t.lam1  # the count sees a sum when one is formed
    assert calls == [1]


def dense_bracket(A, pairs):
    """B[y, z][x] = sum_d P^{xd} rho_d(Q^{yz}) + sum_{d,e} P^{yd} Q^{ze} C_de^x
    summed over the (P, Q) in ``pairs``, for every x, y, z, from the
    definition: rho_d(f) = sum_i rho_d^i df/dx^i, every sum dense."""
    r = A.rank

    def rho(d, f):
        return sum((A.anchor[d][i] * f.diff(v) for i, v in enumerate(A.base_vars)), ZERO)

    B = {}
    for x, y, z in itertools.product(range(r), repeat=3):
        total = ZERO
        for P, Q in pairs:
            for d in range(r):
                total = total + P.mat[x][d] * rho(d, Q.mat[y][z])
                for e in range(r):
                    total = total + P.mat[y][d] * Q.mat[z][e] * A.structure[d][e][x]
        B[y, z, x] = total
    return B


def dense_residuals(A, pairs, *known):
    """B[b, c][a] - B[a, c][b] + B[a, b][c] plus the ``known`` entries, per
    frame triple a < b < c in ``itertools.combinations`` order."""
    B = dense_bracket(A, pairs)
    return [sum(es, B[b, c, a] - B[a, c, b] + B[a, b, c])
            for (a, b, c), *es in zip(itertools.combinations(range(A.rank), 3), *known)]


@st.composite
def sparse_bivectors(draw, A):
    """About one frame pair in three carries c * x^i * y^j, as ``random_bivector``."""
    entries = {}
    for a, b in itertools.combinations(range(A.rank), 2):
        if draw(st.integers(0, 2)) == 0:
            x, y = draw(st.sampled_from(A.base_vars)), draw(st.sampled_from(A.base_vars))
            entries[a, b] = (Expr.number(draw(st.sampled_from([-2, -1, 1, 2])))
                             * Expr.var(x) ** draw(st.integers(0, 1))
                             * Expr.var(y) ** draw(st.integers(0, 1)))
    return Bivector.from_entries(A, entries)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bracket_residuals_equal_the_dense_reference(data):
    """``_bracket_check``'s residual list, for one bivector and for a mixed
    pair with the two levels' residuals as ``known``, equals the dense sums
    entry for entry, and its failures are the nonzero entries in order."""
    A = ALGEBROIDS[data.draw(st.sampled_from(sorted(ALGEBROIDS)))]()
    P, Q = data.draw(sparse_bivectors(A)), data.draw(sparse_bivectors(A))
    own = [dense_residuals(A, [(R, R)]) for R in (P, Q)]
    for pairs, known in (([(P, P)], []), ([(P, Q), (Q, P)], own)):
        rep, got = _bracket_check(pairs, *known)
        want = dense_residuals(A, pairs, *known)
        assert got == want
        assert [e for _, e in rep.failures] == [e for e in want if not e.is_zero()]
        assert rep.ok == all(e.is_zero() for e in want)
