"""Fraction-free symbolic linear algebra and the SVD rank policy."""

import math

import numpy as np
import pytest

from pnalgebroid.expr import parse, ExprError, ZERO, ONE
from pnalgebroid import linalg
from pnalgebroid.algebroid import KForm, LieAlgebroid, Section
from pnalgebroid.linalg import Frac
from pnalgebroid.nijenhuis import Endo
from pnalgebroid.poisson import Bivector


def M(*rows):
    return [[parse(e) if isinstance(e, str) else e for e in row] for row in rows]


def test_det_and_adjugate_identity():
    a = M(["x", "1", "0"], ["0", "y", "2"], ["3", "0", "x*y"])
    d = linalg.det(a)
    adj = linalg.adjugate(a)
    prod = linalg.mat_mul(adj, a)
    n = len(a)
    for i in range(n):
        for j in range(n):
            want = d if i == j else ZERO
            assert (prod[i][j] - want).is_zero()


def test_mat_mul_and_mat_vec_take_empty_operands():
    assert linalg.mat_mul([], []) == []
    assert linalg.mat_mul(M([], []), []) == [[], []]
    assert linalg.mat_mul([], M(["x", "1"])) == []
    assert linalg.mat_mul(M(["x"], ["y"]), [[]]) == [[], []]
    assert linalg.mat_vec([], []) == []
    assert linalg.mat_vec(M([], []), []) == [ZERO, ZERO]


def test_symbolic_rank_and_nullspace():
    a = M(["1", "x"], ["y", "x*y"])  # second row = y * first row
    assert linalg.symbolic_rank(a) == 1
    ns = linalg.symbolic_nullspace(a)
    assert len(ns) == 1
    for row in a:
        resid = sum((c * v for c, v in zip(row, ns[0])), ZERO)
        assert resid.is_zero()


def test_solve_pair():
    a = M(["x", "1"], ["0", "y"])
    b = [parse("x + 1"), parse("y")]
    sol = linalg.solve_pair(a, b)
    for row, rhs in zip(a, b):
        got = sum((c * v for c, v in zip(row, sol.num)), ZERO)
        assert (got - sol.den * rhs).is_zero()
    with pytest.raises(ExprError):
        linalg.solve_pair(M(["1", "1"], ["1", "1"]), [ONE, ZERO])


def test_inverse_pair():
    a = M(["x", "1"], ["1", "x"])
    inv = linalg.inverse_pair(a)
    prod = linalg.mat_mul(inv.num, a)
    assert (prod[0][0] - inv.den).is_zero()
    assert prod[0][1].is_zero()


def test_numeric_rank_flags_ill_conditioning():
    clean = np.diag([1.0, 1e-30])
    res = linalg.numeric_rank(clean, 1e-9)
    assert res.rank == 1 and not res.ill_conditioned
    # singular values straddle the cutoff with a small gap
    murky = np.diag([1.0, 2e-9, 5e-10])
    res = linalg.numeric_rank(murky, 1e-9)
    assert res.ill_conditioned


def test_numeric_nullspace_matches_symbolic():
    a = M(["1", "2"], ["2", "4"])
    num = np.array([[1.0, 2.0], [2.0, 4.0]])
    sym = linalg.symbolic_nullspace(a)
    vt = np.linalg.svd(num)[2]
    nsn = vt[linalg.numeric_rank(num, 1e-9).rank:].T
    assert len(sym) == nsn.shape[1] == 1
    assert np.allclose(num @ nsn, 0.0)


@pytest.mark.parametrize("shape, rank", [((4, 4), 2), ((3, 5), 3), ((5, 3), 1), ((3, 3), 3)])
def test_numeric_rank_of_low_rank_products(shape, rank):
    rng = np.random.default_rng(rank)
    mat = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
    res = linalg.numeric_rank(mat, 1e-9)
    assert res.rank == rank and not res.ill_conditioned


def test_evaluate_matrix_names_the_point_of_a_non_finite_entry():
    rows = M(["x", "exp(x)"], ["1", "x*y"])
    values = {"x": 0.5, "y": 2.0}
    assert np.array_equal(linalg.evaluate_matrix(rows, values),
                          [[0.5, np.exp(0.5)], [1.0, 1.0]])
    for bad in ({"x": 1000.0, "y": 1.0},          # exp overflows
                {"x": float("nan"), "y": 1.0},
                {"x": 1.0, "y": float("inf")}):
        with pytest.raises(linalg.NonFiniteEntry) as info:
            linalg.evaluate_matrix(rows, bad)
        assert info.value.values == bad
        assert str(bad) in str(info.value)


# -- the compiled, batched evaluator -------------------------------------------

def _loop_evaluate(rows, values):
    """The per-point reference: every entry through Expr.evaluate."""
    from pnalgebroid.expr import Point

    pt = Point(values)
    return np.array([[e.evaluate(pt) for e in row] for row in rows], dtype=float)


def test_compiled_matrix_matches_expr_evaluate():
    rows = M(["x^2*y - 3/2*exp(x - 2*y + 1)", "0", "7"],
             ["x*exp(-y)", "y^3 + x^2 - exp(1/3*x)", "exp(2)"])
    rng = np.random.default_rng(1)
    points = [{"x": float(a), "y": float(b)} for a, b in rng.uniform(-2, 2, (40, 2))]
    compiled = linalg.CompiledMatrix(rows)
    mats, fault = compiled.evaluate(linalg.point_array(points, compiled.variables))
    assert mats.shape == (40, 2, 3) and not fault.any()
    for values, mat in zip(points, mats):
        # the sums run in term order, the products in another order: a few ulps
        assert np.allclose(mat, _loop_evaluate(rows, values), rtol=1e-14, atol=0)
    assert np.array_equal(linalg.evaluate_matrix(rows, points[0]), mats[0])


def test_compiled_matrix_handles_constants_empty_rows_and_no_points():
    compiled = linalg.CompiledMatrix(M(["2", "0"], ["0", "-1/2"]))
    mats, fault = compiled.evaluate(linalg.point_array([{}, {"x": 1.0}], compiled.variables))
    assert np.array_equal(mats, [[[2, 0], [0, -0.5]]] * 2) and not fault.any()
    empty = linalg.CompiledMatrix([])
    assert empty.evaluate(linalg.point_array([{}, {}], empty.variables))[0].shape == (2, 0, 0)
    xs = linalg.CompiledMatrix(M(["x"]))
    assert xs.evaluate(linalg.point_array([], xs.variables))[0].shape == (0, 1, 1)
    with pytest.raises(ExprError, match="unbound variable 'x'"):
        linalg.point_array([{"y": 1.0}], xs.variables)
    with pytest.raises(ExprError, match="unbound variable 'x'"):
        xs.coordinates(np.ones((1, 1)), ["y"])
    both = np.array([[2.0, 3.0]])
    assert xs.evaluate(xs.coordinates(both, ["y", "x"]))[0].tolist() == [[[3.0]]]


@pytest.mark.parametrize("entry, values, underflows", [
    ("exp(1000*x)", {"x": -0.7312715117751976}, True),    # a subnormal, 2.6e-318
    ("exp(1000*x)", {"x": -0.8689}, True),                # flushed to 0
    ("exp(1000*x) + exp(999*x)", {"x": -0.8}, True),
    ("x^400", {"x": 0.1}, True),
    ("exp(1000*x) + 1", {"x": -0.8}, False),              # the 1 carries the entry
    ("y*exp(1000*x)", {"x": -0.8, "y": 0.0}, False),      # exactly 0, not underflow
    ("x^400", {"x": 0.0}, False),
    ("exp(700*x)", {"x": -1.0}, False),                   # 1e-304 is a normal float
])
def test_underflowing_entries_are_flagged(entry, values, underflows):
    rows = M([entry, "1"])
    if underflows:
        with pytest.raises(linalg.NonFiniteEntry, match="underflows") as info:
            linalg.evaluate_matrix(rows, values)
        assert info.value.values == values
    else:
        linalg.evaluate_matrix(rows, values)


def test_a_power_that_underflows_inside_its_product_is_recomputed():
    # 0.1^400 flushes to 0 before exp(500) scales the term up to 1.4e-183
    rows = M(["x^400*exp(500*y)", "-2*x^401*exp(500*y) + 1", "x^401*exp(500*y)"])
    got = linalg.evaluate_matrix(rows, {"x": -0.1, "y": 1.0})
    want = np.exp(400 * np.log(0.1) + 500)
    assert np.allclose(got, [[want, 1.0, -want / 10]], rtol=1e-12, atol=0)
    assert got[0, 0] > 0 and got[0, 2] < 0


@pytest.mark.parametrize("entry, values, log_value, sign", [
    # 0.1^400 flushes to 0 and exp(1000) to inf: the product is 2e34
    ("x^400*exp(1000)", {"x": 0.1}, 400 * math.log(0.1) + 1000, 1.0),
    # 10^400 overflows and exp(-1000) flushes to 0: the product is 5e-35
    ("x^400*exp(-1000)", {"x": 10.0}, 400 * math.log(10.0) - 1000, 1.0),
    ("-3*x^401*exp(1000*y)", {"x": -0.1, "y": 1.0},
     math.log(3) + 401 * math.log(0.1) + 1000, 1.0),
    ("x^401*exp(1000*y)", {"x": -0.1, "y": 1.0}, 401 * math.log(0.1) + 1000, -1.0),
], ids=["tiny-power", "huge-power", "negative-base-even-sign", "negative-base-odd"])
def test_a_term_that_overflows_inside_its_finite_product_is_recomputed(
        entry, values, log_value, sign):
    got = linalg.evaluate_matrix(M([entry, "1"]), values)
    assert got[0, 1] == 1.0
    assert np.isclose(got[0, 0], sign * math.exp(log_value), rtol=1e-12, atol=0)


@pytest.mark.parametrize("entry, values", [
    ("x^400*exp(1000*y)", {"x": 10.0, "y": 1.0}),     # 1e400 * e^1000
    ("x^400*exp(1000*y) + 1", {"x": 10.0, "y": 1.0}),
    ("x^400*exp(1000*y)", {"x": float("nan"), "y": 1.0}),
    ("x^400*exp(1000*y)", {"x": 0.1, "y": float("inf")}),
])
def test_a_term_beyond_the_float_range_still_overflows(entry, values):
    with pytest.raises(linalg.NonFiniteEntry, match="overflows") as info:
        linalg.evaluate_matrix(M([entry]), values)
    assert info.value.values == values


def test_a_zero_variable_makes_an_overflowing_factor_exactly_zero():
    got = linalg.evaluate_matrix(M(["x^400*exp(1000)", "1"]), {"x": 0.0})
    assert got.tolist() == [[0.0, 1.0]]


def test_a_recomputed_overflow_keeps_the_fault_order():
    """x^400 exp(1000 y) underflows at (0.1, -1), is 2e34 at (0.1, 1) and is
    not finite at (10, 1): the non-finite point is named, whatever came first."""
    from pnalgebroid.algebroid import LieAlgebroid
    from pnalgebroid.nijenhuis import Endo
    from pnalgebroid.pointwise import riesz_report

    A = LieAlgebroid.tangent(["x", "y"])
    e = parse("x^400*exp(1000*y)")
    N = Endo.from_matrix(A, [[e, ZERO], [ZERO, e]])
    under, fine, over = {"x": 0.1, "y": -1.0}, {"x": 0.1, "y": 1.0}, {"x": 10.0, "y": 1.0}
    assert [r.index for r in riesz_report(N, [fine, fine])] == [0, 0]
    with pytest.raises(linalg.NonFiniteEntry, match="overflows") as info:
        riesz_report(N, [under, fine, over])
    assert info.value.values is over
    with pytest.raises(linalg.NonFiniteEntry, match="underflows") as info:
        riesz_report(N, [fine, under, fine])
    assert info.value.values is under


def test_a_non_finite_entry_outranks_an_earlier_underflow():
    compiled = linalg.CompiledMatrix(M(["exp(1000*x)"]))
    points = [{"x": 0.0}, {"x": -0.8}, {"x": 0.0}, {"x": 0.9}, {"x": 1.0}]
    mats, fault = compiled.evaluate(linalg.point_array(points, compiled.variables))
    assert fault.tolist() == [0, 1, 0, 2, 2]
    faults = linalg.Faults(points.__getitem__)
    with pytest.raises(linalg.NonFiniteEntry, match="overflows") as info:
        faults.check(0, fault)
    assert info.value.values == {"x": 0.9}
    # with no non-finite entry, the first underflow is raised at the end
    faults = linalg.Faults(points.__getitem__)
    faults.check(0, fault[:3])
    faults.check(0, fault[:1])
    with pytest.raises(linalg.NonFiniteEntry, match="underflows") as info:
        faults.finish()
    assert info.value.values == {"x": -0.8}


def test_stacked_rank_rule_matches_the_per_matrix_rule():
    def reference(s, tol):
        cutoff = tol * max(float(s[0]) if len(s) else 0.0, 1.0)
        rank = int(np.sum(s > cutoff))
        ill = 0 < rank < len(s) and s[rank] > 0 and s[rank - 1] / s[rank] < linalg.GAP_RATIO
        return rank, cutoff, bool(ill)

    rng = np.random.default_rng(3)
    stacks = [np.sort(rng.uniform(0, 3, (50, k)) ** 12, axis=1)[:, ::-1] for k in (0, 1, 2, 5)]
    stacks.append(np.array([[1.0, 2e-9, 5e-10], [1.0, 1e-30, 0.0], [0.0, 0.0, 0.0]]))
    for s in stacks:
        rank, cutoff, ill = linalg._rank_of(s, 1e-9)
        assert [reference(row, 1e-9) for row in s] == list(zip(rank, cutoff, ill))


# -- Frac: one numerator over a scalar denominator ----------------------------

_A = LieAlgebroid.tangent(["x", "y"])
_ENTRIES = [parse("x*y"), parse("y + 2"), ZERO, parse("3*x*x")]
_DEN = parse("x + y")
_BUILDERS = {
    "matrix": lambda e: [[e(0), e(1)], [e(2), e(3)]],
    "vector": lambda e: [e(0), e(1), e(2)],
    "bivector": lambda e: Bivector.from_entries(_A, {(0, 1): e(0)}),
    "two-form": lambda e: KForm(_A, 2, {(0, 1): e(0)}),
    "endo": lambda e: Endo.from_matrix(_A, [[e(0), e(1)], [e(2), e(3)]]),
    "section": lambda e: Section(_A, (e(0), e(1))),
}


@pytest.mark.parametrize("kind", sorted(_BUILDERS))
def test_frac_exact(kind):
    build = _BUILDERS[kind]
    value = build(lambda i: _ENTRIES[i])
    assert Frac(value, ONE).exact() is value
    assert Frac(build(lambda i: _ENTRIES[i] * _DEN), _DEN).exact() == value
    # x*y*(x + y) + 1 has no quotient by x + y
    bad = build(lambda i: _ENTRIES[i] * _DEN + (ONE if i == 0 else ZERO))
    with pytest.raises(ExprError):
        Frac(bad, _DEN).exact()



def _reference_adjugate(a):
    """Each cofactor as the determinant of its own submatrix."""
    n = len(a)
    adj = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [[a[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            cof = linalg.det(sub)
            adj[j][i] = -cof if (i + j) % 2 else cof
    return adj


def test_shared_minor_table_matches_separate_cofactors():
    import random

    rng = random.Random(7)
    atoms = ["0", "0", "1", "-2", "x", "y", "x*y - 1", "1/2*x", "exp(x - y)"]
    for n in (1, 2, 5, 6):
        a = M(*[[rng.choice(atoms) for _ in range(n)] for _ in range(n)])
        ref = _reference_adjugate(a)
        assert linalg.adjugate(a) == ref
        d = linalg.det(a)
        if not d.is_zero():
            inv = linalg.inverse_pair(a)
            assert inv.num == ref and inv.den == d
    assert linalg.det([]) == ONE and linalg.adjugate([]) == []


def test_inverses_read_the_determinant_from_the_minor_table(monkeypatch):
    from pnalgebroid.fixtures import build_toda
    from pnalgebroid.nijenhuis import recursion_operator
    from pnalgebroid.poisson import invert_poisson, invert_symplectic

    t = build_toda(3)
    calls = []
    real = linalg.det
    monkeypatch.setattr(linalg, "det", lambda a: calls.append(a) or real(a))
    linalg.inverse_pair([list(row) for row in t.lam0.mat])
    linalg.adjugate([list(row) for row in t.lam0.mat])
    recursion_operator(t.lam0, t.lam1)
    invert_symplectic(invert_poisson(t.lam0))
    assert calls == []
