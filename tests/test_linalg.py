"""Fraction-free symbolic linear algebra and the SVD rank policy."""

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
    nsn = linalg.numeric_bases(num, 1e-9)[1]
    assert len(sym) == nsn.shape[1] == 1
    assert np.allclose(num @ nsn, 0.0)


@pytest.mark.parametrize("shape, rank", [((4, 4), 2), ((3, 5), 3), ((5, 3), 1), ((3, 3), 3)])
def test_numeric_bases(shape, rank):
    rng = np.random.default_rng(rank)
    mat = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
    res, kernel, image = linalg.numeric_bases(mat, 1e-9)
    assert res.rank == rank == linalg.numeric_rank(mat, 1e-9).rank
    assert kernel.shape == (shape[1], shape[1] - rank)
    assert image.shape == (shape[0], rank)
    assert np.allclose(mat @ kernel, 0.0)
    assert np.allclose(kernel.T @ kernel, np.eye(shape[1] - rank))
    assert np.allclose(image.T @ image, np.eye(rank))
    # the image spans the column space: projecting onto it leaves mat alone
    assert np.allclose(image @ image.T @ mat, mat)


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

