"""Fraction-free symbolic linear algebra and the SVD rank policy."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnalgebroid.expr import parse, ExprError, ZERO, ONE
from pnalgebroid import linalg
from pnalgebroid.algebroid import KForm, LieAlgebroid, Section
from pnalgebroid.linalg import Frac
from pnalgebroid.nijenhuis import Endo
from pnalgebroid.poisson import Bivector

_SRC = str(Path(linalg.__file__).resolve().parent.parent)


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


ATOMS = ["1", "-2", "x", "y", "x*y - 1", "1/2*x", "exp(x - y)", "2/3*exp(y/2)",
         "x^2 + exp(x)"]
entries = st.one_of(st.just("0"), st.sampled_from(ATOMS)).map(parse)


@st.composite
def matrices(draw, max_side=5):
    """A rectangular matrix, empty when a side is 0, over polynomial and
    exponential entries; some rows combine earlier rows or are zero, and some
    columns are zero, so that ranks fall short of both sides.  At most 5 x 5:
    the echelon reference's entries grow with each step, and on a rare 6 x 6
    draw it runs for seconds or more."""
    n, m = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    a = [[draw(entries) for _ in range(m)] for _ in range(n)]
    for i in range(n):
        kind = draw(st.sampled_from(["keep", "keep", "combine", "zero"]))
        if kind == "zero":
            a[i] = [ZERO] * m
        elif kind == "combine" and i:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            f, g = draw(entries), draw(entries)
            a[i] = [f * x + g * y for x, y in zip(a[j], a[k])]
    for j in draw(st.lists(st.integers(0, m - 1), max_size=2)) if m else ():
        for row in a:
            row[j] = ZERO
    return a


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_pivot_columns_and_rank_match_the_echelon_form(a):
    _, pivots = linalg.row_echelon(a)
    assert linalg.pivot_columns(a) == pivots
    assert linalg.symbolic_rank(a) == len(pivots)


def _dense_product(a, b):
    m = len(b[0]) if b else 0
    return [[sum((row[t] * b[t][j] for t in range(len(b))), ZERO) for j in range(m)]
            for row in a]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_mat_mul_and_mat_vec_match_the_dense_sums(n, k, m, data):
    a = [[data.draw(entries) for _ in range(k)] for _ in range(n)]
    b = [[data.draw(entries) for _ in range(m)] for _ in range(k)]
    v = [data.draw(entries) for _ in range(k)]
    assert linalg.mat_mul(a, b) == _dense_product(a, b)
    assert linalg.mat_vec(a, v) == [sum((x * y for x, y in zip(row, v)), ZERO) for row in a]


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


def _svd_stack(count, kind, seed=5):
    rng = np.random.default_rng(seed)
    if kind == "4x2-view":
        # a strided view, as condition_fb_check's gens[:, ::2, :A.dim]
        return rng.standard_normal((count, 8, 3))[:, ::2, :2]
    n = {"10x10": 10, "4x4": 4}[kind]
    return rng.standard_normal((count, n, n))


def _entries(kind):
    return {"10x10": 100, "4x4": 16, "4x2-view": 8}[kind]


def _least_split(kind):
    """The fewest matrices of this kind whose stack splits."""
    return -(-linalg._SPLIT // (linalg._OVERHEAD + _entries(kind)))


def _first_points(stack, calls):
    """The point each decomposed part of ``stack`` starts at, from the data
    address of each array ``calls`` recorded, with its length."""
    base = stack.__array_interface__["data"][0]
    return sorted(((a.__array_interface__["data"][0] - base) // stack.strides[0], len(a))
                  for a in calls)


def _part(kind):
    """The larger half of the smallest stack of this kind that splits."""
    return (_least_split(kind) + 1) // 2


_SVD_COUNTS = {"0": lambda k: 0, "1": lambda k: 1, "PART-1": lambda k: _part(k) - 1,
               "2*PART": lambda k: 2 * _part(k), "2*PART+1": lambda k: 2 * _part(k) + 1,
               "3*PART": lambda k: 3 * _part(k), "least-1": lambda k: _least_split(k) - 1,
               "least": _least_split}


@pytest.mark.parametrize("kind", ["10x10", "4x4", "4x2-view"])
@pytest.mark.parametrize("count", sorted(_SVD_COUNTS))
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_stacked_svd_equals_one_svd_call_bit_for_bit(monkeypatch, cpus, count, kind):
    monkeypatch.setattr(linalg, "_CPUS", cpus)
    stack = _svd_stack(_SVD_COUNTS[count](kind), kind)
    calls = []
    real = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(a)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    want = real(stack, compute_uv=False)
    got = linalg.stacked_svd(stack)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # a stack of at least _least_split matrices is split, when more than one
    # CPU is available, into two contiguous halves, the first one the larger
    n = len(stack)
    if cpus > 1 and n >= _least_split(kind):
        assert _first_points(stack, calls) == [(0, (n + 1) // 2), ((n + 1) // 2, n // 2)]
    else:
        assert len(calls) == 1 and calls[0] is stack
    want = real(stack)
    got = linalg.stacked_svd(stack, compute_uv=True)
    assert len(got) == 3
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)


@pytest.mark.parametrize("nan_parts", [[-1], [0, -1], [0]])
def test_stacked_svd_raises_the_first_failing_part_once_every_part_is_done(
        monkeypatch, nan_parts):
    import threading
    import time

    monkeypatch.setattr(linalg, "_CPUS", 2)
    half = _least_split("4x4")
    stack = _svd_stack(2 * half, "4x4")
    for p in nan_parts:
        stack[(p % 2 + 1) * half - 1] = np.nan  # the last matrix of part p
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        np.linalg.svd(stack, compute_uv=False)
    real, lock = np.linalg.svd, threading.Lock()
    running, raised = [0], []

    def slow(a, *args, **kwargs):
        # the part off the calling thread finishes late; each failure is kept
        # with the first point of its part
        with lock:
            running[0] += 1
        try:
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.05)
            return real(a, *args, **kwargs)
        except np.linalg.LinAlgError as e:
            raised.append((e, _first_points(stack, [a])[0][0]))
            raise
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(np.linalg, "svd", slow)
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge") as info:
        linalg.stacked_svd(stack)
    assert running[0] == 0
    assert sorted(start for _, start in raised) == sorted(p % 2 * half for p in nan_parts)
    assert [start for e, start in raised if e is info.value] == [
        min(p % 2 for p in nan_parts) * half]


def test_stacked_svd_answers_each_concurrent_caller_with_its_own_stack(monkeypatch):
    """Four threads splitting stacks at once share one helper thread; each
    gets the decomposition of its own stack, bit for bit."""
    import threading

    monkeypatch.setattr(linalg, "_CPUS", 2)
    stacks = [_svd_stack(_least_split("4x4") + i, "4x4", seed=i) for i in range(4)]
    wants = [(np.linalg.svd(s, compute_uv=False), np.linalg.svd(s)) for s in stacks]
    start, wrong = threading.Barrier(len(stacks)), []

    def caller(i):
        start.wait()
        for call in range(40):
            uv = call % 3 == 0
            got = linalg.stacked_svd(stacks[i], compute_uv=uv)
            want = wants[i][1] if uv else (wants[i][0],)
            if not all(np.array_equal(g, w) for g, w in zip(got if uv else (got,), want)):
                wrong.append((i, call))

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(stacks))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_after_a_split_splits_its_own_stacks(monkeypatch):
    """The helper thread is not carried into a forked child: a child of a
    process that has split a stack starts its own and finishes."""
    import signal
    import time

    monkeypatch.setattr(linalg, "_CPUS", 2)
    stack = _svd_stack(4 * _least_split("10x10"), "10x10")
    want = np.linalg.svd(stack, compute_uv=False)
    assert np.array_equal(linalg.stacked_svd(stack), want)
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child leaves through os._exit
        code = 2
        try:
            code = 0 if np.array_equal(linalg.stacked_svd(stack), want) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    if not done:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done and os.waitstatus_to_exitcode(status) == 0


def test_the_helper_thread_starts_once_per_process():
    """Four threads whose first split stacks arrive together start one
    helper thread, and later splits start no other."""
    script = (
        "import threading\n"
        "import numpy as np\n"
        "from pnalgebroid import linalg\n"
        "linalg._CPUS = 2\n"
        "count = -(-linalg._SPLIT // (linalg._OVERHEAD + 16))\n"
        "stack = np.random.default_rng(1).standard_normal((count, 4, 4))\n"
        "start = threading.Barrier(4)\n"
        "def caller():\n"
        "    start.wait()\n"
        "    for _ in range(20):\n"
        "        linalg.stacked_svd(stack)\n"
        "threads = [threading.Thread(target=caller) for _ in range(4)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join()\n"
        "linalg.stacked_svd(stack, compute_uv=True)\n"
        "print(sorted(t.name for t in threading.enumerate()))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=_SRC))
    assert (proc.stdout, proc.stderr) == ("['MainThread', 'stacked_svd']\n", "")


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


# -- the minor table against first-row cofactor expansion ----------------------

def _first_row_minor(a, rows, cols, memo):
    """The determinant of ``a`` on two bitmasks by expansion along the first
    row alone, memoized: the minor table before the sparse-line rule."""
    if not rows:
        return ONE
    key = (rows, cols)
    if key not in memo:
        low = rows & -rows
        row, rest = a[low.bit_length() - 1], rows ^ low
        total, sign = ZERO, 1
        for j in range(len(row)):
            if (cols >> j) & 1:
                if not row[j].is_zero():
                    total = total + sign * row[j] * _first_row_minor(a, rest, cols ^ (1 << j), memo)
                sign = -sign
        memo[key] = total
    return memo[key]


def _first_row_reference(a):
    """det, adjugate and the number of minors stored, all from one table."""
    n, memo = len(a), {}
    full = (1 << n) - 1
    d = _first_row_minor(a, full, full, memo)
    adj = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = _first_row_minor(a, full ^ (1 << j), full ^ (1 << i), memo)
            adj[i][j] = -cof if (i + j) % 2 else cof
    return d, adj, len(memo)


def _assert_matches_first_row_expansion(a):
    d, adj, _ = _first_row_reference(a)
    assert linalg.det(a) == d
    assert linalg.adjugate(a) == adj
    if d.is_zero():
        with pytest.raises(ExprError):
            linalg.inverse_pair(a)
    else:
        inv = linalg.inverse_pair(a)
        assert inv.num == adj and inv.den == d


def _random_matrix(rng, n, zeros):
    atoms = ["1", "-2", "x", "y", "x*y - 1", "1/2*x", "exp(x - y)", "2/3*exp(y/2)"]
    return M(*[["0" if rng.random() < zeros else rng.choice(atoms) for _ in range(n)]
               for _ in range(n)])


@pytest.mark.parametrize("zeros", [0.0, 0.3, 0.6, 0.85])
def test_minor_table_matches_first_row_expansion_on_random_matrices(zeros):
    import random

    rng = random.Random(int(zeros * 100) + 17)
    for n in range(8):
        for _ in range(3 if n < 6 else 1):
            _assert_matches_first_row_expansion(_random_matrix(rng, n, zeros))


def test_minor_table_matches_first_row_expansion_on_singular_matrices():
    import random

    rng = random.Random(5)
    for n in (1, 2, 4, 6):
        a = _random_matrix(rng, n, 0.2)
        zero_row = [list(r) for r in a]
        zero_row[n // 2] = [ZERO] * n
        zero_col = [[ZERO if j == n - 1 else e for j, e in enumerate(r)] for r in a]
        cases = [zero_row, zero_col]
        if n > 1:
            repeated = [list(r) for r in a]
            repeated[-1] = list(repeated[0])
            cases.append(repeated)
        for b in cases:
            assert linalg.det(b).is_zero()
            _assert_matches_first_row_expansion(b)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_minor_table_matches_first_row_expansion_on_toda(n):
    from pnalgebroid.fixtures import build_toda

    N = [list(row) for row in build_toda(n).N.mat]
    _assert_matches_first_row_expansion(N)
    NN = linalg.mat_mul(N, N)
    if n < 5:
        _assert_matches_first_row_expansion(NN)
    else:  # N∘N at n = 5 is dense: its adjugate by first-row expansion takes long
        assert linalg.det(NN) == _first_row_minor(NN, 1023, 1023, {})


def test_inverse_of_toda5_stores_at_most_half_the_first_row_minors(monkeypatch):
    from pnalgebroid.fixtures import build_toda

    N = [list(row) for row in build_toda(5).N.mat]
    tables = []

    class Recorded(linalg._Minors):
        def __init__(self, a):
            super().__init__(a)
            tables.append(self)

    monkeypatch.setattr(linalg, "_Minors", Recorded)
    inv = linalg.inverse_pair(N)
    d, adj, first_row = _first_row_reference(N)
    assert inv.den == d and inv.num == adj
    assert first_row == 5596
    assert len(tables) == 1 and len(tables[0].memo) <= first_row // 2


def test_a_column_with_one_nonzero_entry_is_expanded_first(monkeypatch):
    # the last two columns are full and every other column holds only its
    # diagonal entry, so each row has two or three nonzero entries: the
    # columns 0, 1, ..., n - 3 are peeled off one minor each, then the 2x2
    # block stores itself and its two 1x1 minors.  First-row expansion
    # branches three ways at each of the first rows instead.
    n = 8
    a = M(*[["x" if j == n - 2 else "y + 1" if j == n - 1 else ("2" if j == i else "0")
             for j in range(n)] for i in range(n)])
    tables = []

    class Recorded(linalg._Minors):
        def __init__(self, a):
            super().__init__(a)
            tables.append(self)

    monkeypatch.setattr(linalg, "_Minors", Recorded)
    assert linalg.det(a).is_zero()  # rows n - 2 and n - 1 agree
    assert len(tables[0].memo) == n + 1
    a[n - 1][n - 1] = parse("y")
    assert linalg.det(a) == _first_row_minor(a, 255, 255, {}) == parse("-64*x")
    assert len(tables[1].memo) == n + 1
