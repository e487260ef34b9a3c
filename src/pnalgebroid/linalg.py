"""Linear algebra helpers over the exact expression ring and over floats.

Symbolic routines never divide inside the ring; results that would be
fractions are returned as a :class:`Frac`, a numerator over a scalar
denominator.  The determinant, the adjugate, the inverse, and the rank and
pivot columns (:func:`pivot_columns`) read one memoized table of minors
(:class:`_Minors`), each expanded along a sparsest line of its submatrix
when it has one with at most two nonzero entries, else along its row that
is sparsest in the whole matrix.  Only
the nullspace and the linear solve, which read the rows of an echelon form,
run a fraction-free (cross-multiplying) elimination, whose entries grow with
each step.  Matrix products sum over the pairs of nonzero factors only.

Numeric routines work on stacks of matrices, one per sample point: a matrix of
expressions is compiled once (:class:`CompiledMatrix`) and evaluated a block
of points at a time, and ranks come from one stacked SVD with the tolerance
policy used throughout: relative to max(sigma_max, 1), with an
ill-conditioned flag when singular values straddle the cutoff with a small
gap.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .expr import Expr, ZERO, ONE, ExprError, _nonzero, div_exact, dot

Matrix = list[list[Expr]]

DEFAULT_TOL = 1e-9
GAP_RATIO = 10.0


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product a @ b over the pairs of nonzero factors; empty operands
    give an empty product."""
    cols = [_nonzero(col) for col in zip(*b)]
    out = []
    for row in a:
        nz = [not e.is_zero() for e in row]
        out.append([dot([(row[k], e) for k, e in col if nz[k]]) for col in cols])
    return out


def mat_vec(a: Matrix, v: list[Expr]) -> list[Expr]:
    """The product a @ v over the pairs of nonzero factors."""
    col = _nonzero(v)
    return [dot([(row[k], e) for k, e in col if not row[k].is_zero()]) for row in a]


def mat_transpose(a: Matrix) -> Matrix:
    return [list(row) for row in zip(*a)]


def mat_identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


class _Minors:
    """The minors of one matrix ``a``, square or not: ``minor(rows, cols)``
    is the determinant of ``a`` restricted to the rows and columns in two
    bitmasks of equal size.  ``memo`` holds every minor computed so far,
    keyed by the one int ``rows << ncols | cols``, so the calls on one table
    share their work.

    A minor is expanded along a line (row or column) of its submatrix with
    at most one nonzero entry when there is one: it is then zero, or that
    entry times one smaller minor.  Otherwise it is expanded along a line
    with exactly two nonzero entries, a row before a column, so that it
    reads two smaller minors.  Otherwise it is expanded along its row with
    the fewest nonzero entries in the whole matrix (``order``, fixed per
    table, ties broken by index), so that the minors of one table branch
    on the same sparse rows first and share their submatrices.  At n = 5,
    ``inverse_pair`` of the Toda recursion operator N stores 1,125 minors,
    where expansion along the first row after the one-nonzero rule stores
    1,650 and first-row expansion alone 5,596; ``det`` of the denser N∘N
    stores 827 where the one-nonzero rule and the first row store 1,092.

    An entry is negated at most once per table (``neg``), at the first
    expansion that reads it with an odd cofactor sign, not at each."""

    def __init__(self, a: Matrix):
        # per row, the columns of its nonzero entries, and per column its rows
        self.a = a
        self.ncols = len(a[0]) if a else 0
        self.row_nz = [sum(1 << j for j, e in enumerate(row) if not e.is_zero()) for row in a]
        self.col_nz = [sum(1 << i for i, m in enumerate(self.row_nz) if (m >> j) & 1)
                       for j in range(self.ncols)]
        self.neg: dict[int, Expr] = {}  # -a[i][j] at i * ncols + j, made at its first read
        self.order: list[int] | None = None  # the rows, sparsest first, made at its first read
        self.memo: dict[int, Expr] = {}

    def minor(self, rows: int, cols: int) -> Expr:
        if not rows:
            return ONE
        key = rows << self.ncols | cols
        total = self.memo.get(key)
        if total is None:
            total = self.memo[key] = self._expand(rows, cols)
        return total

    def _expand(self, rows: int, cols: int) -> Expr:
        # one pass over the rows finds a row with at most one nonzero entry,
        # or else the columns with at least two (`twice`)
        once = twice = 0
        r = rows
        while r:
            low = r & -r
            i = low.bit_length() - 1
            m = self.row_nz[i] & cols
            if not m & (m - 1):
                return self._single(rows, cols, i, m)
            twice |= once & m
            once |= m
            r ^= low
        sparse = cols & ~twice  # the columns with at most one nonzero entry
        if sparse:
            col = sparse & -sparse
            m = self.col_nz[col.bit_length() - 1] & rows
            return self._single(rows, cols, m.bit_length() - 1, col) if m else ZERO
        r = rows  # no line has fewer than two: a row with exactly two, else a column
        while r:
            low = r & -r
            i = low.bit_length() - 1
            if (self.row_nz[i] & cols).bit_count() == 2:
                return self._row(rows, cols, i)
            r ^= low
        c = cols
        while c:
            low = c & -c
            j = low.bit_length() - 1
            if (self.col_nz[j] & rows).bit_count() == 2:
                return self._column(rows, cols, j)
            c ^= low
        if self.order is None:
            self.order = sorted(range(len(self.a)), key=lambda i: (self.row_nz[i].bit_count(), i))
        return self._row(rows, cols, next(i for i in self.order if (rows >> i) & 1))

    def _single(self, rows: int, cols: int, i: int, col: int) -> Expr:
        """The minor when row i has no other nonzero entry than in the
        column of the bitmask ``col`` (0: none), or that column has none
        other than in row i."""
        if not col:
            return ZERO
        sub = self.minor(rows ^ (1 << i), cols ^ col)
        if sub.is_zero():
            return sub
        j = col.bit_length() - 1
        # the cofactor's sign: the entry's row and column within the submatrix
        odd = ((rows & ((1 << i) - 1)).bit_count() + (cols & (col - 1)).bit_count()) & 1
        return (self._negated(i, j) if odd else self.a[i][j]) * sub

    # _row and _column are one loop each, written out: a shared helper over
    # (i, j) pairs made inverse_pair of Toda's N at n = 5 and 6 15-30 % slower

    def _row(self, rows: int, cols: int, i: int) -> Expr:
        """The minor expanded along row i."""
        rest = rows ^ (1 << i)
        above = (rows & ((1 << i) - 1)).bit_count()  # rows before i in the submatrix
        pairs = []
        m = self.row_nz[i] & cols
        while m:
            low = m & -m
            sub = self.minor(rest, cols ^ low)
            if not sub.is_zero():
                # the cofactor's sign: the entry's row and column in the submatrix
                j = low.bit_length() - 1
                odd = (above + (cols & (low - 1)).bit_count()) & 1
                pairs.append((self._negated(i, j) if odd else self.a[i][j], sub))
            m ^= low
        return dot(pairs)

    def _column(self, rows: int, cols: int, j: int) -> Expr:
        """The minor expanded along column j."""
        rest = cols ^ (1 << j)
        left = (cols & ((1 << j) - 1)).bit_count()  # columns before j in the submatrix
        pairs = []
        m = self.col_nz[j] & rows
        while m:
            low = m & -m
            sub = self.minor(rows ^ low, rest)
            if not sub.is_zero():
                i = low.bit_length() - 1
                odd = (left + (rows & (low - 1)).bit_count()) & 1
                pairs.append((self._negated(i, j) if odd else self.a[i][j], sub))
            m ^= low
        return dot(pairs)

    def _negated(self, i: int, j: int) -> Expr:
        key = i * self.ncols + j
        entry = self.neg.get(key)
        if entry is None:
            entry = self.neg[key] = -self.a[i][j]
        return entry


def _square(a: Matrix, what: str) -> int:
    """The size of the square matrix ``a``; raises ValueError naming the
    shape of any other."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError(f"{what} of a non-square matrix: {n} x {len(a[0])}")
    return n


def det(a: Matrix) -> Expr:
    """Exact determinant by cofactor expansion, memoized over minors."""
    full = (1 << _square(a, "determinant")) - 1
    return _Minors(a).minor(full, full)


def adjugate(a: Matrix) -> Matrix:
    """Exact adjugate: adj(a) @ a = det(a) * identity."""
    _square(a, "adjugate")
    return _adjugate(_Minors(a))


def _adjugate(minors: _Minors) -> Matrix:
    # adj[i][j] is the (j, i) cofactor; all n^2 of them read one minor table
    n = len(minors.a)
    full = (1 << n) - 1
    adj = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = minors.minor(full ^ (1 << j), full ^ (1 << i))
            adj[i][j] = -cof if (i + j) % 2 else cof
    return adj


@dataclass
class Frac:
    """A numerator over a common scalar denominator.

    The numerator is an Expr, a (nested) list of them, or a structure with a
    ``map(f)`` applying f to every entry (Bivector, Endo, KForm, Section).
    """

    num: object
    den: Expr

    def exact(self):
        """Divide every entry by the denominator; raises ExprError if one
        does not divide."""
        if self.den == ONE:
            return self.num
        return _map_entries(self.num, lambda e: div_exact(e, self.den))


def _map_entries(x, f):
    if isinstance(x, Expr):
        return f(x)
    if isinstance(x, list):
        return [_map_entries(e, f) for e in x]
    return x.map(f)


def as_frac(x) -> Frac:
    """x itself if it is a Frac, else x over ONE."""
    return x if isinstance(x, Frac) else Frac(x, ONE)


def inverse_pair(a: Matrix) -> Frac:
    """Exact inverse as adjugate over determinant; raises on singular input.
    The determinant and the cofactors come from one minor table."""
    full = (1 << _square(a, "inverse")) - 1
    minors = _Minors(a)
    d = minors.minor(full, full)
    if d.is_zero():
        raise ExprError("matrix is singular (zero determinant)")
    return Frac(_adjugate(minors), d)


def row_echelon(a: Matrix) -> tuple[Matrix, list[int]]:
    """Fraction-free row echelon form; returns (rows, pivot column list)."""
    rows = [list(r) for r in a]
    m = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for col in range(m):
        pr = next((i for i in range(r, len(rows)) if not rows[i][col].is_zero()), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][col]
        for i in range(len(rows)):
            if i == r or rows[i][col].is_zero():
                continue
            f = rows[i][col]
            rows[i] = [piv * rows[i][j] - f * rows[r][j] for j in range(m)]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def pivot_columns(a: Matrix) -> list[int]:
    """The pivot columns of :func:`row_echelon`'s form of ``a``, read from
    its minor table instead: each column independent of the columns before
    it, so that their number is the rank.

    The pivot minor, on the pivot rows and the pivot columns so far, is
    nonzero.  Column j is a pivot exactly when some row i outside the pivot
    rows extends it to a nonzero minor on column j: that minor is the pivot
    minor times a Schur complement, row i's entry of the residue of column j
    after the combination of the pivot columns that matches it on the pivot
    rows, and column j depends on the pivot columns exactly when that
    residue vanishes.  The first such row joins the pivot rows."""
    minors = _Minors(a)
    free = (1 << len(a)) - 1  # the rows outside the pivot rows
    rows = cols = 0
    pivots: list[int] = []
    for j in range(len(minors.col_nz)):
        col = cols | 1 << j
        r = free
        while r:
            low = r & -r
            if not minors.minor(rows | low, col).is_zero():
                rows, cols, free = rows | low, col, free ^ low
                pivots.append(j)
                break
            r ^= low
        if not free:
            break
    return pivots


def symbolic_rank(a: Matrix) -> int:
    """The generic rank of ``a``: its number of pivot columns."""
    return len(pivot_columns(a))


def symbolic_nullspace(a: Matrix) -> list[list[Expr]]:
    """Exact right nullspace basis with denominators cleared.

    Valid on the open set where the pivot pattern of the elimination holds;
    entries are ring elements (no fractions).
    """
    if not a:
        return []
    rows, pivots = row_echelon(a)
    m = len(a[0])
    free = [j for j in range(m) if j not in pivots]
    basis = []
    rows = rows[: len(pivots)]
    for f in free:
        # back-substitute with cross multiplication
        v: list[Expr] = [ZERO] * m
        v[f] = ONE
        for r in range(len(pivots) - 1, -1, -1):
            col = pivots[r]
            rhs = dot(zip(rows[r][col + 1:], v[col + 1:]))
            piv = rows[r][col]
            # piv * v[col] + rhs = 0  =>  scale all by piv, set v[col] = -rhs
            if not rhs.is_zero():
                v = [piv * x for x in v]
                v[col] = -rhs
        basis.append(v)
    return basis


def solve_pair(a: Matrix, b: list[Expr]) -> Frac:
    """Solve a @ x = d * b exactly, returning Frac(x, d) with ring entries.

    Requires a consistent system with unique solution on the generic locus;
    raises ExprError otherwise.
    """
    n, m = len(a), len(a[0])
    aug = [list(a[i]) + [b[i]] for i in range(n)]
    rows, pivots = row_echelon(aug)
    if m in pivots:
        raise ExprError("inconsistent linear system")
    if len(pivots) < m:
        raise ExprError("underdetermined linear system")
    rows = rows[: len(pivots)]
    x: list[Expr] = [ZERO] * m
    d = ONE
    for r in range(m - 1, -1, -1):
        col, row = pivots[r], rows[r]
        # piv * x[col] = d * b[r] - the sum of row[j] * x[j] over later columns
        rhs = dot([(row[m], d)] + [(-row[j], x[j]) for j in range(col + 1, m)
                                   if not x[j].is_zero()])
        piv = row[col]
        # cross-multiply the entries found so far by piv
        x = [v if v.is_zero() else piv * v for v in x]
        x[col] = rhs
        d = d * piv
    return Frac(x, d)


# ---------------------------------------------------------------------------
# numeric
#
# Sample points are processed in blocks: each block is one stacked numpy call
# per step.  A block holds as many points as fit _BUDGET floats into the
# widest per-point array of its matrices (their entries, or their terms), so
# the temporaries of a block stay small whatever the number of points, and a
# small matrix spreads the fixed cost of each step over many points.  _BUDGET
# is 128 points of a 10 x 10 matrix.

_BUDGET = 12_800
_TINY = np.finfo(float).tiny  # the smallest normal float
_HUGE = np.finfo(float).max
_LOG_TINY, _LOG_HUGE = math.log(_TINY), math.log(_HUGE)
UNDERFLOW, OVERFLOW = 1, 2  # per-point fault codes; the graver is larger
_FAULTS = {
    OVERFLOW: "overflows or is not finite",
    UNDERFLOW: "underflows below the smallest normal float",
}


@dataclass
class RankResult:
    rank: int
    singular_values: list[float]
    tolerance: float
    ill_conditioned: bool


class NonFiniteEntry(ArithmeticError):
    """A matrix evaluated at a sample point overflowed, underflowed or is not
    finite; ``values`` is the point."""

    def __init__(self, values: dict[str, float], what: str = _FAULTS[OVERFLOW]):
        super().__init__(f"matrix entry {what} at {values}")
        self.values = values


def point_array(points: list[dict[str, float]], names: list[str]) -> np.ndarray:
    """Sample points given as dicts, as one (points, names) float array."""
    try:
        return np.array([[p[v] for v in names] for p in points],
                        dtype=float).reshape(len(points), len(names))
    except KeyError as e:
        raise ExprError(f"unbound variable {e.args[0]!r} in evaluation") from None


def _block_size(*compiled: CompiledMatrix) -> int:
    """Points per block for a pass over these compiled matrices: _BUDGET
    over the largest of their entry and term counts, at least one."""
    width = max(max(c.shape[0] * c.shape[1], len(c.coeff)) for c in compiled)
    return max(1, _BUDGET // max(width, 1))


def blocks(x: np.ndarray, *compiled: CompiledMatrix) -> Iterator[tuple[int, np.ndarray]]:
    """The rows of a points array in consecutive blocks of the batched
    numeric path over the compiled matrices of the pass, each with the index
    of its first row."""
    size = _block_size(*compiled)
    for start in range(0, x.shape[0], size):
        yield start, x[start:start + size]


class Faults:
    """Fault codes of a batched pass over sample points, checked block by
    block in sample order; ``point(i)`` is the i-th point of the pass as the
    dict that a fault names.

    A point with an entry that is not finite raises NonFiniteEntry at once,
    so it is the first such point of the pass.  An underflow is the lesser
    fault: the first underflowing point is kept, and :meth:`finish` raises
    it only when no entry of the pass was non-finite."""

    def __init__(self, point: Callable[[int], dict[str, float]]):
        self.point = point
        self.underflow: int | None = None

    def check(self, start: int, *faults: np.ndarray) -> None:
        """``faults`` are per-point codes (0 = fine) of the stages that the
        block of points from index ``start`` on went through."""
        codes = np.max(faults, axis=0)
        over = np.flatnonzero(codes == OVERFLOW)
        if over.size:
            raise NonFiniteEntry(self.point(start + int(over[0])))
        if self.underflow is None and codes.any():
            self.underflow = start + int(np.argmax(codes))

    def finish(self) -> None:
        if self.underflow is not None:
            raise NonFiniteEntry(self.point(self.underflow), _FAULTS[UNDERFLOW])


class CompiledMatrix:
    """Rows of expressions compiled once for evaluation at many points.

    Every term c * x^m * exp(l) of every entry becomes a float coefficient,
    a row of the exponential's linear part L and constant l0, and the index
    of its entry; each variable keeps the terms it divides with their
    exponents, or None when every one of them is 1.  A block of points X is
    then one ``exp(X @ L.T + l0)``, one multiply per variable with a nonzero
    exponent (by the coordinate itself when the exponents are None, which
    is bit for bit ``x ** 1.0``), and one sum per entry in term order.
    """

    def __init__(self, rows):
        rows = [list(row) for row in rows]
        n, m = len(rows), len(rows[0]) if rows else 0
        self.shape = (n, m)
        terms = [(i * m + j, mono, lin, c) for i, row in enumerate(rows)
                 for j, e in enumerate(row) for mono, lin, c in e.terms]
        self.variables = sorted({v for _, mono, lin, _ in terms for v, _ in mono}
                                | {v for _, _, lin, _ in terms for v, _ in lin if v})
        col = {v: k for k, v in enumerate(self.variables)}
        self.coeff = np.array([float(c) for *_, c in terms])
        entries = [t[0] for t in terms]
        # terms come grouped by entry: the first term of each nonzero entry
        self.starts = np.array([k for k in range(len(terms))
                                if k == 0 or entries[k] != entries[k - 1]], dtype=np.intp)
        self.entries = np.array([entries[k] for k in self.starts], dtype=np.intp)
        lin = np.zeros((len(terms), len(self.variables)))
        self.offset = np.zeros(len(terms))
        powers: dict[str, list[tuple[int, int]]] = {}
        for k, (_, mono, l, _) in enumerate(terms):
            for v, e in mono:
                powers.setdefault(v, []).append((k, e))
            for v, q in l:
                if v:
                    lin[k, col[v]] = float(q)
                else:
                    self.offset[k] = float(q)
        self.lin = lin if lin.any() or self.offset.any() else None
        # per variable: the terms it divides, and its exponent in each (None
        # when all are 1)
        self.powers = [(col[v], np.array([k for k, _ in ks], dtype=np.intp),
                        None if all(e == 1 for _, e in ks)
                        else np.array([float(e) for _, e in ks]))
                       for v, ks in sorted(powers.items())]

    def coordinates(self, x: np.ndarray, names: list[str]) -> np.ndarray:
        """The columns of ``x``, a (points, names) array, that this matrix
        reads, in the order of ``variables``."""
        col = {v: k for k, v in enumerate(names)}
        missing = [v for v in self.variables if v not in col]
        if missing:
            raise ExprError(f"unbound variable {missing[0]!r} in evaluation")
        return x[:, [col[v] for v in self.variables]]

    def evaluate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The matrices at the rows of ``x`` (from :meth:`coordinates`), stacked
        as (points, n, m), and per point a fault code: 0, or an entry that is
        not finite, or an entry whose every nonzero term has magnitude below
        the smallest normal float (it underflowed; read as 0 it would fake a
        rank drop)."""
        count = x.shape[0]
        under = np.zeros(count, dtype=bool)
        with np.errstate(all="ignore"):
            arg = None if self.lin is None else x @ self.lin.T + self.offset
            t = np.ones((count, len(self.coeff))) if arg is None else np.exp(arg)
            for v, ks, e in self.powers:
                t[:, ks] *= x[:, v, None] if e is None else x[:, v, None] ** e
            t *= self.coeff
            # only points with a term below the normal range, or not finite,
            # need a second look
            mag = np.abs(t)
            odd = np.flatnonzero(~((mag >= _TINY) & (mag <= _HUGE)).all(axis=1))
            if odd.size:
                t[odd], under[odd] = self._log_terms(
                    x[odd], None if arg is None else arg[odd], t[odd])
            out = np.zeros((count, self.shape[0] * self.shape[1]))
            if len(self.coeff):
                out[:, self.entries] = np.add.reduceat(t, self.starts, axis=1)
        fault = np.where(np.isfinite(out).all(axis=1), np.where(under, UNDERFLOW, 0), OVERFLOW)
        return out.reshape(count, *self.shape), fault.astype(np.int8)

    def _log_terms(self, x: np.ndarray, arg: np.ndarray | None,
                   t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The terms ``t`` at these points, each recomputed from its
        log-magnitude when its value is a float but the product came out
        below the normal range or not finite (a factor underflowed or
        overflowed inside it); and per point, whether some entry has nonzero
        terms and all of them have log-magnitude below log(smallest normal
        float).  A term with a zero variable raised to a positive power is
        exactly zero; a term whose log-magnitude is beyond the float range,
        or not a number, stays not finite."""
        logmag = np.log(np.abs(self.coeff)) + (0.0 if arg is None else arg)
        logmag = np.broadcast_to(logmag, t.shape).copy()
        sign = np.broadcast_to(np.sign(self.coeff), t.shape).copy()
        logx = np.log(np.abs(x))
        for v, ks, e in self.powers:
            e = 1.0 if e is None else e
            logmag[:, ks] += e * logx[:, v, None]
            sign[:, ks] *= np.sign(x[:, v, None]) ** e
        lost = (((np.abs(t) < _TINY) & (logmag >= _LOG_TINY))
                | (~np.isfinite(t) & (logmag <= _LOG_HUGE)))
        t = np.where(lost, sign * np.exp(logmag), t)
        nonzero = np.logical_or.reduceat(logmag > -np.inf, self.starts, axis=1)
        normal = np.logical_or.reduceat(logmag >= _LOG_TINY, self.starts, axis=1)
        return t, (nonzero & ~normal).any(axis=1)


def evaluate_matrix(rows, values: dict[str, float]) -> np.ndarray:
    """Float matrix of rows of expressions at the point ``values``: the
    one-point case of :class:`CompiledMatrix`.  Raises NonFiniteEntry naming
    the point when an entry is not finite or underflows."""
    compiled = CompiledMatrix(rows)
    mats, fault = compiled.evaluate(point_array([values], compiled.variables))
    faults = Faults(lambda i: values)
    faults.check(0, fault)
    faults.finish()
    return mats[0]


# A stacked SVD is split into two contiguous halves when its work on one
# thread, matrices x (_OVERHEAD + entries per matrix), reaches _SPLIT and the
# process may run on more than one CPU (its affinity mask, so that
# `taskset -c 0` gives one part): the caller's thread decomposes the first
# half and one helper thread, started by the first stack that splits, the
# second.  Below _SPLIT the split loses: the hand-off costs more than half
# the work, and numpy (2.4) keeps the GIL through a stack whose singular
# values number 500 or fewer, so two such halves run one after the other.
# The constants come from the sweep in BENCH_27.json.  Each matrix is still
# one gesdd call of its own, so the results are those of one call on the
# whole stack, bit for bit.

_OVERHEAD = 32
_SPLIT = 13_000
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_jobs = None  # the helper thread's job queue
_start = threading.Lock()


def _serve(jobs) -> None:
    """The helper thread: decompose each queued part and put its result, or
    the exception it raised, on the part's own reply queue."""
    while True:
        part, compute_uv, reply = jobs.get()
        try:
            reply.put(np.linalg.svd(part, compute_uv=compute_uv))
        except BaseException as e:
            reply.put(e)


def _submit(part: np.ndarray, compute_uv: bool):
    """Queue ``part`` for the helper thread, starting it on first use; its
    decomposition or exception arrives on the returned queue.  `queue` is
    imported here, so that a process that never splits a stack does not
    load it."""
    import queue

    global _jobs
    with _start:
        if _jobs is None:
            jobs = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(jobs,), name="stacked_svd",
                             daemon=True).start()
            _jobs = jobs
    reply = queue.SimpleQueue()
    _jobs.put((part, compute_uv, reply))
    return reply


def _forget_helper() -> None:
    """In a forked child the helper thread does not exist: the next split
    starts the child's own."""
    global _jobs, _start
    _jobs, _start = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def stacked_svd(stack: np.ndarray, compute_uv: bool = False):
    """``np.linalg.svd(stack, compute_uv=compute_uv)`` of a (points, n, m)
    stack, its two halves decomposed at the same time when the stack is
    large enough (see _SPLIT).  An error is raised once both halves have
    finished: the first half's, if both failed."""
    count, n, m = stack.shape
    if _CPUS < 2 or count * (_OVERHEAD + n * m) < _SPLIT:
        return np.linalg.svd(stack, compute_uv=compute_uv)
    half = (count + 1) // 2
    reply = _submit(stack[half:], compute_uv)
    try:
        first = np.linalg.svd(stack[:half], compute_uv=compute_uv)
    except Exception as e:
        first = e
    results = [first, reply.get()]
    for r in results:
        if isinstance(r, BaseException):
            raise r
    if compute_uv:
        return tuple(np.concatenate(arrays) for arrays in zip(*results))
    return np.concatenate(results)


def _rank_of(s: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ranks, cutoffs and ill-conditioned flags from stacked descending
    singular values (points x k): the cutoff rule of every numeric verdict,
    relative to max(sigma_max, 1), with the near-cutoff gap flag."""
    count, k = s.shape
    cutoff = tol * np.maximum(s[:, 0] if k else np.zeros(count), 1.0)
    rank = (s > cutoff[:, None]).sum(axis=1)
    ill = np.zeros(count, dtype=bool)
    if k > 1:
        # the flat index of s[i, clip(rank, 1, k - 1)] in each row i
        at = np.arange(0, count * k, k) + np.minimum(np.maximum(rank, 1), k - 1)
        flat = s.reshape(-1)
        above, below = flat[at - 1], flat[at]
        # a gap beyond the float range reads inf, which is not below GAP_RATIO
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ill = (rank > 0) & (rank < k) & (below > 0) & (above / below < GAP_RATIO)
    return rank, cutoff, ill


def stacked_rank(stack: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """Singular values, ranks, cutoffs and ill-conditioned flags of each
    matrix of a (points, n, m) stack, from one stacked SVD."""
    s = stacked_svd(stack)
    return (s, *_rank_of(s, tol))


def rank_results(stack: np.ndarray, tol: float) -> list[RankResult]:
    """One RankResult per matrix of a (points, n, m) stack."""
    s, rank, cutoff, ill = stacked_rank(stack, tol)
    return [RankResult(int(r), [float(x) for x in row], float(c), bool(f))
            for r, row, c, f in zip(rank, s, cutoff, ill)]


def numeric_rank(mat: np.ndarray, tol: float = DEFAULT_TOL) -> RankResult:
    """SVD rank under the cutoff rule of :func:`_rank_of`."""
    return rank_results(mat[None], tol)[0]
