"""Linear algebra helpers over the exact expression ring and over floats.

Symbolic routines use fraction-free (cross-multiplying) elimination, so no
division ever happens inside the ring; results that would be fractions are
returned as a :class:`Frac`, a numerator over a scalar denominator.  Numeric
routines wrap numpy's SVD with the tolerance policy used throughout: relative
to max(sigma_max, 1), with an ill-conditioned flag when singular values
straddle the cutoff with a small gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import Expr, ZERO, ONE, ExprError, Point, div_exact

Matrix = list[list[Expr]]

DEFAULT_TOL = 1e-9
GAP_RATIO = 10.0


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    out = [[ZERO for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for j in range(m):
            s = ZERO
            for t in range(k):
                s = s + a[i][t] * b[t][j]
            out[i][j] = s
    return out


def mat_vec(a: Matrix, v: list[Expr]) -> list[Expr]:
    return [sum((a[i][j] * v[j] for j in range(len(v))), ZERO) for i in range(len(a))]


def mat_transpose(a: Matrix) -> Matrix:
    return [list(row) for row in zip(*a)]


def mat_identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def _minor(a: Matrix, rows: int, cols: int, memo: dict[tuple[int, int], Expr]) -> Expr:
    """Determinant of ``a`` restricted to the rows and columns in two bitmasks
    of equal size, by expansion along the first of the rows.  ``memo`` holds
    every minor computed so far, so calls that share it share their work."""
    if not rows:
        return ONE
    key = (rows, cols)
    total = memo.get(key)
    if total is not None:
        return total
    low = rows & -rows
    row, rest = a[low.bit_length() - 1], rows ^ low
    total = ZERO
    sign = 1
    for j in range(len(row)):
        if not (cols >> j) & 1:
            continue
        entry = row[j]
        if not entry.is_zero():
            sub = _minor(a, rest, cols ^ (1 << j), memo)
            if not sub.is_zero():
                term = entry * sub
                total = total + (term if sign > 0 else -term)
        sign = -sign
    memo[key] = total
    return total


def det(a: Matrix) -> Expr:
    """Exact determinant by cofactor expansion, memoized over minors."""
    full = (1 << len(a)) - 1
    return _minor(a, full, full, {})


def adjugate(a: Matrix) -> Matrix:
    """Exact adjugate: adj(a) @ a = det(a) * identity."""
    return _adjugate(a, {})


def _adjugate(a: Matrix, memo: dict[tuple[int, int], Expr]) -> Matrix:
    # adj[i][j] is the (j, i) cofactor; all n^2 of them read one minor table
    n = len(a)
    full = (1 << n) - 1
    adj = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = _minor(a, full ^ (1 << j), full ^ (1 << i), memo)
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
    memo: dict[tuple[int, int], Expr] = {}
    full = (1 << len(a)) - 1
    d = _minor(a, full, full, memo)
    if d.is_zero():
        raise ExprError("matrix is singular (zero determinant)")
    return Frac(_adjugate(a, memo), d)


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


def symbolic_rank(a: Matrix) -> int:
    _, pivots = row_echelon(a)
    return len(pivots)


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
        scale = ONE
        for r in range(len(pivots) - 1, -1, -1):
            col = pivots[r]
            rhs = ZERO
            for j in range(col + 1, m):
                rhs = rhs + rows[r][j] * v[j]
            piv = rows[r][col]
            # piv * v[col] + rhs = 0  =>  scale all by piv, set v[col] = -rhs
            if not rhs.is_zero():
                v = [piv * x for x in v]
                v[col] = -rhs
                scale = scale * piv
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
        col = pivots[r]
        rhs = rows[r][m] * d
        for j in range(col + 1, m):
            rhs = rhs - rows[r][j] * x[j]
        piv = rows[r][col]
        # piv * x[col] = rhs, cross-multiply all previous entries by piv
        x = [piv * v for v in x]
        x[col] = rhs
        d = d * piv
    return Frac(x, d)


# ---------------------------------------------------------------------------
# numeric

@dataclass
class RankResult:
    rank: int
    singular_values: list[float]
    tolerance: float
    ill_conditioned: bool


class NonFiniteEntry(ArithmeticError):
    """A matrix evaluated at a sample point overflowed or is not finite."""

    def __init__(self, values: dict[str, float]):
        super().__init__(f"matrix entry overflows or is not finite at {values}")
        self.values = values


def evaluate_matrix(rows, values: dict[str, float]) -> np.ndarray:
    """Float matrix of rows of expressions at the point ``values``; raises
    NonFiniteEntry naming the point when an entry is not finite."""
    pt = Point(values)
    try:
        mat = np.array([[e.evaluate(pt) for e in row] for row in rows], dtype=float)
    except OverflowError:
        raise NonFiniteEntry(values) from None
    if not np.isfinite(mat).all():
        raise NonFiniteEntry(values)
    return mat


def _rank_of(s: np.ndarray, tol: float) -> RankResult:
    """Rank from descending singular values: the cutoff rule of every numeric
    verdict, relative to max(sigma_max, 1), with the near-cutoff gap flag."""
    cutoff = tol * max(float(s[0]) if len(s) else 0.0, 1.0)
    rank = int(np.sum(s > cutoff))
    ill = False
    if 0 < rank < len(s):
        below = float(s[rank])
        above = float(s[rank - 1])
        if below > 0 and above / below < GAP_RATIO:
            ill = True
    return RankResult(rank, [float(x) for x in s], cutoff, ill)


def numeric_rank(mat: np.ndarray, tol: float = DEFAULT_TOL) -> RankResult:
    """SVD rank under the cutoff rule of :func:`_rank_of`."""
    s = np.linalg.svd(mat, compute_uv=False) if mat.size else np.zeros(0)
    return _rank_of(s, tol)


def numeric_bases(mat: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[RankResult, np.ndarray, np.ndarray]:
    """Rank and orthonormal bases (columns) of the right nullspace and the
    column space, from one full SVD."""
    u, s, vt = np.linalg.svd(mat)
    res = _rank_of(s, tol)
    return res, vt[res.rank:].T, u[:, :res.rank]
