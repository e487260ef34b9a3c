"""The pointwise, numeric side of the reduction: the stable-kernel (Riesz)
index and the quotient by the stable kernel at sample points, the rank of
the characteristic distribution, and the lifted-distribution count.

Every routine here is batched: its matrices of expressions are compiled once
(:class:`pnalgebroid.linalg.CompiledMatrix`) and each block of points is
evaluated and ranked in stacked numpy calls, under the numeric rank
conventions of :mod:`pnalgebroid.linalg`.  :mod:`pnalgebroid.reduction`
re-exports the public names.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .expr import dot
from .algebroid import LieAlgebroid, Section
from .poisson import Bivector
from .nijenhuis import Endo
from . import linalg
from .linalg import RankResult

TOL_ENV_VAR = "PNALGEBROID_TOL"


def default_tolerance() -> float:
    return float(os.environ.get(TOL_ENV_VAR, linalg.DEFAULT_TOL))


def _ranks(rows, points: list[dict[str, float]], tol: float) -> list[RankResult]:
    """Numeric rank of a matrix of expressions at each point, batched."""
    compiled, faults = linalg.CompiledMatrix(rows), linalg.Faults()
    out = []
    for block in linalg.blocks(points):
        mats, fault = compiled.evaluate(compiled.coordinates(block))
        faults.check(block, fault)
        out += linalg.rank_results(mats, tol)
    faults.finish()
    return out


# ---------------------------------------------------------------------------
# characteristic distribution

def characteristic_rank(
    P: Bivector, points: list[dict[str, float]], tol: float | None = None
) -> list[RankResult]:
    """Pointwise rank of the characteristic distribution rho(P#(dual))."""
    tol = default_tolerance() if tol is None else tol
    A = P.algebroid
    r, n = A.rank, A.dim
    rows = [
        [
            dot((P.mat[a][b], A.anchor[b][i]) for b in range(r))
            for i in range(n)
        ]
        for a in range(r)
    ]
    return _ranks(rows, points, tol)


# ---------------------------------------------------------------------------
# pointwise Riesz index and fiberwise quotient

@dataclass
class RieszPointReport:
    """Stable-kernel splitting at one point.  ``sigma_min`` and ``cutoff``
    belong to the rank test that decided the splitting there: rank N = r
    at index 0, else rank [kernel | image] = r (the direct-sum test)."""

    values: dict[str, float]
    ranks: list[int]
    index: int
    dim_kernel: int
    kernel_basis: np.ndarray
    image_basis: np.ndarray
    direct_sum_ok: bool
    ill_conditioned: bool
    sigma_min: float = math.nan
    cutoff: float = math.nan


def riesz_at_point(N: Endo, values: dict[str, float], tol: float | None = None) -> RieszPointReport:
    """Stable-kernel index at one point: first k with rank N^k = rank N^{k+1}
    (k = 0 exactly when N is invertible there).  Raises
    linalg.NonFiniteEntry when N or one of its powers is not finite there."""
    return riesz_report(N, [values], tol)[0]


def riesz_report(
    N: Endo,
    points: list[dict[str, float]],
    tol: float | None = None,
) -> list[RieszPointReport]:
    """:func:`riesz_at_point` at every point, batched: N is compiled once,
    and each block of points is evaluated, raised to its powers and
    decomposed in stacked numpy calls.  Raises linalg.NonFiniteEntry naming
    the first point, in sample order, at which N or a power of N that the
    index needs is not finite (or N underflows)."""
    return [r for block in _riesz_blocks(N, points, tol) for r in block]


def _riesz_blocks(N: Endo, points: list[dict[str, float]],
                  tol: float | None = None) -> Iterator[list[RieszPointReport]]:
    """riesz_report one block of points at a time, so that a caller folding
    the reports holds one block of them.  An underflow is raised after the
    last block (see linalg.Faults)."""
    tol = default_tolerance() if tol is None else tol
    compiled, faults = linalg.CompiledMatrix(N.mat), linalg.Faults()
    for block in linalg.blocks(points):
        mats, fault = compiled.evaluate(compiled.coordinates(block))
        reports, power_fault = _riesz_block(mats, block, tol)
        faults.check(block, fault, power_fault)
        yield reports
    faults.finish()


def _riesz_block(mats: np.ndarray, block: list[dict[str, float]],
                 tol: float) -> tuple[list[RieszPointReport], np.ndarray]:
    """Riesz reports for a stack of evaluated N, and the per-point fault code
    of the powers (a point with a fault has no meaningful report).

    Only the points still active (not yet stabilised) are raised to the next
    power, and only the previous and the current power are kept."""
    count, r = mats.shape[0], mats.shape[1]
    ranks = [[r] for _ in range(count)]
    index = np.full(count, r)
    ill = np.zeros(count, dtype=bool)
    fault = np.zeros(count, dtype=np.int8)
    sigma, cutoff = np.full(count, math.nan), np.full(count, math.nan)
    finished = []           # (points, their N^index) for points of index >= 1
    active, prev, prev_rank = np.arange(count), None, np.full(count, r)
    for l in range(1, r + 2):
        with np.errstate(all="ignore"):
            cur = mats[active] if prev is None else prev @ mats[active]
        finite = np.isfinite(cur).all(axis=(1, 2))
        if not finite.all():
            fault[active[~finite]] = linalg.OVERFLOW
            active, cur, prev_rank = active[finite], cur[finite], prev_rank[finite]
            prev = None if prev is None else prev[finite]
        s, rank, cut, il = linalg.stacked_rank(cur, tol)
        for i, k in zip(active, rank):
            ranks[i].append(int(k))
        ill[active] |= il
        if l == 1 and r:
            sigma[active], cutoff[active] = s[:, -1], cut
        done = (rank == prev_rank) | (l == r + 1)
        index[active[done]] = l - 1
        if prev is not None and done.any():
            finished.append((active[done], prev[done]))
        active, prev, prev_rank = active[~done], cur[~done], rank[~done]
        if not active.size:
            break
    # points of index 0 share one read-only empty kernel and identity image
    kernel0, image0 = np.zeros((r, 0)), np.eye(r)
    kernel0.flags.writeable = image0.flags.writeable = False
    kernels, images = [kernel0] * count, [image0] * count
    direct = np.ones(count, dtype=bool)
    if finished:
        split = np.concatenate([i for i, _ in finished])
        u, s, vt = np.linalg.svd(np.concatenate([p for _, p in finished]))
        rank = linalg._rank_of(s, tol)[0]
        for i, k, ui, vti in zip(split, rank, u, vt):
            kernels[i], images[i] = vti[k:].T, ui[:, :k]
        # the direct-sum test, one stacked rank per kernel dimension
        for k in sorted(set(rank.tolist())):
            sel = rank == k
            group = split[sel]
            stack = np.concatenate([vt[sel, k:].transpose(0, 2, 1), u[sel, :, :k]], axis=2)
            s, full, cut, il = linalg.stacked_rank(stack, tol)
            direct[group] = full == r
            ill[group] |= il
            sigma[group], cutoff[group] = s[:, -1], cut
    reports = [
        RieszPointReport(
            values, ranks[i], int(index[i]), kernels[i].shape[1], kernels[i], images[i],
            bool(direct[i]), bool(ill[i]), float(sigma[i]), float(cutoff[i]),
        )
        for i, values in enumerate(block)
    ]
    return reports, fault


def sample_points(
    variables: list[str],
    count: int,
    seed: int,
    box: dict[str, tuple[float, float]] | None = None,
) -> list[dict[str, float]]:
    """Reproducible sample points inside per-variable boxes, (-1, 1) by default."""
    rng = random.Random(seed)
    box = box or {}
    out = []
    for _ in range(count):
        values = {}
        for v in variables:
            lo, hi = box.get(v, (-1.0, 1.0))
            values[v] = rng.uniform(lo, hi)
        out.append(values)
    return out


@dataclass
class FiberReport:
    """The quotient by the stable kernel at one point.  ``p_sigma_min`` and
    ``p_cutoff`` (``n_...`` for the endomorphism) belong to the rank test of
    the reduced bivector; NaN when the quotient is zero-dimensional."""

    values: dict[str, float]
    index: int
    dim_quotient: int
    p_tilde: np.ndarray
    n_tilde: np.ndarray
    p_nondegenerate: bool
    n_invertible: bool
    direct_sum_ok: bool
    ill_conditioned: bool
    p_sigma_min: float = math.nan
    p_cutoff: float = math.nan
    n_sigma_min: float = math.nan
    n_cutoff: float = math.nan


def fiberwise_reduce(
    P: Bivector,
    N: Endo,
    points: list[dict[str, float]],
    tol: float | None = None,
) -> list[FiberReport]:
    """Pointwise quotient by the stable kernel of N, with the bivector and
    the endomorphism pushed to the quotient (identified with the image of
    the stable power via an orthonormal basis C: P~ = C^T P C, N~ = C^T N C).

    Batched like :func:`riesz_report`: P and N are compiled once, and per
    block of points P~ and N~ are formed and ranked as one stack per
    quotient dimension.  Raises linalg.NonFiniteEntry naming the first
    point, in sample order, at which N, a needed power of N, or P is not
    finite (or N or P underflows)."""
    return [r for block in _fiberwise_blocks(P, N, points, tol) for r in block]


def _fiberwise_blocks(P: Bivector, N: Endo, points: list[dict[str, float]],
                      tol: float | None = None) -> Iterator[list[FiberReport]]:
    """fiberwise_reduce one block of points at a time, as _riesz_blocks."""
    tol = default_tolerance() if tol is None else tol
    cn, cp = linalg.CompiledMatrix(N.mat), linalg.CompiledMatrix(P.mat)
    faults = linalg.Faults()
    for block in linalg.blocks(points):
        nmats, n_fault = cn.evaluate(cn.coordinates(block))
        rz, power_fault = _riesz_block(nmats, block, tol)
        pmats, p_fault = cp.evaluate(cp.coordinates(block))
        faults.check(block, n_fault, power_fault, p_fault)
        # one stack per quotient dimension; at index 0 the quotient is all of A
        groups: dict[int | None, list[int]] = {}
        for i, z in enumerate(rz):
            groups.setdefault(z.image_basis.shape[1] if z.index else None, []).append(i)
        p_tests, n_tests = [None] * len(rz), [None] * len(rz)
        for d, group in groups.items():
            C = None if d is None else np.stack([rz[i].image_basis for i in group])
            for tests, mats in ((p_tests, pmats), (n_tests, nmats)):
                for i, test in zip(group, _quotient_tests(C, mats[group], tol)):
                    tests[i] = test
        yield [
            FiberReport(z.values, z.index, z.image_basis.shape[1], p[0], n[0], p[1], n[1],
                        z.direct_sum_ok, z.ill_conditioned, p[2], p[3], n[2], n[3])
            for z, p, n in zip(rz, p_tests, n_tests)
        ]
    faults.finish()


def _quotient_tests(C: np.ndarray | None, mats: np.ndarray, tol: float) -> list[tuple]:
    """Per matrix M of a stack, with C the stacked quotient bases (None for
    the identity): (C^T M C, whether it has full rank, its sigma_min, its
    cutoff)."""
    reduced = mats if C is None else C.transpose(0, 2, 1) @ mats @ C
    d = reduced.shape[1]
    if not d:
        return [(m, True, math.nan, math.nan) for m in reduced]
    s, rank, cutoff, _ = linalg.stacked_rank(reduced, tol)
    return [(m, bool(k == d), float(sig), float(cut))
            for m, k, sig, cut in zip(reduced, rank, s[:, -1], cutoff)]


# ---------------------------------------------------------------------------
# lifted-distribution dimension count

@dataclass
class FBPointReport:
    values: dict[str, float]
    fiber_point: np.ndarray
    dim_lifted: int
    dim_anchor_image: int
    rank_subbundle: int
    consistent: bool
    ill_conditioned: bool


def condition_fb_check(
    A: LieAlgebroid,
    sections: list[Section],
    points: list[dict[str, float]],
    seed: int,
    tol: float | None = None,
) -> list[FBPointReport]:
    """Dimension count for the lifted distribution of a subbundle B spanned
    by the given sections: at points of B the lifted distribution should
    have dimension dim rho(B) + rank B.  The verdict is a consistency check
    (the count is necessary, not sufficient, for the structural condition)."""
    from .lifts import fiber_vars, lift_section

    tol = default_tolerance() if tol is None else tol
    rng = random.Random(seed)
    out = []
    ys = fiber_vars(A)
    cs = linalg.CompiledMatrix([X.comps for X in sections])
    cl = linalg.CompiledMatrix([lift_section(A, X, kind).comps
                                for X in sections for kind in ("c", "v")])
    faults = linalg.Faults()
    for block in linalg.blocks(points):
        count = len(block)
        # explicit shapes keep an empty section list a rank-0 subbundle
        span, span_fault = cs.evaluate(cs.coordinates(block))
        span = span.reshape(count, len(sections), A.rank).transpose(0, 2, 1)
        # the same draws, in the same order, as one point at a time
        coeffs = np.array([rng.uniform(-1.0, 1.0) for _ in range(count * len(sections))])
        y = (span @ coeffs.reshape(count, len(sections), 1))[:, :, 0]
        total = [dict(values, **{ys[a]: float(y[k, a]) for a in range(A.rank)})
                 for k, values in enumerate(block)]
        gens, gens_fault = cl.evaluate(cl.coordinates(total))
        faults.check(block, span_fault, gens_fault)
        gens = gens.reshape(count, 2 * len(sections), A.dim + A.rank)
        # rows X^c, X^v per section; the base part of X^c is rho(X)
        _, rank_b, _, ill_b = linalg.stacked_rank(span, tol)
        _, rank_rho, _, ill_rho = linalg.stacked_rank(gens[:, ::2, :A.dim], tol)
        _, rank_f, _, ill_f = linalg.stacked_rank(gens, tol)
        for k, values in enumerate(block):
            out.append(
                FBPointReport(
                    values, y[k], int(rank_f[k]), int(rank_rho[k]), int(rank_b[k]),
                    bool(rank_f[k] == rank_rho[k] + rank_b[k]),
                    bool(ill_f[k] or ill_b[k] or ill_rho[k]),
                )
            )
    faults.finish()
    return out
