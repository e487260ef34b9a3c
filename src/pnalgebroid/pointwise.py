"""The pointwise, numeric side of the reduction: the stable-kernel (Riesz)
index and the quotient by the stable kernel at sample points, the rank of
the characteristic distribution, and the lifted-distribution count.

Every routine here is batched: its matrices of expressions are compiled once
(:class:`pnalgebroid.linalg.CompiledMatrix`) and each block of points is
evaluated and ranked in stacked numpy calls, under the numeric rank
conventions of :mod:`pnalgebroid.linalg`.  A block is sized from the
matrices of its pass (:func:`pnalgebroid.linalg.blocks`), and a bivector
that reads no variable is ranked once for all the points where P~ = P.  The
points are one float array (:class:`Points`) and the results of a block are
arrays with one entry per point; the report dataclasses are built from them,
and each sampled CLI verdict is folded from them here, one fold per pass.
Neither changes a value: each matrix of a stack is decomposed on its own.
:mod:`pnalgebroid.reduction` re-exports the public names.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Iterator, NamedTuple

import numpy as np

from .algebroid import LieAlgebroid, Section
from .poisson import Bivector
from .nijenhuis import Endo
from . import linalg
from .linalg import RankResult

TOL_ENV_VAR = "PNALGEBROID_TOL"


def default_tolerance() -> float:
    """The numeric tolerance: the variable PNALGEBROID_TOL when it is set,
    else linalg.DEFAULT_TOL.  Raises ValueError naming the variable unless it
    reads as a finite float strictly between 0 and 1."""
    text = os.environ.get(TOL_ENV_VAR)
    if text is None:
        return linalg.DEFAULT_TOL
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 < tol < 1:  # also false for nan
        raise ValueError(f"{TOL_ENV_VAR} must be a number strictly between 0 and 1, "
                         f"not {text!r}")
    return tol


class Points:
    """Sample points as one (count, len(names)) float array.  ``given`` holds
    the caller's dicts when the points came as dicts, so that a report or a
    fault names the caller's own dict; otherwise a dict is built only for a
    point that is named."""

    def __init__(self, names: list[str], x: np.ndarray,
                 given: list[dict[str, float]] | None = None):
        self.names, self.x, self.given = list(names), x, given

    @classmethod
    def of(cls, points: list[dict[str, float]], names: list[str]) -> "Points":
        return cls(names, linalg.point_array(points, names), points)

    def point(self, i: int) -> dict[str, float]:
        if self.given is not None:
            return self.given[i]
        return dict(zip(self.names, self.x[i].tolist()))


def _as_points(points: Points | list[dict[str, float]],
               *compiled: linalg.CompiledMatrix) -> Points:
    """Points given as dicts, as an array over the variables that the
    compiled matrices read; a :class:`Points` as it is."""
    if isinstance(points, Points):
        return points
    return Points.of(points, sorted(set().union(*(c.variables for c in compiled))))


def _stacks(rows, points: list[dict[str, float]]) -> Iterator[tuple[int, np.ndarray]]:
    """A matrix of expressions evaluated at the points, one stack per block
    with the index of its first point (faults raised as in every pass)."""
    compiled = linalg.CompiledMatrix(rows)
    pts = _as_points(points, compiled)
    faults = linalg.Faults(pts.point)
    for start, x in linalg.blocks(pts.x, compiled):
        mats, fault = compiled.evaluate(x)
        faults.check(start, fault)
        yield start, mats
    faults.finish()


# ---------------------------------------------------------------------------
# characteristic distribution

def characteristic_rank(P: Bivector, points: list[dict[str, float]]) -> list[RankResult]:
    """Pointwise rank of the characteristic distribution rho(P#(dual))."""
    rows = linalg.mat_mul(P.mat, P.algebroid.anchor)
    tol = default_tolerance()
    return [res for _, mats in _stacks(rows, points) for res in linalg.rank_results(mats, tol)]


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


def riesz_at_point(N: Endo, values: dict[str, float]) -> RieszPointReport:
    """Stable-kernel index at one point: first k with rank N^k = rank N^{k+1}
    (k = 0 exactly when N is invertible there), ranks cut at
    :func:`default_tolerance`.  Raises linalg.NonFiniteEntry when N or one of
    its powers is not finite there."""
    return riesz_report(N, [values])[0]


def riesz_report(N: Endo, points: list[dict[str, float]]) -> list[RieszPointReport]:
    """:func:`riesz_at_point` at every point, batched: N is compiled once,
    and each block of points is evaluated, raised to its powers and
    decomposed in stacked numpy calls.  Raises linalg.NonFiniteEntry naming
    the first point, in sample order, at which N or a power of N that the
    index needs is not finite (or N underflows)."""
    r = N.algebroid.rank
    # points of index 0 share one read-only empty kernel and identity image
    kernel0, image0 = np.zeros((r, 0)), np.eye(r)
    kernel0.flags.writeable = image0.flags.writeable = False
    out = []
    for start, rz in _riesz_blocks(N, points):
        count = rz.index.size
        kernels, images = [kernel0] * count, [image0] * count
        for group, ker, img in rz.bases.values():
            for i, a, b in zip(group.tolist(), ker, img):
                kernels[i], images[i] = a, b
        out += [
            RieszPointReport(values, [k for k in ranks if k >= 0], index, dim,
                             kernels[i], images[i], direct, ill, sigma, cutoff)
            for i, (values, ranks, index, dim, direct, ill, sigma, cutoff) in enumerate(zip(
                points[start:start + count], rz.ranks.tolist(), rz.index.tolist(),
                rz.dim_kernel.tolist(),
                *(a.tolist() for a in (rz.split.ok, rz.ill, rz.split.sigma, rz.split.cutoff))))
        ]
    return out


class _Tests(NamedTuple):
    """Rank tests at a block of points: whether each passed, and the
    sigma_min and cutoff of each, NaN where no test ran."""

    ok: np.ndarray
    sigma: np.ndarray
    cutoff: np.ndarray


class _RankFold:
    """A numeric check folded over its per-point rank tests a block of points
    at a time: the verdict, the first failing point as the witness, the
    margin, and whether a point of its pass was ill-conditioned."""

    def __init__(self, what: str):
        self.what, self.ok, self.witness, self.ratio, self.ill = what, True, None, math.inf, False

    def block(self, pts: Points, start: int, ok: np.ndarray, sigma: np.ndarray,
              cutoff: np.ndarray, ill: np.ndarray) -> None:
        """The points of ``pts`` from index ``start`` on: per point one test,
        or one row of tests folded in row order; ``sigma`` and ``cutoff`` of
        each, NaN where no rank test decided, and the ill flag of each point."""
        decided = ~np.isnan(sigma)
        if decided.any():
            self.ratio = min(self.ratio, float((sigma[decided] / cutoff[decided]).min()))
        if self.ok and not ok.all():
            first = np.unravel_index(np.argmin(ok), ok.shape)
            self.ok = False
            self.witness = (f"{self.what} at {pts.point(start + int(first[0]))}: "
                            f"sigma_min {float(sigma[first]):.6g}, "
                            f"cutoff {float(cutoff[first]):.6g}")
        self.ill = self.ill or bool(ill.any())

    @property
    def margin(self) -> float | None:
        """The smallest sigma_min / cutoff over the deciding rank tests, to 6
        significant digits: above 1 every test passed with that factor to
        spare, below 1 one failed.  None when no rank test decided."""
        return None if self.ratio == math.inf else float(f"{self.ratio:.6g}")


@dataclass
class _RieszBlock:
    """The stable-kernel splitting at a block of points, one entry per point
    (the fields of RieszPointReport).  ``split`` is the deciding rank test:
    rank N = r at index 0, else the direct-sum test.  ``ranks`` holds the
    ranks of N^0, N^1, ... up to the power that decided the index, then -1.
    ``bases`` maps each rank k of a stable power of index >= 1 to its points
    and their stacked kernel (r - k columns) and image (k columns) bases;
    points of index 0 are in none: their kernel is empty and their image is
    all of A.  ``fault`` is the fault code of the powers (a point with a
    fault has no meaningful entries)."""

    index: np.ndarray
    dim_kernel: np.ndarray
    split: _Tests
    ill: np.ndarray
    ranks: np.ndarray
    bases: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]
    fault: np.ndarray


def _riesz_blocks(N: Endo,
                  points: Points | list[dict[str, float]]) -> Iterator[tuple[int, _RieszBlock]]:
    """The Riesz splitting one block of points at a time, each with the index
    of its first point, so that a caller folding the blocks holds one of
    them.  An underflow is raised after the last block (see linalg.Faults)."""
    tol = default_tolerance()
    compiled = linalg.CompiledMatrix(N.mat)
    pts = _as_points(points, compiled)
    faults = linalg.Faults(pts.point)
    for start, x in linalg.blocks(pts.x, compiled):
        mats, fault = compiled.evaluate(compiled.coordinates(x, pts.names))
        rz = _riesz_block(mats, tol)
        faults.check(start, fault, rz.fault)
        yield start, rz
    faults.finish()


def _riesz_block(mats: np.ndarray, tol: float) -> _RieszBlock:
    """The Riesz splitting for a stack of evaluated N.

    Only the points still active (not yet stabilised) are raised to the next
    power, and only the previous and the current power are kept."""
    count, r = mats.shape[0], mats.shape[1]
    ranks = np.full((count, r + 2), -1)
    ranks[:, 0] = r
    index = np.full(count, r)
    ill = np.zeros(count, dtype=bool)
    fault = np.zeros(count, dtype=np.int8)
    sigma, cutoff = np.full(count, math.nan), np.full(count, math.nan)
    finished = []           # (points, their N^index, its rank) for points of index >= 1
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
        ranks[active, l] = rank
        ill[active] |= il
        if l == 1 and r:
            sigma[active], cutoff[active] = s[:, -1], cut
        done = (rank == prev_rank) | (l == r + 1)
        index[active[done]] = l - 1
        if prev is not None and done.any():
            finished.append((active[done], prev[done], prev_rank[done]))
        active, prev, prev_rank = active[~done], cur[~done], rank[~done]
        if not active.size:
            break
    dim_kernel = np.zeros(count, dtype=int)
    direct = np.ones(count, dtype=bool)
    bases = {}
    if finished:
        split, stable, rank = (np.concatenate(parts) for parts in zip(*finished))
        # the vectors are the bases; the rank is the one that decided the index
        u, _, vt = linalg.stacked_svd(stable, compute_uv=True)
        dim_kernel[split] = r - rank
        # the direct-sum test, one stacked rank per kernel dimension
        for k in np.unique(rank).tolist():
            sel = rank == k
            group, kernels, images = split[sel], vt[sel, k:].transpose(0, 2, 1), u[sel, :, :k]
            s, full, cut, il = linalg.stacked_rank(np.concatenate([kernels, images], axis=2), tol)
            direct[group] = full == r
            ill[group] |= il
            sigma[group], cutoff[group] = s[:, -1], cut
            bases[k] = (group, kernels, images)
    return _RieszBlock(index, dim_kernel, _Tests(direct, sigma, cutoff), ill, ranks, bases, fault)


def _riesz_fold(N: Endo, pts: Points,
                stable: tuple[int, int] | None = None) -> tuple[_RankFold, list[int], list[int]]:
    """The direct-sum test folded over the points, and the indices and kernel
    dimensions seen.  With ``stable`` = (index, dimension) a point whose
    stable kernel has another index or dimension fails the check too."""
    fold = _RankFold("image + kernel of the stable power do not span" if stable is None
                     else "no stable kernel of index {} and dimension {}".format(*stable))
    indices, dims = set(), set()
    for start, rz in _riesz_blocks(N, pts):
        ok = rz.split.ok
        if stable is not None:
            ok = (rz.index == stable[0]) & (rz.dim_kernel == stable[1]) & ok
        fold.block(pts, start, ok, rz.split.sigma, rz.split.cutoff, rz.ill)
        indices.update(rz.index.tolist())
        dims.update(rz.dim_kernel.tolist())
    return fold, sorted(indices), sorted(dims)


def _sample(
    variables: list[str],
    count: int,
    seed: int,
    box: dict[str, tuple[float, float]] | None = None,
) -> Points:
    """:func:`sample_points` as one array: one ``rng.random()`` per value,
    point by point in the order of the variables, scaled to its box as
    ``rng.uniform`` scales it."""
    rng = random.Random(seed)
    box = box or {}
    lo, hi = np.array([box.get(v, (-1.0, 1.0)) for v in variables],
                      dtype=float).reshape(len(variables), 2).T
    r = np.fromiter(iter(rng.random, None), float, count=count * len(variables))
    return Points(variables, lo + (hi - lo) * r.reshape(count, len(variables)))


def sample_points(
    variables: list[str],
    count: int,
    seed: int,
    box: dict[str, tuple[float, float]] | None = None,
) -> list[dict[str, float]]:
    """Reproducible sample points inside per-variable boxes, (-1, 1) by default."""
    return [dict(zip(variables, row)) for row in _sample(variables, count, seed, box).x.tolist()]


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


def fiberwise_reduce(P: Bivector, N: Endo, points: list[dict[str, float]]) -> list[FiberReport]:
    """Pointwise quotient by the stable kernel of N, with the bivector and
    the endomorphism pushed to the quotient (identified with the image of
    the stable power via an orthonormal basis C: P~ = C^T P C, N~ = C^T N C).

    Batched like :func:`riesz_report`: P and N are compiled once, and per
    block of points P~ and N~ are formed and ranked as one stack per
    quotient dimension.  Raises linalg.NonFiniteEntry naming the first
    point, in sample order, at which N, a needed power of N, or P is not
    finite (or N or P underflows)."""
    out = []
    for start, fb in _fiberwise_blocks(P, N, points):
        count = fb.dim_quotient.size
        p_tilde, n_tilde = [None] * count, [None] * count
        for group, p_red, n_red in fb.reduced:
            for i, a, b in zip(group.tolist(), p_red, n_red):
                p_tilde[i], n_tilde[i] = a, b
        rz = fb.riesz
        out += [
            FiberReport(values, index, dim, p_tilde[i], n_tilde[i], *rest)
            for i, (values, index, dim, *rest) in enumerate(zip(
                points[start:start + count], rz.index.tolist(), fb.dim_quotient.tolist(),
                *(a.tolist() for a in (fb.p.ok, fb.n.ok, rz.split.ok, rz.ill, fb.p.sigma,
                                       fb.p.cutoff, fb.n.sigma, fb.n.cutoff))))
        ]
    return out


@dataclass
class _FiberBlock:
    """The quotient by the stable kernel at a block of points, one entry per
    point (the fields of FiberReport): ``p`` and ``n`` are the rank tests of
    P~ and N~, and ``reduced`` lists per quotient its points and their
    stacked P~ and N~."""

    riesz: _RieszBlock
    dim_quotient: np.ndarray
    p: _Tests
    n: _Tests
    reduced: list[tuple[np.ndarray, np.ndarray, np.ndarray]]


def _fiberwise_blocks(P: Bivector, N: Endo,
                      points: Points | list[dict[str, float]]) -> Iterator[tuple[int, _FiberBlock]]:
    """The fiberwise quotient one block of points at a time, as _riesz_blocks."""
    tol = default_tolerance()
    cn, cp = linalg.CompiledMatrix(N.mat), linalg.CompiledMatrix(P.mat)
    pts = _as_points(points, cn, cp)
    faults = linalg.Faults(pts.point)
    for start, x in linalg.blocks(pts.x, cn, cp):
        nmats, n_fault = cn.evaluate(cn.coordinates(x, pts.names))
        rz = _riesz_block(nmats, tol)
        pmats, p_fault = cp.evaluate(cp.coordinates(x, pts.names))
        faults.check(start, n_fault, rz.fault, p_fault)
        yield start, _fiber_block(rz, nmats, pmats, tol, not cp.variables)
    faults.finish()


def _fiberwise_fold(P: Bivector, N: Endo,
                    pts: Points) -> tuple[_RankFold, _RankFold, _RankFold, list[int]]:
    """The rank tests of P~, of N~ and of the pair (per point P~'s test, then
    N~'s) folded over the points in one pass, and the quotient dimensions
    seen."""
    p = _RankFold("reduced bivector degenerate")
    n = _RankFold("reduced endomorphism singular")
    pair = _RankFold("reduced pair degenerate")
    dims = set()
    for start, fb in _fiberwise_blocks(P, N, pts):
        p.block(pts, start, *fb.p, fb.riesz.ill)
        n.block(pts, start, *fb.n, fb.riesz.ill)
        pair.block(pts, start, *(np.stack(t, axis=1) for t in zip(fb.p, fb.n)), fb.riesz.ill)
        dims.update(fb.dim_quotient.tolist())
    return p, n, pair, sorted(dims)


def _full_rank(stack: np.ndarray, tol: float,
               constant: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whether each matrix of a (points, d, d) stack has rank d, with its
    sigma_min and cutoff.  A ``constant`` stack holds one matrix at every
    point: it is decomposed once, and that result stands for every point."""
    s, rank, cut, _ = linalg.stacked_rank(stack[:1] if constant else stack, tol)
    shape = stack.shape[:1]
    return (np.broadcast_to(rank == stack.shape[1], shape), np.broadcast_to(s[:, -1], shape),
            np.broadcast_to(cut, shape))


def _fiber_block(rz: _RieszBlock, nmats: np.ndarray, pmats: np.ndarray,
                 tol: float, p_constant: bool) -> _FiberBlock:
    """P~ and N~ and their rank tests, one stack per quotient: at index 0 the
    quotient is all of A, else the image of the stable power.  A
    zero-dimensional quotient passes both tests, with NaN sigma and cutoff.
    ``p_constant`` says that P reads no variable: then P~ = P at index 0 is
    one matrix at every point."""
    count, r = nmats.shape[0], nmats.shape[1]
    p, n = (_Tests(np.ones(count, dtype=bool), np.full(count, math.nan),
                   np.full(count, math.nan)) for _ in range(2))
    reduced = []
    quotients = [(np.flatnonzero(rz.index == 0), None)]
    quotients += [(group, images) for group, _, images in rz.bases.values()]
    for group, C in quotients:
        if not group.size:
            continue
        if C is None:
            p_red, n_red = pmats[group], nmats[group]
        else:
            Ct = C.transpose(0, 2, 1)
            p_red, n_red = Ct @ pmats[group] @ C, Ct @ nmats[group] @ C
        reduced.append((group, p_red, n_red))
        d = p_red.shape[1]
        if not d:
            continue
        p.ok[group], p.sigma[group], p.cutoff[group] = _full_rank(
            p_red, tol, p_constant and C is None)
        if C is None:
            # N~ = N, whose rank test is the first power's of the Riesz pass
            n.sigma[group], n.cutoff[group] = rz.split.sigma[group], rz.split.cutoff[group]
        else:
            n.ok[group], n.sigma[group], n.cutoff[group] = _full_rank(n_red, tol)
    return _FiberBlock(rz, r - rz.dim_kernel, p, n, reduced)


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
) -> list[FBPointReport]:
    """Dimension count for the lifted distribution of a subbundle B spanned
    by the given sections: at points of B the lifted distribution should
    have dimension dim rho(B) + rank B.  The verdict is a consistency check
    (the count is necessary, not sufficient, for the structural condition)."""
    from .lifts import fiber_vars, lift_section

    tol = default_tolerance()
    rng = random.Random(seed)
    out = []
    ys = fiber_vars(A)
    cs = linalg.CompiledMatrix([X.comps for X in sections])
    cl = linalg.CompiledMatrix([lift_section(A, X, kind).comps
                                for X in sections for kind in ("c", "v")])
    # the base coordinates read; the fiber coordinates become extra columns
    names = sorted(set(cs.variables) | (set(cl.variables) - set(ys)))
    pts = Points.of(points, names)
    faults = linalg.Faults(pts.point)
    for start, x in linalg.blocks(pts.x, cs, cl):
        count = x.shape[0]
        # explicit shapes keep an empty section list a rank-0 subbundle
        span, span_fault = cs.evaluate(cs.coordinates(x, names))
        span = span.reshape(count, len(sections), A.rank).transpose(0, 2, 1)
        # the same draws, in the same order, as one point at a time
        coeffs = np.fromiter(iter(partial(rng.uniform, -1.0, 1.0), None), float,
                             count=count * len(sections))
        y = (span @ coeffs.reshape(count, len(sections), 1))[:, :, 0]
        gens, gens_fault = cl.evaluate(cl.coordinates(np.hstack([x, y]), names + ys))
        faults.check(start, span_fault, gens_fault)
        gens = gens.reshape(count, 2 * len(sections), A.dim + A.rank)
        # rows X^c, X^v per section; the base part of X^c is rho(X)
        _, rank_b, _, ill_b = linalg.stacked_rank(span, tol)
        _, rank_rho, _, ill_rho = linalg.stacked_rank(gens[:, ::2, :A.dim], tol)
        _, rank_f, _, ill_f = linalg.stacked_rank(gens, tol)
        out += [
            FBPointReport(values, fiber_point, f, rho, b, f == rho + b, ill)
            for values, fiber_point, f, rho, b, ill in zip(
                points[start:start + count], y, rank_f.tolist(), rank_rho.tolist(),
                rank_b.tolist(), (ill_f | ill_b | ill_rho).tolist())
        ]
    faults.finish()
    return out
