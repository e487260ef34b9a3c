"""Reduction machinery: projection along bundle epimorphisms, restriction to
symplectic leaves, and pointwise quotients by the stable kernel of an
endomorphism.

Everything symbolic stays in the exact expression ring (division only as
exact division); everything pointwise uses the numeric rank conventions of
:mod:`pnalgebroid.linalg`.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .expr import Expr, ZERO, ONE, ExprError
from .algebroid import CheckReport, KForm, LieAlgebroid, Section, interior, lie_derivative
from .poisson import (
    Bivector,
    invert_poisson,
    koszul_bracket,
    schouten_1r,
)
from .nijenhuis import Endo
from . import linalg
from .linalg import Frac, Matrix, RankResult

TOL_ENV_VAR = "PNALGEBROID_TOL"


def default_tolerance() -> float:
    return float(os.environ.get(TOL_ENV_VAR, linalg.DEFAULT_TOL))


class NotBasic(ExprError):
    """Raised when an expression cannot be rewritten in basic (fiberwise
    constant) form through a given epimorphism."""


@dataclass
class EpimorphismSpec:
    """Bundle epimorphism over a base surjection.

    ``base_map`` sends each target coordinate to its expression in source
    coordinates; ``fiber_map`` has one row per target frame element and one
    column per source frame element, entries over source coordinates.
    """

    name: str
    source: LieAlgebroid
    target: LieAlgebroid
    base_map: dict[str, Expr]
    fiber_map: Matrix

    def __post_init__(self):
        if set(self.base_map) != set(self.target.base_vars):
            raise ValueError("base_map keys must be exactly the target coordinates")
        rt, rs = self.target.rank, self.source.rank
        if len(self.fiber_map) != rt or any(len(row) != rs for row in self.fiber_map):
            raise ValueError("fiber_map must be target-rank x source-rank")

    def kernel_frame(self) -> list[Section]:
        """Exact spanning sections of Ker(fiber map), denominators cleared."""
        basis = linalg.symbolic_nullspace(self.fiber_map)
        return [Section(self.source, tuple(v)) for v in basis]

    def push_components(self, X: Section) -> list[Expr]:
        """Target-frame components of the image, over source coordinates."""
        return linalg.mat_vec(self.fiber_map, list(X.comps))

    def pullback_dual_frame(self, a: int) -> KForm:
        """Pullback of the a-th target dual covector, as a source one-form."""
        return self.source.one_form(list(self.fiber_map[a]))

    def validate(self, points: list[dict[str, float]] | None = None,
                 tol: float | None = None) -> CheckReport:
        """Anchor compatibility (symbolic) and, given sample points,
        fiberwise surjectivity (numeric)."""
        tol = default_tolerance() if tol is None else tol
        failures = []
        for b in range(self.source.rank):
            for w in self.target.base_vars:
                lhs = ZERO
                for i, x in enumerate(self.source.base_vars):
                    lhs = lhs + self.source.anchor[b][i] * self.base_map[w].diff(x)
                rhs = ZERO
                wi = self.target.base_vars.index(w)
                for a in range(self.target.rank):
                    rho = self.target.anchor[a][wi].substitute(self.base_map)
                    rhs = rhs + self.fiber_map[a][b] * rho
                if not (lhs - rhs).is_zero():
                    failures.append(
                        (
                            f"anchors do not intertwine on source frame "
                            f"{self.source.frame[b]}, target coordinate {w}",
                            lhs - rhs,
                        )
                    )
        for values in points or []:
            m = linalg.evaluate_matrix(self.fiber_map, values)
            if linalg.numeric_rank(m, tol).rank < self.target.rank:
                failures.append(
                    (f"fiber map not surjective at sample point {values}", ZERO)
                )
        return CheckReport(not failures, failures)


# ---------------------------------------------------------------------------
# basic rewriting

def _classify_images(base_map: dict[str, Expr]):
    renames: dict[str, tuple[str, Fraction]] = {}
    exps: list[tuple[str, Fraction, dict[str, Fraction]]] = []
    for tgt, img in base_map.items():
        terms = img.terms
        if len(terms) != 1:
            continue
        mono, lin, coeff = terms[0]
        if not lin and len(mono) == 1 and mono[0][1] == 1:
            renames[mono[0][0]] = (tgt, coeff)
        elif not mono:
            exps.append((tgt, coeff, dict(lin)))
    return renames, exps


def rewrite_basic(epi: EpimorphismSpec, e: Expr) -> Expr:
    """Rewrite a source expression in target coordinates.

    Succeeds exactly when each term factors through the base map: monomial
    factors through coordinate renames, exponential factors through integer
    powers of exponential-type images plus exponentials of renamed
    coordinates.  Raises :class:`NotBasic` otherwise.
    """
    renames, exps = _classify_images(epi.base_map)
    out = ZERO
    for mono, lin, coeff in e.terms:
        t_mono: dict[str, int] = {}
        c = coeff
        for v, k in mono:
            if v not in renames:
                raise NotBasic(
                    f"monomial factor {v}^{k} does not factor through the base map"
                )
            tgt, cv = renames[v]
            t_mono[tgt] = t_mono.get(tgt, 0) + k
            c = c / cv**k
        # match the exponential part against integer powers of the
        # exponential-type images, on the non-renamed coordinates
        lvec = dict(lin)
        const = lvec.pop("", Fraction(0))
        hard_vars = sorted(
            {v for v in lvec if v not in renames}
            | {v for _, _, l in exps for v in l if v and v not in renames}
        )
        ns = [Fraction(0)] * len(exps)
        if hard_vars:
            rows = [
                [l.get(v, Fraction(0)) for _, _, l in exps] for v in hard_vars
            ]
            rhs = [lvec.get(v, Fraction(0)) for v in hard_vars]
            try:
                ns = [x.constant_value() for x in linalg.solve_pair(
                    [[Expr.number(q) for q in row] for row in rows],
                    [Expr.number(q) for q in rhs],
                ).exact()]
            except ExprError:
                raise NotBasic(
                    "exponential factor does not factor through the base map: "
                    f"exp({Expr((((), lin, Fraction(1)),))})"
                ) from None
        t_lin: dict[str, Fraction] = {}
        for (tgt, cj, lj), nj in zip(exps, ns):
            if nj.denominator != 1 or nj < 0:
                raise NotBasic(
                    f"exponential image {tgt} would need power {nj}; "
                    "not expressible in the target class"
                )
            nj = int(nj)
            if nj:
                t_mono[tgt] = t_mono.get(tgt, 0) + nj
                c = c / cj**nj
                const = const + (-nj) * lj.get("", Fraction(0))
        for v in list(lvec):
            if v in renames:
                resid = lvec[v] - sum(
                    nj * lj.get(v, Fraction(0)) for (_, _, lj), nj in zip(exps, ns)
                )
                if resid:
                    tgt, cv = renames[v]
                    t_lin[tgt] = t_lin.get(tgt, Fraction(0)) + resid / cv
        if const:
            t_lin[""] = t_lin.get("", Fraction(0)) + const
        key_mono = tuple(sorted((v, k) for v, k in t_mono.items() if k))
        key_lin = tuple(sorted((v, k) for v, k in t_lin.items() if k))
        out = out + Expr(((key_mono, key_lin, c),))
    if not (out.substitute(epi.base_map) - e).is_zero():
        raise NotBasic("rewriting verification failed (expression is not basic)")
    return out


# ---------------------------------------------------------------------------
# projectability (valid under the hypothesis that the anchor maps the kernel
# onto the vertical distribution of the base surjection)

def projectable_section_check(epi: EpimorphismSpec, X: Section) -> CheckReport:
    """[xi, X] must take values in the kernel for every kernel section xi."""
    failures = []
    for xi in epi.kernel_frame():
        br = epi.source.bracket(xi, X)
        for a, e in enumerate(epi.push_components(br)):
            if not e.is_zero():
                failures.append(
                    (
                        f"[{xi}, X] leaves the kernel in target component "
                        f"{epi.target.frame[a]}",
                        e,
                    )
                )
    return CheckReport(not failures, failures)


def projectable_form_check(epi: EpimorphismSpec, alpha: KForm) -> CheckReport:
    """alpha(xi) = 0 and L_xi alpha = 0 for every kernel section xi."""
    failures = []
    for xi in epi.kernel_frame():
        pairing = interior(xi, alpha)
        if alpha.degree == 1:
            vals = [next(iter(pairing.comps.values()))] if pairing.comps else []
            if not pairing.is_zero():
                failures.append((f"form does not annihilate kernel section {xi}", vals[0]))
        elif not pairing.is_zero():
            k, v = next(iter(sorted(pairing.comps.items())))
            failures.append((f"form does not annihilate kernel section {xi} at {k}", v))
        lie = lie_derivative(xi, alpha)
        if not lie.is_zero():
            k, v = next(iter(sorted(lie.comps.items())))
            failures.append((f"form not invariant along kernel section {xi} at {k}", v))
    return CheckReport(not failures, failures)


def projectable_bivector_check(epi: EpimorphismSpec, P: Bivector) -> CheckReport:
    """([xi, P])# must send projectable covectors into the kernel."""
    failures = []
    pullbacks = [epi.pullback_dual_frame(a) for a in range(epi.target.rank)]
    for xi in epi.kernel_frame():
        Q = schouten_1r(xi, P)
        for a, beta in enumerate(pullbacks):
            img = Q.sharp(beta)
            for b, e in enumerate(epi.push_components(img)):
                if not e.is_zero():
                    failures.append(
                        (
                            f"([xi, P])# of pulled-back covector "
                            f"{epi.target.frame[a]} leaves the kernel "
                            f"(component {epi.target.frame[b]})",
                            e,
                        )
                    )
    return CheckReport(not failures, failures)


def _is_basic_function(epi: EpimorphismSpec, kernel: list[Section], f: Expr) -> bool:
    """Fiberwise constancy: killed by the anchor image of every section of
    ``kernel``, the kernel frame of epi (the vertical distribution, under
    the standing hypothesis)."""
    return all(epi.source.anchor_apply(xi, f).is_zero() for xi in kernel)


def projectable_complement(epi: EpimorphismSpec) -> list[Frac]:
    """Sections mapping onto the target frame: for each target frame element
    Frac(X_a, d_a) with fiber_map(X_a) = d_a * (a-th unit), d_a a basic
    function.  Used as the projectable complement of the kernel."""
    rows, pivots = linalg.row_echelon(epi.fiber_map)
    kernel = epi.kernel_frame()
    out = []
    for a in range(epi.target.rank):
        sub = [[epi.fiber_map[r][c] for c in pivots] for r in range(epi.target.rank)]
        unit = [ONE if r == a else ZERO for r in range(epi.target.rank)]
        x = linalg.solve_pair(sub, unit)
        comps = [ZERO] * epi.source.rank
        for c, val in zip(pivots, x.num):
            comps[c] = val
        if not _is_basic_function(epi, kernel, x.den):
            raise ExprError(
                f"could not build a projectable complement: scale {x.den} is "
                "not a basic function"
            )
        out.append(Frac(Section(epi.source, tuple(comps)), x.den))
    return out


def projectable_endo_check(epi: EpimorphismSpec, N: Endo) -> CheckReport:
    """N preserves the kernel, and L_xi N maps a projectable complement into
    the kernel, for every kernel section xi."""
    return _endo_check(epi, N)[0]


def _endo_check(epi: EpimorphismSpec, N: Endo) -> tuple[CheckReport, list[Frac] | None]:
    """projectable_endo_check and the projectable complement it built (None
    when N does not preserve the kernel)."""
    failures = []
    kernel = epi.kernel_frame()
    for xi in kernel:
        img = N.apply(xi)
        for b, e in enumerate(epi.push_components(img)):
            if not e.is_zero():
                failures.append(
                    (
                        f"endomorphism does not preserve the kernel: N({xi}) "
                        f"has target component {epi.target.frame[b]}",
                        e,
                    )
                )
    if failures:
        # the Lie-derivative condition is only meaningful once the kernel is
        # preserved; report the structural failure first
        return CheckReport(False, failures), None
    complement = projectable_complement(epi)
    for xi in kernel:
        for a, X in enumerate(c.num for c in complement):
            lie = epi.source.bracket(xi, N.apply(X)) - N.apply(epi.source.bracket(xi, X))
            for b, e in enumerate(epi.push_components(lie)):
                if not e.is_zero():
                    failures.append(
                        (
                            f"(L_xi N) of complement section {a} leaves the "
                            f"kernel (target component {epi.target.frame[b]})",
                            e,
                        )
                    )
    return CheckReport(not failures, failures), complement


# ---------------------------------------------------------------------------
# projection

def project_section(epi: EpimorphismSpec, X: Section) -> Section:
    comps = [rewrite_basic(epi, e) for e in epi.push_components(X)]
    return Section(epi.target, tuple(comps))


def project_bivector(epi: EpimorphismSpec, P: Bivector, check: bool = True) -> Bivector:
    """Push a bivector through the epimorphism:
    (proj P)(a, b) o pi = P(pullback a, pullback b)."""
    if check:
        rep = projectable_bivector_check(epi, P)
        if not rep.ok:
            raise ExprError(f"bivector is not projectable: {rep.witness()}")
    rt = epi.target.rank
    pm = linalg.mat_mul(
        linalg.mat_mul(epi.fiber_map, [list(r) for r in P.mat]),
        linalg.mat_transpose(epi.fiber_map),
    )
    entries = {}
    for a in range(rt):
        for b in range(a + 1, rt):
            if not pm[a][b].is_zero():
                entries[(a, b)] = rewrite_basic(epi, pm[a][b])
    return Bivector.from_entries(epi.target, entries)


def project_endo(epi: EpimorphismSpec, N: Endo, check: bool = True) -> Endo:
    """Push an endomorphism through the epimorphism using a projectable
    complement of the kernel."""
    if check:
        rep, complement = _endo_check(epi, N)
        if not rep.ok:
            raise ExprError(f"endomorphism is not projectable: {rep.witness()}")
    else:
        complement = projectable_complement(epi)
    rt = epi.target.rank
    cols: list[list[Expr]] = []
    for X in complement:
        push = Frac(epi.push_components(N.apply(X.num)), X.den).exact()
        cols.append([rewrite_basic(epi, e) for e in push])
    mat = [[cols[a][b] for a in range(rt)] for b in range(rt)]
    return Endo.from_matrix(epi.target, mat)


# ---------------------------------------------------------------------------
# characteristic distribution and leaf restriction

def characteristic_rank(
    P: Bivector, points: list[dict[str, float]], tol: float | None = None
) -> list[RankResult]:
    """Pointwise rank of the characteristic distribution rho(P#(dual))."""
    tol = default_tolerance() if tol is None else tol
    A = P.algebroid
    r, n = A.rank, A.dim
    rows = [
        [
            sum((P.mat[a][b] * A.anchor[b][i] for b in range(r)), ZERO)
            for i in range(n)
        ]
        for a in range(r)
    ]
    return [linalg.numeric_rank(linalg.evaluate_matrix(rows, values), tol)
            for values in points]


@dataclass
class LeafSpec:
    """A leaf of the characteristic foliation.

    Either ``full_rank`` (the leaf is the whole base and the bivector is
    invertible), or an embedded leaf: coordinates, the embedding of the
    source coordinates, covectors whose sharps frame the restricted bundle,
    and names for the induced frame.
    """

    full_rank: bool = False
    leaf_vars: list[str] = field(default_factory=list)
    embedding: dict[str, Expr] = field(default_factory=dict)
    covectors: list[KForm] = field(default_factory=list)
    frame_names: list[str] = field(default_factory=list)


@dataclass
class LeafRestriction:
    algebroid: LieAlgebroid
    omega: object            # KForm or Frac
    endo: object | None      # Endo or None
    frame_sections: list[Section]
    flat_sign: int | None
    report: CheckReport


def _flat_sign_for(omega: Frac, sharps: list[Section], covs: list[KForm],
                   message: str) -> tuple[int | None, CheckReport]:
    """Realized sign s in flat(sharp(alpha)) = s * alpha, checked exactly
    with the denominator of omega cleared; ``message`` is the failure."""
    for s in (-1, 1):
        if all(
            (interior(X, omega.num) - alpha.scale(omega.den).scale(Expr.number(s))).is_zero()
            for X, alpha in zip(sharps, covs)
        ):
            return s, CheckReport(True, [])
    return None, CheckReport(False, [(message, ZERO)])


def restrict_to_leaf(P: Bivector, N: Endo | None, leaf: LeafSpec) -> LeafRestriction:
    """Restriction of (A, P, N) to a symplectic leaf.

    On the leaf the bivector inverts to a two-form; the realized sign of
    flat o sharp (minus the identity, with our conventions) is computed, not
    assumed, and reported in ``flat_sign``.
    """
    A = P.algebroid
    if leaf.full_rank:
        omega = invert_poisson(P)
        covs = [A.dual_frame_form(a) for a in range(A.rank)]
        sharps = [P.sharp(c) for c in covs]
        sign, rep = _flat_sign_for(
            omega, sharps, covs, "flat o sharp is not a scalar multiple of the identity"
        )
        return LeafRestriction(A, omega, N, sharps, sign, rep)

    m = len(leaf.covectors)
    names = leaf.frame_names or [f"L{i+1}" for i in range(m)]
    subs = leaf.embedding
    sharps_src = [P.sharp(alpha) for alpha in leaf.covectors]
    cols = [[c.substitute(subs) for c in X.comps] for X in sharps_src]
    M = [[cols[s][a] for s in range(m)] for a in range(A.rank)]  # rank x m

    # anchor: solve the embedding tangent map for the leaf components
    ti = [
        [subs[x].diff(lv) for lv in leaf.leaf_vars] for x in A.base_vars
    ]
    anchor_rows = []
    for s in range(m):
        rho = [
            sum(
                (cols[s][a] * A.anchor[a][i].substitute(subs) for a in range(A.rank)),
                ZERO,
            )
            for i in range(A.dim)
        ]
        anchor_rows.append(linalg.solve_pair(ti, rho).exact())

    # structure functions from the Koszul brackets of the chosen covectors
    structure: dict[tuple[int, int], dict[int, Expr]] = {}
    for s in range(m):
        for t in range(s + 1, m):
            kb = koszul_bracket(P, leaf.covectors[s], leaf.covectors[t])
            Y = P.sharp(kb)
            y = [c.substitute(subs) for c in Y.comps]
            coeffs = linalg.solve_pair(M, y).exact()
            row = {u: c for u, c in enumerate(coeffs) if not c.is_zero()}
            if row:
                structure[(s, t)] = row
    A_L = LieAlgebroid.from_tables(list(leaf.leaf_vars), names, anchor_rows, structure)

    omega_entries = {}
    for s in range(m):
        for t in range(s + 1, m):
            v = P.apply(leaf.covectors[s], leaf.covectors[t]).substitute(subs)
            if not v.is_zero():
                omega_entries[(s, t)] = v
    omega = KForm(A_L, 2, omega_entries)

    endo_L = None
    if N is not None:
        ncols = []
        for s in range(m):
            y = [c.substitute(subs) for c in N.apply(sharps_src[s]).comps]
            ncols.append(linalg.solve_pair(M, y).exact())
        endo_L = Endo.from_matrix(
            A_L, [[ncols[s][u] for s in range(m)] for u in range(m)]
        )

    # realized sign of flat o sharp against the pulled-back covectors
    pullbacks = [
        A_L.one_form(
            [
                sum(
                    (
                        dict(alpha.comps).get((a,), ZERO).substitute(subs) * cols[t][a]
                        for a in range(A.rank)
                    ),
                    ZERO,
                )
                for t in range(m)
            ]
        )
        for alpha in leaf.covectors
    ]
    sign, rep = _flat_sign_for(
        Frac(omega, ONE), [A_L.frame_section(s) for s in range(m)], pullbacks,
        "flat o sharp on the leaf is not +/- the pullback",
    )
    return LeafRestriction(A_L, omega, endo_L, sharps_src, sign, rep)


# ---------------------------------------------------------------------------
# pointwise Riesz index and fiberwise quotient

@dataclass
class RieszPointReport:
    values: dict[str, float]
    ranks: list[int]
    index: int
    dim_kernel: int
    kernel_basis: np.ndarray
    image_basis: np.ndarray
    direct_sum_ok: bool
    ill_conditioned: bool


def riesz_at_point(N: Endo, values: dict[str, float], tol: float | None = None) -> RieszPointReport:
    """Stable-kernel index at one point: first k with rank N^k = rank N^{k+1}
    (k = 0 exactly when N is invertible there).  Raises
    linalg.NonFiniteEntry when N or one of its powers is not finite there."""
    tol = default_tolerance() if tol is None else tol
    return _riesz(linalg.evaluate_matrix(N.mat, values), values, tol)


def _riesz(mat: np.ndarray, values: dict[str, float], tol: float) -> RieszPointReport:
    """riesz_at_point on N already evaluated at ``values``."""
    r = mat.shape[0]
    powers = [np.eye(r)]
    ranks = [r]
    ill = False
    for l in range(1, r + 2):
        with np.errstate(over="ignore", invalid="ignore"):
            powers.append(powers[-1] @ mat)
        if not np.isfinite(powers[-1]).all():
            raise linalg.NonFiniteEntry(values)
        res = linalg.numeric_rank(powers[-1], tol)
        ranks.append(res.rank)
        ill = ill or res.ill_conditioned
        if res.rank == ranks[-2]:
            k = l - 1
            break
    else:
        k = r
    if k == 0:
        kernel, image = np.zeros((r, 0)), np.eye(r)
    else:
        _, kernel, image = linalg.numeric_bases(powers[k], tol)
    if kernel.shape[1] == 0:
        direct = True
    else:
        res = linalg.numeric_rank(np.hstack([kernel, image]), tol)
        direct = res.rank == r
        ill = ill or res.ill_conditioned
    return RieszPointReport(values, ranks, k, kernel.shape[1], kernel, image, direct, ill)


def riesz_report(
    N: Endo,
    points: list[dict[str, float]],
    tol: float | None = None,
) -> list[RieszPointReport]:
    return [riesz_at_point(N, values, tol) for values in points]


def sample_points(
    variables: list[str],
    count: int,
    seed: int,
    box: dict[str, tuple[float, float]] | None = None,
    default_box: tuple[float, float] = (-1.0, 1.0),
) -> list[dict[str, float]]:
    """Reproducible sample points inside per-variable boxes."""
    rng = random.Random(seed)
    box = box or {}
    out = []
    for _ in range(count):
        values = {}
        for v in variables:
            lo, hi = box.get(v, default_box)
            values[v] = rng.uniform(lo, hi)
        out.append(values)
    return out


@dataclass
class FiberReport:
    values: dict[str, float]
    index: int
    dim_quotient: int
    p_tilde: np.ndarray
    n_tilde: np.ndarray
    p_nondegenerate: bool
    n_invertible: bool
    direct_sum_ok: bool
    ill_conditioned: bool


def fiberwise_reduce(
    P: Bivector,
    N: Endo,
    points: list[dict[str, float]],
    tol: float | None = None,
) -> list[FiberReport]:
    """Pointwise quotient by the stable kernel of N, with the bivector and
    the endomorphism pushed to the quotient (identified with the image of
    the stable power via an orthonormal basis)."""
    tol = default_tolerance() if tol is None else tol
    out = []
    for values in points:
        nmat = linalg.evaluate_matrix(N.mat, values)
        rz = _riesz(nmat, values, tol)
        C = rz.image_basis
        p_t = C.T @ linalg.evaluate_matrix(P.mat, values) @ C
        n_t = C.T @ nmat @ C
        d = C.shape[1]
        p_ok = linalg.numeric_rank(p_t, tol).rank == d
        n_ok = linalg.numeric_rank(n_t, tol).rank == d
        out.append(
            FiberReport(
                values, rz.index, d, p_t, n_t, p_ok, n_ok, rz.direct_sum_ok,
                rz.ill_conditioned,
            )
        )
    return out


# ---------------------------------------------------------------------------
# symbolic kernel / image subalgebroid checks

@dataclass
class SubalgebroidReport:
    index: int
    kernel_frame: list[Section]
    image_frame: list[Section]
    kernel_closed: CheckReport
    image_closed: CheckReport
    decomposition_ok: bool

    @property
    def ok(self) -> bool:
        return self.kernel_closed.ok and self.image_closed.ok and self.decomposition_ok


def symbolic_riesz_index(N: Endo, max_power: int | None = None) -> int:
    """First k with generic rank N^k = rank N^{k+1} (symbolic ranks)."""
    r = N.algebroid.rank
    limit = r if max_power is None else max_power
    prev = r
    power = Endo.identity(N.algebroid)
    for l in range(1, limit + 2):
        power = power.compose(N)
        rk = linalg.symbolic_rank([list(row) for row in power.mat])
        if rk == prev:
            return l - 1
        prev = rk
    return limit


def kernel_subalgebroid_check(N: Endo, index: int | None = None) -> SubalgebroidReport:
    """Bracket closure of Ker N^k and Im N^k and the generic direct-sum
    decomposition, k the (symbolic) stable index."""
    A = N.algebroid
    k = symbolic_riesz_index(N) if index is None else index
    nk = N.power(max(k, 1)) if k > 0 else Endo.identity(A)
    nk_mat = [list(row) for row in nk.mat]
    kernel = [Section(A, tuple(v)) for v in linalg.symbolic_nullspace(nk_mat)]
    rank_im = linalg.symbolic_rank(nk_mat)
    # image frame: a maximal independent set of columns of N^k
    _, pivots = linalg.row_echelon(linalg.mat_transpose(nk_mat))
    cols = linalg.mat_transpose(nk_mat)
    image = [Section(A, tuple(cols[a])) for a in range(A.rank)]
    image = [image[a] for a in pivots] if pivots else []
    left_null = linalg.symbolic_nullspace(linalg.mat_transpose(nk_mat))

    k_fail = []
    for i in range(len(kernel)):
        for j in range(i + 1, len(kernel)):
            br = A.bracket(kernel[i], kernel[j])
            img = nk.apply(br)
            for g, e in enumerate(img.comps):
                if not e.is_zero():
                    k_fail.append(
                        (f"kernel bracket ({i}, {j}) leaves Ker N^{k} "
                         f"(component {A.frame[g]})", e)
                    )
    i_fail = []
    for i in range(len(image)):
        for j in range(i + 1, len(image)):
            br = A.bracket(image[i], image[j])
            for w in left_null:
                pairing = sum((wc * bc for wc, bc in zip(w, br.comps)), ZERO)
                if not pairing.is_zero():
                    i_fail.append(
                        (f"image bracket ({i}, {j}) leaves Im N^{k}", pairing)
                    )
    decomposition = len(kernel) + rank_im == A.rank
    return SubalgebroidReport(
        k, kernel, image,
        CheckReport(not k_fail, k_fail),
        CheckReport(not i_fail, i_fail),
        decomposition,
    )


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
    lifts = [lift_section(A, X, kind).comps for X in sections for kind in ("c", "v")]
    for values in points:
        span = linalg.evaluate_matrix([X.comps for X in sections], values).T
        rank_b = linalg.numeric_rank(span, tol)
        coeffs = np.array([rng.uniform(-1.0, 1.0) for _ in sections])
        y = span @ coeffs
        total_values = dict(values)
        total_values.update({ys[a]: float(y[a]) for a in range(A.rank)})
        gens = linalg.evaluate_matrix(lifts, total_values)
        # rows X^c, X^v per section; the base part of X^c is rho(X)
        rank_rho = linalg.numeric_rank(gens[::2, :A.dim], tol)
        rank_f = linalg.numeric_rank(gens, tol)
        expected = rank_rho.rank + rank_b.rank
        out.append(
            FBPointReport(
                values, y, rank_f.rank, rank_rho.rank, rank_b.rank,
                rank_f.rank == expected,
                rank_f.ill_conditioned or rank_b.ill_conditioned or rank_rho.ill_conditioned,
            )
        )
    return out
