"""Reduction machinery: projection along bundle epimorphisms, restriction to
symplectic leaves, and pointwise quotients by the stable kernel of an
endomorphism.

Everything symbolic stays in the exact expression ring (division only as
exact division).  The pointwise quotients and the other numeric routines
live in :mod:`pnalgebroid.pointwise` and are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .expr import Expr, ZERO, ONE, ExprError, dot, rational
from .algebroid import CheckReport, KForm, LieAlgebroid, Section, interior, lie_derivative
from .poisson import (
    Bivector,
    _schouten_frame,
    invert_poisson,
    koszul_bracket,
)
from .nijenhuis import Endo
from . import linalg
from .linalg import Frac, Matrix
# the numeric half of the reduction, re-exported
from .pointwise import (
    TOL_ENV_VAR, default_tolerance, characteristic_rank, sample_points,
    RieszPointReport, riesz_at_point, riesz_report, FiberReport, fiberwise_reduce,
    FBPointReport, condition_fb_check,
)


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
        """Exact spanning sections of Ker(fiber map), denominators cleared;
        computed on the first call and reused."""
        return list(self._kernel_frame)

    @cached_property
    def _kernel_frame(self) -> tuple[Section, ...]:
        basis = linalg.symbolic_nullspace(self.fiber_map)
        return tuple(Section(self.source, tuple(v)) for v in basis)

    @cached_property
    def _images(self):
        """The base map's renamed coordinates and exponential-type images
        (:func:`_classify_images`)."""
        return _classify_images(self.base_map)

    @cached_property
    def _power_systems(self) -> dict[tuple[str, ...], "_PowerSystem"]:
        """The exponent systems of :func:`rewrite_basic`, one per set of
        variables, each built on first use."""
        return {}

    @cached_property
    def _complement(self) -> tuple[Frac, ...]:
        """The projectable complement of the kernel, built on first use and
        shared by the endomorphism check and the projection."""
        return tuple(projectable_complement(self))

    def push_components(self, X: Section) -> list[Expr]:
        """Target-frame components of the image, over source coordinates."""
        return linalg.mat_vec(self.fiber_map, list(X.comps))

    def pullback_dual_frame(self, a: int) -> KForm:
        """Pullback of the a-th target dual covector, as a source one-form."""
        return self.source.one_form(list(self.fiber_map[a]))

    def validate(self) -> CheckReport:
        """Anchor compatibility and generic surjectivity of the fiber map,
        both symbolic."""
        failures = []
        rho = {w: [row[wi].substitute(self.base_map) for row in self.target.anchor]
               for wi, w in enumerate(self.target.base_vars)}  # rho_a^w o pi
        # the source anchor derivatives rho_b(pi^w), from the rho-row of pi^w
        drho = {w: dict(self.source._rho_row(self.base_map[w])) for w in self.target.base_vars}
        for b in range(self.source.rank):
            # the sum below runs over the pairs of nonzero factors only
            col = [(a, row[b]) for a, row in enumerate(self.fiber_map) if not row[b].is_zero()]
            for w in self.target.base_vars:
                e = (drho[w].get(b, ZERO)
                     - dot([(f, rho[w][a]) for a, f in col if not rho[w][a].is_zero()]))
                if not e.is_zero():
                    failures.append((f"anchors do not intertwine on source frame "
                                     f"{self.source.frame[b]}, target coordinate {w}", e))
        generic = linalg.symbolic_rank(self.fiber_map)
        if generic < self.target.rank:
            failures.append((f"fiber map not surjective: generic rank {generic} "
                             f"< target rank {self.target.rank}", None))
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


class _PowerSystem:
    """The powers n_j with sum_j n_j l_j(v) = k(v) for each variable v of
    ``hard_vars``, where l_j is the linear form of the j-th exponential-type
    image: A n = k for the exponent matrix A[v][j] = l_j(v).

    A is eliminated once, on construction: :func:`linalg.row_echelon` of
    [A | I] gives [E A | E] with E invertible.  When A has full column rank
    m, E A is a diagonal block over zero rows, so A n = k has a solution
    exactly when the rows of E k past the m-th vanish, and n_j is then
    (E k)_j over the j-th diagonal entry.  Otherwise no k has one solution."""

    def __init__(self, exps, hard_vars: tuple[str, ...]):
        m, size = len(exps), len(hard_vars)
        rows, pivots = linalg.row_echelon(
            [[Expr.number(l.get(v, 0)) for _, _, l in exps]
             + [ONE if c == r else ZERO for c in range(size)]
             for r, v in enumerate(hard_vars)])
        self.m = m
        self.unique = pivots[:m] == list(range(m))
        self.diagonal = [rows[j][j].constant_value() for j in range(m)] if self.unique else []
        self.e = [[rational(x.constant_value()) for x in row[m:]] for row in rows]

    def solve(self, k: list[Fraction]) -> list[Fraction] | None:
        """The powers for the right-hand side ``k``; None when there are
        none or many."""
        if not self.unique:
            return None
        nonzero = [(i, x) for i, x in enumerate(k) if x]
        ek = [sum(row[i] * x for i, x in nonzero) for row in self.e]
        if any(ek[self.m:]):
            return None
        return [Fraction(y) / d for y, d in zip(ek, self.diagonal)]


def rewrite_basic(epi: EpimorphismSpec, e: Expr) -> Expr:
    """Rewrite a source expression in target coordinates.

    Succeeds exactly when each term factors through the base map: monomial
    factors through coordinate renames, exponential factors through integer
    powers of exponential-type images plus exponentials of renamed
    coordinates.  Raises :class:`NotBasic` otherwise.
    """
    renames, exps = epi._images
    systems = epi._power_systems
    terms: dict[tuple, Fraction] = {}
    for mono, lin, coeff in e.terms:
        t_mono: dict[str, int] = {}
        c = Fraction(coeff)
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
        hard_vars = tuple(sorted(
            {v for v in lvec if v not in renames}
            | {v for _, _, l in exps for v in l if v and v not in renames}
        ))
        ns = [Fraction(0)] * len(exps)
        if hard_vars:
            system = systems.get(hard_vars)
            if system is None:
                system = systems[hard_vars] = _PowerSystem(exps, hard_vars)
            ns = system.solve([lvec.get(v, Fraction(0)) for v in hard_vars])
            if ns is None:
                raise NotBasic(
                    "exponential factor does not factor through the base map: "
                    f"{Expr((((), lin, 1),))}"
                )
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
                    t_lin[tgt] = t_lin.get(tgt, 0) + Fraction(resid) / cv
        if const:
            t_lin[""] = t_lin.get("", Fraction(0)) + const
        key_mono = tuple(sorted((v, k) for v, k in t_mono.items() if k))
        key_lin = tuple(sorted((v, rational(k)) for v, k in t_lin.items() if k))
        terms[key_mono, key_lin] = terms.get((key_mono, key_lin), 0) + c
    out = Expr.from_terms(terms)
    if not (out.substitute(epi.base_map) - e).is_zero():
        raise NotBasic("rewriting verification failed (expression is not basic)")
    return out


# ---------------------------------------------------------------------------
# projectability (valid under the hypothesis that the anchor maps the kernel
# onto the vertical distribution of the base surjection)

def _off_kernel(epi: EpimorphismSpec, X: Section) -> list[tuple[str, Expr]]:
    """(target frame name, component) for each nonzero component of X pushed
    through the fiber map: empty exactly when X takes values in the kernel."""
    return [(epi.target.frame[b], e)
            for b, e in enumerate(epi.push_components(X)) if not e.is_zero()]


def projectable_section_check(epi: EpimorphismSpec, X: Section) -> CheckReport:
    """[xi, X] must take values in the kernel for every kernel section xi."""
    failures = [
        (f"[{xi}, X] leaves the kernel in target component {name}", e)
        for xi in epi.kernel_frame()
        for name, e in _off_kernel(epi, epi.source.bracket(xi, X))
    ]
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
    """([xi, P])# must send projectable covectors into the kernel; [xi, P]
    from the frame formula of ``poisson._schouten_frame``."""
    failures = []
    pullbacks = [epi.pullback_dual_frame(a) for a in range(epi.target.rank)]
    for xi in epi.kernel_frame():
        Q = _schouten_frame(xi, P)
        for covector, beta in zip(epi.target.frame, pullbacks):
            failures += [
                (f"([xi, P])# of pulled-back covector {covector} leaves the kernel "
                 f"(component {name})", e)
                for name, e in _off_kernel(epi, Q.sharp(beta))
            ]
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
    pivots = linalg.pivot_columns(epi.fiber_map)
    kernel = epi.kernel_frame()
    sub = [[row[c] for c in pivots] for row in epi.fiber_map]
    out = []
    for a in range(epi.target.rank):
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
    kernel = epi.kernel_frame()
    failures = [
        (f"endomorphism does not preserve the kernel: N({xi}) has target "
         f"component {name}", e)
        for xi in kernel
        for name, e in _off_kernel(epi, N.apply(xi))
    ]
    if failures:
        # the Lie-derivative condition is only meaningful once the kernel is
        # preserved; report the structural failure first
        return CheckReport(False, failures)
    for xi in kernel:
        for a, X in enumerate(c.num for c in epi._complement):
            lie = epi.source.bracket(xi, N.apply(X)) - N.apply(epi.source.bracket(xi, X))
            failures += [
                (f"(L_xi N) of complement section {a} leaves the kernel "
                 f"(target component {name})", e)
                for name, e in _off_kernel(epi, lie)
            ]
    return CheckReport(not failures, failures)


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
        linalg.mat_mul(epi.fiber_map, P.mat),
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
        rep = projectable_endo_check(epi, N)
        if not rep.ok:
            raise ExprError(f"endomorphism is not projectable: {rep.witness()}")
    rt = epi.target.rank
    cols: list[list[Expr]] = []
    for X in epi._complement:
        push = Frac(epi.push_components(N.apply(X.num)), X.den).exact()
        cols.append([rewrite_basic(epi, e) for e in push])
    mat = [[cols[a][b] for a in range(rt)] for b in range(rt)]
    return Endo.from_matrix(epi.target, mat)


# ---------------------------------------------------------------------------
# leaf restriction

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
    return None, CheckReport(False, [(message, None)])


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
            dot((cols[s][a], A.anchor[a][i].substitute(subs)) for a in range(A.rank))
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
                dot(
                    (dict(alpha.comps).get((a,), ZERO).substitute(subs), cols[t][a])
                    for a in range(A.rank)
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


def symbolic_riesz_index(N: Endo) -> int:
    """First k with generic rank N^k = rank N^{k+1} (symbolic ranks)."""
    r = prev = N.algebroid.rank
    power = Endo.identity(N.algebroid)
    for l in range(1, r + 2):
        power = power.compose(N)
        rk = linalg.symbolic_rank(power.mat)
        if rk == prev:
            return l - 1
        prev = rk
    return r


def kernel_subalgebroid_check(N: Endo) -> SubalgebroidReport:
    """Bracket closure of Ker N^k and Im N^k and the generic direct-sum
    decomposition, k the (symbolic) stable index."""
    A = N.algebroid
    k = symbolic_riesz_index(N)
    nk = N.power(k)
    kernel = [Section(A, tuple(v)) for v in linalg.symbolic_nullspace(nk.mat)]
    # image frame: the pivot columns of N^k, a maximal independent set
    pivots = linalg.pivot_columns(nk.mat)
    cols = linalg.mat_transpose(nk.mat)
    image = [Section(A, tuple(cols[a])) for a in pivots]
    left_null = linalg.symbolic_nullspace(cols)

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
                pairing = dot(zip(w, br.comps))
                if not pairing.is_zero():
                    i_fail.append(
                        (f"image bracket ({i}, {j}) leaves Im N^{k}", pairing)
                    )
    # Ker N^k + Im N^k = A: the r x r matrix [kernel | image] has full rank
    decomposition = linalg.symbolic_rank([X.comps for X in kernel + image]) == A.rank
    return SubalgebroidReport(
        k, kernel, image,
        CheckReport(not k_fail, k_fail),
        CheckReport(not i_fail, i_fail),
        decomposition,
    )
