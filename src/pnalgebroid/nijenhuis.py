"""Nijenhuis endomorphisms, deformed structures and recursion operators."""

from __future__ import annotations

import itertools
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

from .expr import Expr, ONE, ExprError, _nonzero
from .algebroid import (
    CheckReport, KForm, LieAlgebroid, Section, _dots, _scatter, _spread, d_A, timed_check,
)
from .poisson import (
    Bivector,
    DegenerateBivector,
    _bracket_check,
    _koszul_rows,
    is_poisson,
    koszul_bracket,
)
from . import linalg


@dataclass(frozen=True)
class Endo:
    """Bundle endomorphism: (N X)^a = N^a_b X^b, mat[a][b] = N^a_b."""

    algebroid: LieAlgebroid
    mat: tuple[tuple[Expr, ...], ...]

    def __post_init__(self):
        r = self.algebroid.rank
        if len(self.mat) != r or any(len(row) != r for row in self.mat):
            raise ValueError("endomorphism matrix must be rank x rank")

    @cached_property
    def _tables(self):
        """``_frame_tables(self)``, built on first use and cached on this
        frozen endomorphism like the sparse views of ``LieAlgebroid``, so
        the torsion and the concomitant share one set of anchor derivatives."""
        return _frame_tables(self)

    @staticmethod
    def identity(A: LieAlgebroid) -> "Endo":
        return Endo.from_matrix(A, linalg.mat_identity(A.rank))

    @staticmethod
    def from_matrix(A: LieAlgebroid, mat) -> "Endo":
        return Endo(A, tuple(tuple(row) for row in mat))

    def apply(self, X: Section) -> Section:
        """(N X)^a = N^a_b X^b, one dot per component over the nonzero X^b
        and N^a_b."""
        return Section(self.algebroid, tuple(linalg.mat_vec(self.mat, X.comps)))

    def dual_apply(self, alpha: KForm) -> KForm:
        """Transpose action on one-forms: (N* a)_b = a_c N^c_b, one dot per
        component: each nonzero a_c is spread over the nonzero N^c_b of row c."""
        if alpha.degree != 1:
            raise ValueError("dual endomorphism acts on one-forms")
        coeffs = ((c, v) for (c,), v in alpha.comps.items())
        return self.algebroid.one_form(_spread(coeffs, [_nonzero(row) for row in self.mat]))

    def compose(self, other: "Endo") -> "Endo":
        return Endo.from_matrix(
            self.algebroid,
            linalg.mat_mul(self.mat, other.mat),
        )

    def power(self, k: int) -> "Endo":
        out = Endo.identity(self.algebroid)
        for _ in range(k):
            out = out.compose(self)
        return out

    def __add__(self, other: "Endo") -> "Endo":
        return Endo.from_matrix(
            self.algebroid,
            [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(self.mat, other.mat)],
        )

    def __sub__(self, other: "Endo") -> "Endo":
        return Endo.from_matrix(
            self.algebroid,
            [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(self.mat, other.mat)],
        )

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.mat for x in row)

    def map(self, f) -> "Endo":
        return Endo(self.algebroid, tuple(tuple(f(x) for x in row) for row in self.mat))

    def push_bivector(self, P: Bivector) -> Bivector:
        """The contracted bivector (N P)^{ab} = N^a_c P^{cb}.

        Requires N o P# = P# o N* (antisymmetry of the result); raises
        otherwise."""
        NP = _contract(self, P)[1]
        if NP is None:
            raise ExprError(
                "N P is not antisymmetric: N does not commute with the sharp map"
            )
        return NP


def _contract(N: Endo, P: Bivector) -> tuple[CheckReport, Bivector | None]:
    """Sharp compatibility N o P# = P# o N*, decided by forming the matrix
    (N P)^{ab} = N^a_c P^{cb} once: the timed report, one failure per
    nonzero symmetric part (N P)^{ab} + (N P)^{ba} with a <= b, and the
    bivector N P when the check holds, None otherwise."""
    t0 = time.perf_counter()
    m = linalg.mat_mul(N.mat, P.mat)
    frame = P.algebroid.frame
    failures = []
    for a, b in itertools.combinations_with_replacement(range(len(m)), 2):
        e = m[a][b] + m[b][a]
        if not e.is_zero():
            failures.append((f"N P# != P# N* on dual pair ({frame[a]}, {frame[b]})", e))
    rep = CheckReport(not failures, failures, time.perf_counter() - t0)
    return rep, Bivector(P.algebroid, tuple(map(tuple, m))) if rep.ok else None


def deformed_bracket(N: Endo, X: Section, Y: Section) -> Section:
    """[X, Y]_N = [N X, Y] + [X, N Y] - N [X, Y]."""
    A = N.algebroid
    return (
        A.bracket(N.apply(X), Y)
        + A.bracket(X, N.apply(Y))
        - N.apply(A.bracket(X, Y))
    )


def torsion(N: Endo, X: Section, Y: Section) -> Section:
    """Nijenhuis torsion T_N(X, Y) = [N X, N Y] - N [X, Y]_N."""
    A = N.algebroid
    return A.bracket(N.apply(X), N.apply(Y)) - N.apply(deformed_bracket(N, X, Y))


def _frame_tables(N: Endo) -> tuple[list, list, dict[tuple[int, int], list[tuple[int, Expr]]]]:
    """cols[b], the (a, N^a_b) with N^a_b != 0; R[c][b], the (h, rho_c(N^h_b))
    with rho_c(N^h_b) != 0, read from the rho-row of each nonzero entry of N;
    and CN[a, b], the nonzero deformed structure functions
    C^N_ab^h = ([e_a, e_b]_N)^h for a < b as (h, C^N_ab^h) in ascending h,

        C^N_ab^h = sum_c N^c_a C_cb^h + sum_d N^d_b C_ad^h
                   + rho_a(N^h_b) - rho_b(N^h_a) - sum_k N^h_k C_ab^k,

    each one dot over its own nonzero terms; an entry with none is never
    dotted."""
    A, r = N.algebroid, len(N.mat)
    C = A._structure_rows
    cols = [[(a, row[b]) for a, row in enumerate(N.mat) if not row[b].is_zero()]
            for b in range(r)]
    R: list[list[list[tuple[int, Expr]]]] = [[[] for _ in range(r)] for _ in range(r)]
    for b, col in enumerate(cols):
        for h, nhb in col:
            for c, v in A._rho_row(nhb):
                R[c][b].append((h, v))
    CN = {}
    for a, b in itertools.combinations(range(r), 2):
        terms = defaultdict(list)
        for c, nca in cols[a]:
            _scatter(terms, nca, C[c][b])
        for d, ndb in cols[b]:
            _scatter(terms, ndb, C[a][d])
        for k, x in C[b][a]:  # C_ba^k = -C_ab^k
            _scatter(terms, x, cols[k])
        _scatter(terms, ONE, R[a][b])
        _scatter(terms, -ONE, R[b][a])
        CN[a, b] = _dots(terms)
    return cols, R, CN


def torsion_check(N: Endo) -> CheckReport:
    """Vanishing of the torsion on all frame pairs a < b (tensoriality makes
    this sufficient), read from ``_frame_tables(N)``, each nonzero component
    one dot over its own terms; the first three sums are [N e_a, N e_b]^g:

        T(e_a, e_b)^g = sum_{c,d} N^c_a N^d_b C_cd^g + sum_c N^c_a rho_c(N^g_b)
                        - sum_d N^d_b rho_d(N^g_a) - sum_h N^g_h C^N_ab^h."""
    A, r = N.algebroid, len(N.mat)
    C = A._structure_rows
    cols, R, CN = N._tables
    neg = [[(a, -n) for a, n in col] for col in cols]
    failures = []
    for a, b in itertools.combinations(range(r), 2):
        terms = defaultdict(list)
        for c, nca in cols[a]:
            for d, ndb in cols[b]:
                if C[c][d]:
                    _scatter(terms, nca * ndb, C[c][d])
            _scatter(terms, nca, R[c][b])
        for d, ndb in neg[b]:
            _scatter(terms, ndb, R[d][a])
        for h, cn in CN[a, b]:
            _scatter(terms, cn, neg[h])
        failures += [
            (f"torsion nonzero on ({A.frame[a]}, {A.frame[b]}) component {A.frame[g]}", t)
            for g, t in _dots(terms)
        ]
    return CheckReport(not failures, failures)


def deformed_algebroid(N: Endo) -> LieAlgebroid:
    """Deformed structure (A, [.,.]_N, rho o N), its frame named after the
    frame of A; a Lie algebroid when the torsion of N vanishes (checked)."""
    rep = torsion_check(N)
    if not rep.ok:
        raise ExprError(f"cannot deform: {rep.witness()}")
    A = N.algebroid
    anchor = linalg.mat_mul(linalg.mat_transpose(N.mat), A.anchor)
    structure = {ab: dict(row) for ab, row in N._tables[2].items()}
    return LieAlgebroid.from_tables(list(A.base_vars), list(A.frame), anchor, structure)


def sharp_commutes(P: Bivector, N: Endo) -> CheckReport:
    """N o P# = P# o N*, equivalently N P antisymmetric (``_contract``)."""
    return _contract(N, P)[0]


def concomitant(P: Bivector, N: Endo, alpha: KForm, beta: KForm) -> KForm:
    """Magri-Morosi compatibility defect of (P, N) on one-forms:
    C(P, N)(a, b) = [a, b]_{NP} - ([N* a, b]_P + [a, N* b]_P - N*[a, b]_P)."""
    lhs = koszul_bracket(N.push_bivector(P), alpha, beta)
    rhs = (
        koszul_bracket(P, N.dual_apply(alpha), beta)
        + koszul_bracket(P, alpha, N.dual_apply(beta))
        - N.dual_apply(koszul_bracket(P, alpha, beta))
    )
    return lhs - rhs


def concomitant_check(P: Bivector, N: Endo, NP: Bivector | None = None) -> CheckReport:
    """The concomitant on all dual frame pairs a < b, components in frame
    order; ``NP`` is N P when the caller has it.  N P must be a bivector
    (``sharp_commutes``); otherwise forming it raises ExprError, and
    ``pn_check`` reports the concomitant as skipped.  With K(Q) the Koszul rows
    of ``_koszul_rows`` (nonzero entries only) and rho_e(N^b_h) read from
    ``N._tables``, each nonzero component is one dot over its own terms:

        C(theta^a, theta^b)^h = K(NP)_ab^h - sum_c N^a_c K(P)_cb^h - sum_d N^b_d K(P)_ad^h
                                - sum_e P^{ae} rho_e(N^b_h) + sum_e P^{be} rho_e(N^a_h)
                                + sum_k N^k_h K(P)_ab^k."""
    A, r, m = P.algebroid, len(N.mat), P.mat
    if NP is None:
        NP = N.push_bivector(P)
    R = N._tables[1]
    # RT[e][b], the (h, rho_e(N^b_h)) with rho_e(N^b_h) != 0
    RT: list[list[list[tuple[int, Expr]]]] = [[[] for _ in range(r)] for _ in range(r)]
    for e, by_col in enumerate(R):
        for h, col in enumerate(by_col):
            for b, v in col:
                RT[e][b].append((h, v))
    rows = [_nonzero(row) for row in N.mat]
    neg = [[(c, -n) for c, n in row] for row in rows]
    prows = P._rows
    KP = _koszul_rows(P)

    def rhs(a, b, terms):
        for (c, n), (_, minus) in zip(rows[a], neg[a]):  # K(P)_cb = -K(P)_bc
            if c < b:
                _scatter(terms, minus, KP[c, b])
            elif c > b:
                _scatter(terms, n, KP[b, c])
        for (d, n), (_, minus) in zip(rows[b], neg[b]):
            if d > a:
                _scatter(terms, minus, KP[a, d])
            elif d < a:
                _scatter(terms, n, KP[d, a])
        for e, _ in prows[a]:  # -P^{ae} = P^{ea}
            _scatter(terms, m[e][a], RT[e][b])
        for e, p in prows[b]:
            _scatter(terms, p, RT[e][a])
        for k, x in KP[a, b]:
            _scatter(terms, x, rows[k])

    failures = []
    for (a, b), row in _koszul_rows(NP, rhs).items():
        failures += [
            (f"concomitant nonzero on dual pair ({A.frame[a]}, {A.frame[b]}) "
             f"component {A.frame[g]}", v)
            for g, v in row
        ]
    return CheckReport(not failures, failures)


@dataclass
class PNReport:
    poisson: CheckReport
    torsion: CheckReport
    compatible: CheckReport
    concomitant: CheckReport
    nondegenerate: bool
    determinant: Expr
    determinant_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return (
            self.poisson.ok
            and self.torsion.ok
            and self.compatible.ok
            and self.concomitant.ok
        )

    @property
    def sn(self) -> bool:
        """Symplectic-Nijenhuis: a PN pair with nondegenerate bivector."""
        return self.ok and self.nondegenerate

    def witness(self) -> str | None:
        for name, rep in (
            ("poisson", self.poisson),
            ("torsion", self.torsion),
            ("sharp-compatibility", self.compatible),
            ("concomitant", self.concomitant),
        ):
            if not rep.ok:
                return f"[{name}] {rep.witness()}"
        return None


def pn_check(P: Bivector, N: Endo) -> PNReport:
    """Full Poisson-Nijenhuis verdict for the pair (P, N); every report
    carries its own wall time."""
    poisson = timed_check(is_poisson, P)
    tors = timed_check(torsion_check, N)
    comm, NP = _contract(N, P)
    if NP is not None:
        conc = timed_check(concomitant_check, P, N, NP)
    else:
        conc = CheckReport(False, [("skipped: sharp maps do not commute", None)])
    t0 = time.perf_counter()
    d = P.determinant()
    return PNReport(
        poisson, tors, comm, conc, not d.is_zero(), d, time.perf_counter() - t0
    )


def recursion_operator(P0: Bivector, P1: Bivector) -> linalg.Frac:
    """The unique N with N o P0# = P1#, as numerator / det(P0).

    Raises :class:`DegenerateBivector` with a kernel covector witness when
    P0 is degenerate."""
    A = P0.algebroid
    try:
        inv = linalg.inverse_pair(P0.mat)
    except ExprError:  # singular
        raise DegenerateBivector.from_matrix("first bivector", A, P0.mat) from None
    # N = P1^T (P0^T)^-1, and adj(P0^T) = adj(P0)^T, det(P0^T) = det(P0)
    m1t = linalg.mat_transpose(P1.mat)
    num = linalg.mat_mul(m1t, linalg.mat_transpose(inv.num))
    return linalg.Frac(Endo.from_matrix(A, num), inv.den)


def _top_level(P: Bivector, depth: int) -> int:
    """The highest hierarchy level checked: depth (>= 0), capped at the rank."""
    if depth < 0:
        raise ValueError(f"hierarchy depth must be nonnegative, got {depth}")
    return min(depth, P.algebroid.rank)


def hierarchy(P: Bivector, N: Endo, depth: int) -> list[tuple[int, Bivector]]:
    """The bivectors N^l P for l = 0..depth (depth >= 0, capped at the rank)."""
    out = [(0, P)]
    current = P
    for l in range(1, _top_level(P, depth) + 1):
        current = N.push_bivector(current)
        out.append((l, current))
    return out


@dataclass
class HierarchyReport:
    levels: list[tuple[int, CheckReport]]
    pairwise: list[tuple[int, int, CheckReport]]
    # the failed sharp-compatibility check, when N P is not a bivector;
    # levels then holds level 0 alone and pairwise is empty
    compatible: CheckReport | None = None

    @property
    def ok(self) -> bool:
        return (all(r.ok for _, r in self.levels)
                and all(r.ok for _, _, r in self.pairwise)
                and (self.compatible is None or self.compatible.ok))


def hierarchy_check(P: Bivector, N: Endo, depth: int) -> HierarchyReport:
    """All N^l P Poisson and pairwise compatible up to the requested depth;
    every report carries its own wall time.  A pair's residuals are level i's
    plus level j's, each computed once, plus the mixed bracket's: those of
    is_poisson(Qi + Qj), failures included.

    Above level 0, N P is contracted once and tested for antisymmetry (sharp
    compatibility).  When it is not a bivector, the report holds level 0 and
    the failed check, with its witness, and no higher level is checked."""
    top = _top_level(P, depth)
    chain = [P]  # N^l P at index l
    if top:
        comm, NP = _contract(N, P)
        if NP is None:
            return HierarchyReport([(0, timed_check(is_poisson, P))], [], comm)
        chain += [Q for _, Q in hierarchy(NP, N, top - 1)]
    own = {}

    def check(i, j):
        if i == j:
            rep, own[i] = _bracket_check([(chain[i], chain[i])])
            return rep
        return _bracket_check([(chain[i], chain[j]), (chain[j], chain[i])], own[i], own[j])[0]

    levels = [(l, timed_check(check, l, l)) for l in range(len(chain))]
    pairwise = [(i, j, timed_check(check, i, j))
                for i, j in itertools.combinations(range(len(chain)), 2)]
    return HierarchyReport(levels, pairwise)


def bihamiltonian_check(
    P0: Bivector, P1: Bivector, H0: Expr, H1: Expr
) -> CheckReport:
    """The defining recursion of a bihamiltonian pair:
    P0#(d H1) = P1#(d H0)."""
    A = P0.algebroid
    X = P0.sharp(d_A(A, H1)) - P1.sharp(d_A(A, H0))
    failures = [
        (f"bihamiltonian identity fails in component {A.frame[g]}", c)
        for g, c in enumerate(X.comps)
        if not c.is_zero()
    ]
    return CheckReport(not failures, failures)
