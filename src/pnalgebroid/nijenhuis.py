"""Nijenhuis endomorphisms, deformed structures and recursion operators."""

from __future__ import annotations

import time
from dataclasses import dataclass

from .expr import Expr, ZERO, ExprError
from .algebroid import CheckReport, KForm, LieAlgebroid, Section, d_A, timed_check
from .poisson import (
    Bivector,
    DegenerateBivector,
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

    @staticmethod
    def identity(A: LieAlgebroid) -> "Endo":
        return Endo(A, tuple(tuple(linalg.mat_identity(A.rank)[i]) for i in range(A.rank)))

    @staticmethod
    def from_matrix(A: LieAlgebroid, mat) -> "Endo":
        return Endo(A, tuple(tuple(row) for row in mat))

    def apply(self, X: Section) -> Section:
        """(N X)^a = N^a_b X^b over the nonzero X^b and N^a_b."""
        r = self.algebroid.rank
        comps = [ZERO] * r
        for b, xb in enumerate(X.comps):
            if xb.is_zero():
                continue
            for a in range(r):
                if not self.mat[a][b].is_zero():
                    comps[a] = comps[a] + self.mat[a][b] * xb
        return Section(self.algebroid, tuple(comps))

    def dual_apply(self, alpha: KForm) -> KForm:
        """Transpose action on one-forms: (N* a)_b = a_c N^c_b."""
        if alpha.degree != 1:
            raise ValueError("dual endomorphism acts on one-forms")
        r = self.algebroid.rank
        comps = [ZERO] * r
        for (c,), v in alpha.comps.items():
            for b in range(r):
                if not self.mat[c][b].is_zero():
                    comps[b] = comps[b] + v * self.mat[c][b]
        return self.algebroid.one_form(comps)

    def compose(self, other: "Endo") -> "Endo":
        return Endo.from_matrix(
            self.algebroid,
            linalg.mat_mul([list(r) for r in self.mat], [list(r) for r in other.mat]),
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
        m, defects = _contract(self, P)
        if defects:
            raise ExprError(
                "N P is not antisymmetric: N does not commute with the sharp map"
            )
        return Bivector(self.algebroid, tuple(tuple(row) for row in m))


def _contract(N: Endo, P: Bivector) -> tuple[linalg.Matrix, list[tuple[int, int, Expr]]]:
    """The matrix (N P)^{ab} = N^a_c P^{cb}, with its nonzero symmetric parts
    (a, b, (N P)^{ab} + (N P)^{ba}) for a <= b; N o P# = P# o N* exactly
    when that list is empty."""
    m = linalg.mat_mul([list(row) for row in N.mat], [list(row) for row in P.mat])
    r = len(m)
    defects = []
    for a in range(r):
        for b in range(a, r):
            e = m[a][b] + m[b][a]
            if not e.is_zero():
                defects.append((a, b, e))
    return m, defects


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


def torsion_check(N: Endo) -> CheckReport:
    """Vanishing of the torsion on all frame pairs (tensoriality makes this
    sufficient)."""
    A = N.algebroid
    failures = []
    for a in range(A.rank):
        for b in range(a + 1, A.rank):
            T = torsion(N, A.frame_section(a), A.frame_section(b))
            for g, c in enumerate(T.comps):
                if not c.is_zero():
                    failures.append(
                        (
                            f"torsion nonzero on ({A.frame[a]}, {A.frame[b]}) "
                            f"component {A.frame[g]}",
                            c,
                        )
                    )
    return CheckReport(not failures, failures)


def deformed_algebroid(N: Endo, frame_prefix: str = "n_") -> LieAlgebroid:
    """Deformed structure (A, [.,.]_N, rho o N); a Lie algebroid when the
    torsion of N vanishes (checked)."""
    rep = torsion_check(N)
    if not rep.ok:
        raise ExprError(f"cannot deform: {rep.witness()}")
    A = N.algebroid
    r = A.rank
    anchor = [
        [
            sum((N.mat[b][a] * A.anchor[b][i] for b in range(r)), ZERO)
            for i in range(A.dim)
        ]
        for a in range(r)
    ]
    structure: dict[tuple[int, int], dict[int, Expr]] = {}
    for a in range(r):
        for b in range(a + 1, r):
            br = deformed_bracket(N, A.frame_section(a), A.frame_section(b))
            row = {g: c for g, c in enumerate(br.comps) if not c.is_zero()}
            if row:
                structure[(a, b)] = row
    return LieAlgebroid.from_tables(
        list(A.base_vars), [frame_prefix + f for f in A.frame], anchor, structure
    )


def sharp_commutes(P: Bivector, N: Endo, defects=None) -> CheckReport:
    """N o P# = P# o N*, equivalently N P antisymmetric; ``defects`` are the
    symmetric parts from ``_contract(N, P)`` when the caller has them."""
    frame = P.algebroid.frame
    if defects is None:
        defects = _contract(N, P)[1]
    failures = [
        (f"N P# != P# N* on dual pair ({frame[a]}, {frame[b]})", e)
        for a, b, e in defects
    ]
    return CheckReport(not failures, failures)


def concomitant(P: Bivector, N: Endo, alpha: KForm, beta: KForm) -> KForm:
    """Magri-Morosi compatibility defect of (P, N) on one-forms:
    C(P, N)(a, b) = [a, b]_{NP} - ([N* a, b]_P + [a, N* b]_P - N*[a, b]_P)."""
    return _concomitant(P, N, N.push_bivector(P), alpha, beta)


def _concomitant(P: Bivector, N: Endo, NP: Bivector, alpha: KForm, beta: KForm) -> KForm:
    """:func:`concomitant` with the contracted bivector NP = N P given."""
    lhs = koszul_bracket(NP, alpha, beta)
    rhs = (
        koszul_bracket(P, N.dual_apply(alpha), beta)
        + koszul_bracket(P, alpha, N.dual_apply(beta))
        - N.dual_apply(koszul_bracket(P, alpha, beta))
    )
    return lhs - rhs


def concomitant_check(P: Bivector, N: Endo, NP: Bivector | None = None) -> CheckReport:
    """The concomitant on all dual frame pairs; ``NP`` is N P when the caller
    has it."""
    A = P.algebroid
    r = A.rank
    if NP is None:
        NP = N.push_bivector(P)
    failures = []
    for a in range(r):
        for b in range(a + 1, r):
            c = _concomitant(P, N, NP, A.dual_frame_form(a), A.dual_frame_form(b))
            for (g,), v in c.comps.items():
                if not v.is_zero():
                    failures.append(
                        (
                            f"concomitant nonzero on dual pair "
                            f"({A.frame[a]}, {A.frame[b]}) component {A.frame[g]}",
                            v,
                        )
                    )
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
    t0 = time.perf_counter()
    m, defects = _contract(N, P)
    comm = sharp_commutes(P, N, defects)
    comm.seconds = time.perf_counter() - t0
    if comm.ok:
        NP = Bivector(P.algebroid, tuple(tuple(row) for row in m))
        conc = timed_check(concomitant_check, P, N, NP)
    else:
        conc = CheckReport(False, [("skipped: sharp maps do not commute", ZERO)])
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
    m0 = [list(row) for row in P0.mat]
    try:
        inv = linalg.inverse_pair(m0)
    except ExprError:  # singular
        raise DegenerateBivector.from_matrix("first bivector", A, m0) from None
    # N = P1^T (P0^T)^-1, and adj(P0^T) = adj(P0)^T, det(P0^T) = det(P0)
    m1t = linalg.mat_transpose([list(row) for row in P1.mat])
    num = linalg.mat_mul(m1t, linalg.mat_transpose(inv.num))
    return linalg.Frac(Endo.from_matrix(A, num), inv.den)


def hierarchy(P: Bivector, N: Endo, depth: int) -> list[tuple[int, Bivector]]:
    """The bivectors N^l P for l = 0..depth (depth capped at the rank)."""
    depth = min(depth, P.algebroid.rank)
    out = [(0, P)]
    current = P
    for l in range(1, depth + 1):
        current = N.push_bivector(current)
        out.append((l, current))
    return out


@dataclass
class HierarchyReport:
    levels: list[tuple[int, CheckReport]]
    pairwise: list[tuple[int, int, CheckReport]]

    @property
    def ok(self) -> bool:
        return all(r.ok for _, r in self.levels) and all(
            r.ok for _, _, r in self.pairwise
        )


def hierarchy_check(P: Bivector, N: Endo, depth: int) -> HierarchyReport:
    """All N^l P Poisson and pairwise compatible up to the requested depth;
    every report carries its own wall time."""
    chain = hierarchy(P, N, depth)
    levels = [(l, timed_check(is_poisson, Q)) for l, Q in chain]
    pairwise = []
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            li, Qi = chain[i]
            lj, Qj = chain[j]
            pairwise.append((li, lj, timed_check(is_poisson, Qi + Qj)))
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
