"""Poisson calculus on a Lie algebroid.

Bivectors are antisymmetric component matrices on the frame.  Conventions,
fixed once and used everywhere:

* sharp contracts the first slot: (P#alpha)^b = alpha_a P^{ab};
* flat of a two-form contracts the first slot: (Omega_b X)_a = X^b Omega_{ba}
  (i.e. interior product in slot one);
* inversion pairs P and Omega through P_mat = -Omega_mat^{-1}; with these
  conventions the sharp and flat maps compose to minus the identity,
  P# o Omega_b = -id, and the canonical pair (dq^dp, Dq^Dp) on the plane
  corresponds to itself.

Division never happens in the ring: inverses are returned as a
:class:`~pnalgebroid.linalg.Frac`, a numerator structure over a scalar
denominator (the determinant).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .expr import Expr, ZERO, ExprError, dot
from .algebroid import (
    CheckReport,
    KForm,
    LieAlgebroid,
    Section,
    d_A,
    interior,
    lie_derivative,
    timed_check,
)
from . import linalg
from .linalg import Frac, Matrix


@dataclass(frozen=True)
class Bivector:
    """Antisymmetric bivector P = (1/2) P^{ab} e_a ^ e_b on an algebroid."""

    algebroid: LieAlgebroid
    mat: tuple[tuple[Expr, ...], ...]

    def __post_init__(self):
        r = self.algebroid.rank
        if len(self.mat) != r or any(len(row) != r for row in self.mat):
            raise ValueError("bivector matrix must be rank x rank")
        for a in range(r):
            for b in range(a, r):
                if not (self.mat[a][b] + self.mat[b][a]).is_zero():
                    raise ValueError(
                        f"bivector matrix not antisymmetric at ({a}, {b})"
                    )

    @staticmethod
    def from_entries(A: LieAlgebroid, entries: dict[tuple[int, int], Expr]) -> "Bivector":
        """Build from upper entries: P = sum over (a, b) of entry * e_a ^ e_b."""
        r = A.rank
        m = [[ZERO for _ in range(r)] for _ in range(r)]
        for (a, b), e in entries.items():
            if a == b:
                raise ValueError("diagonal bivector entry")
            m[a][b] = m[a][b] + e
            m[b][a] = m[b][a] - e
        return Bivector(A, tuple(tuple(row) for row in m))

    def entry(self, a: int, b: int) -> Expr:
        return self.mat[a][b]

    def apply(self, alpha: KForm, beta: KForm) -> Expr:
        """P(alpha, beta) = alpha_a beta_b P^{ab}."""
        _check_one_form(alpha)
        _check_one_form(beta)
        out = ZERO
        for (a,), ca in alpha.comps.items():
            for (b,), cb in beta.comps.items():
                e = self.mat[a][b]
                if not e.is_zero():
                    out = out + ca * cb * e
        return out

    def sharp(self, alpha: KForm) -> Section:
        """(P#alpha)^b = alpha_a P^{ab}."""
        _check_one_form(alpha)
        r = self.algebroid.rank
        comps = [ZERO] * r
        for (a,), ca in alpha.comps.items():
            for b in range(r):
                e = self.mat[a][b]
                if not e.is_zero():
                    comps[b] = comps[b] + ca * e
        return Section(self.algebroid, tuple(comps))

    def __add__(self, other: "Bivector") -> "Bivector":
        return Bivector(
            self.algebroid,
            tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(self.mat, other.mat)),
        )

    def __sub__(self, other: "Bivector") -> "Bivector":
        return Bivector(
            self.algebroid,
            tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(self.mat, other.mat)),
        )

    def __neg__(self) -> "Bivector":
        return Bivector(self.algebroid, tuple(tuple(-x for x in row) for row in self.mat))

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.mat for x in row)

    def map(self, f) -> "Bivector":
        return Bivector(self.algebroid, tuple(tuple(f(x) for x in row) for row in self.mat))

    def determinant(self) -> Expr:
        return linalg.det(self.mat)

    def __str__(self) -> str:
        names = self.algebroid.frame
        parts = []
        r = self.algebroid.rank
        for a in range(r):
            for b in range(a + 1, r):
                if not self.mat[a][b].is_zero():
                    parts.append(f"({self.mat[a][b]})*{names[a]}^{names[b]}")
        return " + ".join(parts) if parts else "0"


def _check_one_form(alpha: KForm) -> None:
    if alpha.degree != 1:
        raise ValueError(f"expected a one-form, got degree {alpha.degree}")


def two_form_matrix(omega: KForm) -> Matrix:
    """Component matrix Omega_{ab} = omega(e_a, e_b)."""
    if omega.degree != 2:
        raise ValueError(f"expected a two-form, got degree {omega.degree}")
    r = omega.algebroid.rank
    return [[omega.entry((a, b)) for b in range(r)] for a in range(r)]


def two_form_from_matrix(A: LieAlgebroid, mat: Matrix) -> KForm:
    r = A.rank
    comps = {}
    for a in range(r):
        for b in range(a + 1, r):
            if not mat[a][b].is_zero():
                comps[(a, b)] = mat[a][b]
    return KForm(A, 2, comps)


def flat(omega: KForm, X: Section) -> KForm:
    """(Omega_b X) = i_X omega, slot-one interior product."""
    return interior(X, omega)


def schouten_1r(X: Section, R):
    """Bracket of a section with a multivector of degree <= 2.

    Characterised by [X, R](a_1, ..., a_r) = rho(X)(R(a_1, ..., a_r))
    - sum_i R(a_1, ..., L_X a_i, ..., a_r) on one-forms a_i.
    """
    A = X.algebroid
    if isinstance(R, Expr):
        return A.anchor_apply(X, R)
    if isinstance(R, Section):
        return A.bracket(X, R)
    if isinstance(R, Bivector):
        r = A.rank
        theta = [A.dual_frame_form(a) for a in range(r)]
        ltheta = [lie_derivative(X, theta[a]) for a in range(r)]
        entries: dict[tuple[int, int], Expr] = {}
        for a in range(r):
            for b in range(a + 1, r):
                val = A.anchor_apply(X, R.mat[a][b])
                val = val - R.apply(ltheta[a], theta[b])
                val = val - R.apply(theta[a], ltheta[b])
                if not val.is_zero():
                    entries[(a, b)] = val
        return Bivector.from_entries(A, entries)
    raise TypeError(f"unsupported multivector type {type(R).__name__}")


def _bracket_check(pairs: list[tuple[Bivector, Bivector]],
                   *known: list[Expr]) -> tuple[CheckReport, list[Expr]]:
    """The Poisson verdict and residuals of the bilinear frame bracket

        B(P, Q)[y, z][x] = sum_d P^{xd} rho_d(Q^{yz}) + sum_{d,e} P^{yd} Q^{ze} C_de^x

    summed over the (P, Q) in ``pairs``, rho_d the anchor of e_d and C_de^x
    the structure functions.  The residual on a frame triple a < b < c is
    B[b, c][a] - B[a, c][b] + B[a, b][c] plus its entry in each ``known``
    residual list (``itertools.combinations`` order).  B(P, P) gives
    (1/2) [P, P] and B(P, Q) + B(Q, P) the mixed bracket; with the residuals
    of (P, P) and (Q, Q) added, the mixed ones are those of P + Q."""
    A = pairs[0][0].algebroid
    r = A.rank
    rows = {id(Q): [[(d, e) for d, e in enumerate(row) if not e.is_zero()] for row in Q.mat]
            for pair in pairs for Q in pair}
    # B[y, z][x], y < z, each entry one dot over its terms; x in {y, z} is never read
    B: dict[tuple[int, int], list[Expr]] = {}
    for y, z in itertools.combinations(range(r), 2):
        terms: list[list[tuple[Expr, Expr]]] = [[] for _ in range(r)]
        for P, Q in pairs:
            grads: dict[str, Expr] = {}
            for d in range(r):
                v = A._rho_frame(d, Q.mat[y][z], grads)
                if not v.is_zero():  # P^{xd} is nonzero where P^{dx} is, P antisymmetric
                    for x, _ in rows[id(P)][d]:
                        terms[x].append((P.mat[x][d], v))
            for d, pyd in rows[id(P)][y]:
                for e, qze in rows[id(Q)][z]:
                    for g, c in A._structure_rows[d][e]:
                        terms[g].append((pyd * c, qze))
        B[y, z] = [ZERO if x in (y, z) else dot(t) for x, t in enumerate(terms)]
    triples = list(itertools.combinations(range(r), 3))
    residuals = [sum(es, B[b, c][a] - B[a, c][b] + B[a, b][c])
                 for (a, b, c), *es in zip(triples, *known)]
    failures = [(f"Poisson condition fails against dual covector {A.frame[a]} on pair "
                 f"({A.frame[b]}, {A.frame[c]})", e)
                for (a, b, c), e in zip(triples, residuals) if not e.is_zero()]
    return CheckReport(not failures, failures), residuals


def is_poisson(P: Bivector) -> CheckReport:
    """Decide [P, P] = 0 from the residuals of B(P, P) (``_bracket_check``),
    whose first sum is rho(P# theta^x)(P^{yz}); on a tangent algebroid, the
    Jacobiator sum_l P^{xl} d_l P^{yz} of {f, g} = P(df, dg).  The component
    is totally antisymmetric, so each frame triple a < b < c is checked once;
    a nonzero one is reported against the dual covector a on the pair (b, c)."""
    return _bracket_check([(P, P)])[0]


def poisson_pair(P0: Bivector, P1: Bivector) -> tuple[CheckReport, CheckReport, CheckReport]:
    """``is_poisson(P0)``, ``is_poisson(P1)`` and ``are_compatible(P0, P1)``,
    each level's table built once.  The pair is read from the mixed bracket
    B(P0, P1) + B(P1, P0) alone: once both levels pass, its residuals are
    P0 + P1's.  Each report carries its own wall time; the pair's is that of
    the mixed bracket."""
    first, second = (timed_check(is_poisson, P) for P in (P0, P1))
    t0 = time.perf_counter()
    failed = [(name, rep) for name, rep in (("first", first), ("second", second)) if not rep.ok]
    name, rep = failed[0] if failed else ("sum", _bracket_check([(P0, P1), (P1, P0)])[0])
    if rep.ok:
        pair = CheckReport(True, [])
    else:
        msg, e = rep.failures[0]
        pair = CheckReport(False, [(f"{name} bivector: {msg}", e)])
    pair.seconds = time.perf_counter() - t0
    return first, second, pair


def are_compatible(P0: Bivector, P1: Bivector) -> CheckReport:
    """Both Poisson and the sum Poisson; the first failure is reported
    against the first, the second or the sum bivector (``poisson_pair``)."""
    return poisson_pair(P0, P1)[2]


def koszul_bracket(P: Bivector, alpha: KForm, beta: KForm) -> KForm:
    """Bracket of one-forms induced by P:
    [a, b]_P = L_{P#a} b - L_{P#b} a - d(P(a, b))."""
    A = P.algebroid
    return (
        lie_derivative(P.sharp(alpha), beta)
        - lie_derivative(P.sharp(beta), alpha)
        - d_A(A, P.apply(alpha, beta))
    )


def dual_algebroid(P: Bivector) -> LieAlgebroid:
    """Algebroid structure on the dual bundle, its frame the dual frame
    theta^a named after the frame of A: the anchor is rho o P#, and the
    bracket of one-forms is the Koszul bracket, read off the frame formula

        ([theta^a, theta^b]_P)_g = rho_g(P^{ab}) - P^{ad} C_dg^b + P^{bd} C_dg^a

    over the nonzero anchor and structure rows.  Valid when P is Poisson."""
    A = P.algebroid
    r = A.rank
    m = P.mat
    anchor = [
        [dot((m[a][b], A.anchor[b][i]) for b in range(r)) for i in range(A.dim)]
        for a in range(r)
    ]
    # PC[a][g][h] = P^{ad} C_dg^h
    PC = []
    for a in range(r):
        t = [[ZERO] * r for _ in range(r)]
        for d, pad in enumerate(m[a]):
            if pad.is_zero():
                continue
            for g, row in enumerate(A._structure_rows[d]):
                for h, c in row:
                    t[g][h] = t[g][h] + pad * c
        PC.append(t)
    structure: dict[tuple[int, int], dict[int, Expr]] = {}
    for a, b in itertools.combinations(range(r), 2):
        grads: dict[str, Expr] = {}
        structure[a, b] = {
            g: A._rho_frame(g, m[a][b], grads) - PC[a][g][b] + PC[b][g][a] for g in range(r)
        }
    return LieAlgebroid.from_tables(list(A.base_vars), list(A.frame), anchor, structure)


def induced_base_poisson(P: Bivector, target: LieAlgebroid | None = None) -> Bivector:
    """Push P to the base through the anchor: Lam^{ij} = rho_a^i P^{ab} rho_b^j.

    The result lives on the tangent algebroid of the base (or on ``target``,
    which must be a tangent-type algebroid over the same coordinates)."""
    A = P.algebroid
    if target is None:
        target = LieAlgebroid.tangent(list(A.base_vars))
    if tuple(target.base_vars) != tuple(A.base_vars):
        raise ValueError("target base coordinates do not match")
    lam = linalg.mat_mul(linalg.mat_mul(linalg.mat_transpose(A.anchor), P.mat), A.anchor)
    entries = {
        (i, j): lam[i][j]
        for i, j in itertools.combinations(range(len(lam)), 2)
        if not lam[i][j].is_zero()
    }
    return Bivector.from_entries(target, entries)


@dataclass
class SymplecticReport:
    ok: bool
    closed: bool
    determinant: Expr
    failures: list[tuple[str, Expr]]

    def witness(self) -> str | None:
        if self.ok:
            return None
        msg, e = self.failures[0]
        return f"{msg}: {e}"


def symplectic_check(omega: KForm | Frac) -> SymplecticReport:
    """Closedness plus nondegeneracy (nonzero exact determinant).

    Accepts a plain two-form or a Frac; closedness of num / den is checked
    after clearing denominators: den * d(num) - d(den) ^ num = 0.
    """
    omega = linalg.as_frac(omega)
    A = omega.num.algebroid
    cleared = d_A(A, omega.num).scale(omega.den) - d_A(A, omega.den).wedge(omega.num)
    closed = cleared.is_zero()
    determinant = linalg.det(two_form_matrix(omega.num))
    failures = []
    if not closed:
        idx, e = next(iter(sorted(cleared.comps.items())))
        failures.append((f"two-form not closed at frame triple {idx}", e))
    if determinant.is_zero():
        failures.append(("two-form is degenerate (zero determinant)", determinant))
    return SymplecticReport(not failures, closed, determinant, failures)


def invert_symplectic(omega: KForm | Frac) -> Frac:
    """Nondegenerate two-form -> bivector, as numerator / determinant.

    Pairing convention: P_mat = -Omega_mat^{-1}; inverse of invert_poisson.
    A Frac two-form is accepted as well: its denominator scales into the
    numerator of the result."""
    omega = linalg.as_frac(omega)
    try:
        inv = linalg.inverse_pair(two_form_matrix(omega.num))
    except ExprError:
        raise ExprError("two-form is degenerate; no inverse bivector") from None
    num = Bivector(
        omega.num.algebroid, tuple(tuple(-(omega.den * x) for x in row) for row in inv.num)
    )
    return Frac(num, inv.den)


def invert_poisson(P: Bivector) -> Frac:
    """Nondegenerate bivector -> two-form, as numerator / determinant.

    Returns Omega with Omega_mat = -P_mat^{-1}; kernel covectors are
    reported when P is degenerate."""
    A = P.algebroid
    try:
        inv = linalg.inverse_pair(P.mat)
    except ExprError:  # singular
        raise DegenerateBivector.from_matrix("bivector", A, linalg.mat_transpose(P.mat)) from None
    num = two_form_from_matrix(A, [[-x for x in row] for row in inv.num])
    return Frac(num, inv.den)


class DegenerateBivector(ExprError):
    """Raised when inverting or dividing by a degenerate bivector; carries a
    kernel covector witness (component list over the dual frame)."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness

    @classmethod
    def from_matrix(cls, what: str, A: LieAlgebroid, m: Matrix) -> "DegenerateBivector":
        """The error for ``what``, witnessed by the first vector of an exact
        basis of ker ``m`` read as a covector on the frame of ``A``."""
        kernel = linalg.symbolic_nullspace(m)
        witness = kernel[0] if kernel else None
        text = " + ".join(
            f"({c})*th_{A.frame[a]}" for a, c in enumerate(witness or ()) if not c.is_zero()
        )
        return cls(f"{what} is degenerate; kernel covector witness: {text or 'none'}", witness)


def hamiltonian_section(P: Bivector, H: Expr) -> Section:
    """X_H = P#(d^A H)."""
    A = P.algebroid
    return P.sharp(d_A(A, H))
