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
from dataclasses import dataclass

from .expr import Expr, ZERO, ExprError
from .algebroid import (
    CheckReport,
    KForm,
    LieAlgebroid,
    Section,
    d_A,
    interior,
    lie_derivative,
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
        return linalg.det([list(row) for row in self.mat])

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


def is_poisson(P: Bivector) -> CheckReport:
    """Decide [P, P] = 0 from the frame components of P.

    With rho_d the anchor of e_d and C_de^x the structure functions,

        (1/2) [P, P]^{abc} = sum over the cyclic shifts (x, y, z) of (a, b, c)
            of  sum_d P^{xd} rho_d(P^{yz}) + sum_{d,e} P^{yd} P^{ze} C_de^x,

    the first sum being rho(P# theta^x)(P^{yz}).  On a tangent algebroid this
    is the Jacobiator sum_l P^{xl} d_l P^{yz} of {f, g} = P(df, dg).  The
    component is totally antisymmetric, so each frame triple a < b < c is
    checked once; a nonzero one is reported against the dual covector a on
    the pair (b, c), with the component above as the residual."""
    A = P.algebroid
    r = A.rank
    m = P.mat
    rows = [[(d, e) for d, e in enumerate(row) if not e.is_zero()] for row in m]
    # T[y, z][x], y < z: the summand of the cyclic sum at (x, y, z);
    # x in {y, z} is never read
    T: dict[tuple[int, int], list[Expr]] = {}
    for y, z in itertools.combinations(range(r), 2):
        grads: dict[str, Expr] = {}
        rho = [A._rho_frame(d, m[y][z], grads) for d in range(r)]
        t = [
            ZERO if x in (y, z)
            else sum((p * rho[d] for d, p in rows[x] if not rho[d].is_zero()), ZERO)
            for x in range(r)
        ]
        for d, pyd in rows[y]:
            for e, pze in rows[z]:
                for g, c in A._structure_rows[d][e]:
                    t[g] = t[g] + pyd * pze * c
        T[y, z] = t
    failures = []
    for a, b, c in itertools.combinations(range(r), 3):
        e = T[b, c][a] - T[a, c][b] + T[a, b][c]
        if not e.is_zero():
            failures.append(
                (
                    f"Poisson condition fails against dual covector "
                    f"{A.frame[a]} on pair ({A.frame[b]}, {A.frame[c]})",
                    e,
                )
            )
    return CheckReport(not failures, failures)


def are_compatible(P0: Bivector, P1: Bivector) -> CheckReport:
    """Both Poisson and the sum Poisson (equivalently, mixed bracket zero)."""
    for name, Q in (("first", P0), ("second", P1), ("sum", P0 + P1)):
        rep = is_poisson(Q)
        if not rep.ok:
            msg, e = rep.failures[0]
            return CheckReport(False, [(f"{name} bivector: {msg}", e)])
    return CheckReport(True, [])


def koszul_bracket(P: Bivector, alpha: KForm, beta: KForm) -> KForm:
    """Bracket of one-forms induced by P:
    [a, b]_P = L_{P#a} b - L_{P#b} a - d(P(a, b))."""
    A = P.algebroid
    return (
        lie_derivative(P.sharp(alpha), beta)
        - lie_derivative(P.sharp(beta), alpha)
        - d_A(A, P.apply(alpha, beta))
    )


def dual_algebroid(P: Bivector, dual_prefix: str = "th_") -> LieAlgebroid:
    """Algebroid structure on the dual bundle: bracket of one-forms is the
    Koszul bracket, anchor is rho o P#.  Valid when P is Poisson."""
    A = P.algebroid
    r = A.rank
    frame = [dual_prefix + name for name in A.frame]
    theta = [A.dual_frame_form(a) for a in range(r)]
    anchor = []
    for a in range(r):
        X = P.sharp(theta[a])
        anchor.append(
            [
                sum((X.comps[b] * A.anchor[b][i] for b in range(r)), ZERO)
                for i in range(A.dim)
            ]
        )
    structure: dict[tuple[int, int], dict[int, Expr]] = {}
    for a in range(r):
        for b in range(a + 1, r):
            kb = koszul_bracket(P, theta[a], theta[b])
            row = {g: c for (g,), c in kb.comps.items() if not c.is_zero()}
            if row:
                structure[(a, b)] = row
    return LieAlgebroid.from_tables(list(A.base_vars), frame, anchor, structure)


def induced_base_poisson(P: Bivector, target: LieAlgebroid | None = None) -> Bivector:
    """Push P to the base through the anchor: Lam^{ij} = rho_a^i P^{ab} rho_b^j.

    The result lives on the tangent algebroid of the base (or on ``target``,
    which must be a tangent-type algebroid over the same coordinates)."""
    A = P.algebroid
    if target is None:
        target = LieAlgebroid.tangent(list(A.base_vars))
    if tuple(target.base_vars) != tuple(A.base_vars):
        raise ValueError("target base coordinates do not match")
    n = A.dim
    r = A.rank
    entries: dict[tuple[int, int], Expr] = {}
    for i in range(n):
        for j in range(i + 1, n):
            val = ZERO
            for a in range(r):
                for b in range(r):
                    e = P.mat[a][b]
                    if e.is_zero():
                        continue
                    val = val + A.anchor[a][i] * e * A.anchor[b][j]
            if not val.is_zero():
                entries[(i, j)] = val
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
    m = [list(row) for row in P.mat]
    try:
        inv = linalg.inverse_pair(m)
    except ExprError:  # singular
        raise DegenerateBivector.from_matrix("bivector", A, linalg.mat_transpose(m)) from None
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
