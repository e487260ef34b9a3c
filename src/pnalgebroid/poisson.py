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
from collections import defaultdict
from dataclasses import dataclass
from functools import cache, cached_property

from .expr import Expr, ONE, ZERO, ExprError, _nonzero, dot
from .algebroid import (
    CheckReport,
    KForm,
    LieAlgebroid,
    Section,
    _dots,
    _scatter,
    _spread,
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

    # -- sparse views, cached on the frozen instance like the views of
    # ``LieAlgebroid``: every bracket table built on P reads them

    @cached_property
    def _rows(self) -> tuple[tuple[tuple[int, Expr], ...], ...]:
        """Per a, the (b, P^{ab}) with P^{ab} != 0."""
        return tuple(tuple(_nonzero(row)) for row in self.mat)

    @cached_property
    def _rho_rows(self) -> dict[tuple[int, int], tuple[tuple[int, Expr], ...]]:
        """Per frame pair a < b, the rho-row of P^{ab}: the (d, rho_d(P^{ab}))
        with rho_d(P^{ab}) != 0."""
        A = self.algebroid
        return {(a, b): A._rho_row(self.mat[a][b])
                for a, b in itertools.combinations(range(A.rank), 2)}

    def apply(self, alpha: KForm, beta: KForm) -> Expr:
        """P(alpha, beta) = alpha_a beta_b P^{ab} = (P#alpha)^b beta_b, one dot
        over the nonzero beta_b."""
        x = self.sharp(alpha).comps
        _check_one_form(beta)
        return dot((x[b], cb) for (b,), cb in beta.comps.items() if not cb.is_zero())

    def sharp(self, alpha: KForm) -> Section:
        """(P#alpha)^b = alpha_a P^{ab}, one dot per component: each nonzero
        alpha_a is spread over the nonzero P^{ab} of row a."""
        _check_one_form(alpha)
        coeffs = ((a, ca) for (a,), ca in alpha.comps.items())
        return Section(self.algebroid, tuple(_spread(coeffs, self._rows)))

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


def _schouten_frame(X: Section, P: Bivector) -> Bivector:
    """[X, P] of a section and a bivector from the frame tables:

        [X, P]^{ab} = rho(X)(P^{ab}) - L^a_c P^{cb} - P^{ac} L^b_c,
        L^a_c = (L_X theta^a)_c = rho_c(X^a) - X^d C_dc^a,

    rho(X) from ``anchor_apply``, each L^a_c and each sum over c one dot over
    the nonzero entries of X and P, the rho-rows of the X^a and the nonzero
    structure rows.  Equal to ``schouten_1r(X, P)``."""
    A, m = P.algebroid, P.mat
    r = A.rank
    xs = _nonzero(X.comps)
    # L[a], the (c, L^a_c) with L^a_c != 0
    lt = [defaultdict(list) for _ in range(r)]
    for a, x in xs:
        _scatter(lt[a], ONE, A._rho_row(x))
    for d, x in xs:  # -X^d C_dc^a = X^d C_cd^a
        for c, plane in enumerate(A._structure_rows):
            for a, cc in plane[d]:
                lt[a][c].append((x, cc))
    L = [_dots(row) for row in lt]
    entries: dict[tuple[int, int], Expr] = {}
    for a, b in itertools.combinations(range(r), 2):
        terms = [(l, m[b][c]) for c, l in L[a] if not m[b][c].is_zero()]  # -P^{cb} = P^{bc}
        terms += [(m[c][a], l) for c, l in L[b] if not m[c][a].is_zero()]  # -P^{ac} = P^{ca}
        e = A.anchor_apply(X, m[a][b]) + dot(terms)
        if not e.is_zero():
            entries[a, b] = e
    return Bivector.from_entries(A, entries)


@cache
def _triple_slots(r: int) -> dict[tuple[int, int], tuple]:
    """Per frame pair y < z of rank r, per x: None for x in {y, z}, else the
    sorted triple of {x, y, z} and whether B[y, z][x] enters its residual
    negated (y < x < z)."""
    return {(y, z): tuple(None if x in (y, z) else (tuple(sorted((x, y, z))), y < x < z)
                          for x in range(r))
            for y, z in itertools.combinations(range(r), 2)}


def _bracket_check(pairs: list[tuple[Bivector, Bivector]],
                   *known: list[Expr]) -> tuple[CheckReport, list[Expr]]:
    """The Poisson verdict and residuals of the bilinear frame bracket

        B(P, Q)[y, z][x] = sum_d P^{xd} rho_d(Q^{yz}) + sum_{d,e} P^{yd} Q^{ze} C_de^x

    summed over the (P, Q) in ``pairs``, rho_d the anchor of e_d and C_de^x
    the structure functions.  The residual on a frame triple a < b < c is
    B[b, c][a] - B[a, c][b] + B[a, b][c] plus its entry in each ``known``
    residual list (``itertools.combinations`` order).  B(P, P) gives
    (1/2) [P, P] and B(P, Q) + B(Q, P) the mixed bracket; with the residuals
    of (P, P) and (Q, Q) added, the mixed ones are those of P + Q.

    No B entry is formed: each term of B[y, z][x], y < z and x outside
    {y, z}, goes straight to the terms of its sorted triple, negated when
    y < x < z by reading the other entry of P or Q (both antisymmetric).
    Each residual is then one dot over its own nonzero terms and its nonzero
    ``known`` entries; a residual with none is ZERO and is never dotted."""
    A = pairs[0][0].algebroid
    r, C = A.rank, A._structure_rows
    terms = defaultdict(list)
    for (y, z), slots in _triple_slots(r).items():
        for P, Q in pairs:
            m, rows, q = P.mat, P._rows, Q.mat
            for d, v in Q._rho_rows[y, z]:
                for x, pdx in rows[d]:  # P^{xd} = -P^{dx}
                    if (slot := slots[x]) is not None:
                        key, neg = slot
                        terms[key].append((pdx if neg else m[x][d], v))
            for d, pyd in rows[y]:
                for e, qze in Q._rows[z]:
                    for x, c in C[d][e]:
                        if (slot := slots[x]) is not None:
                            key, neg = slot
                            terms[key].append((pyd * c, q[e][z] if neg else qze))
    residuals = []
    for abc, *es in zip(itertools.combinations(range(r), 3), *known):
        t = terms.get(abc, [])
        t += [(e, ONE) for e in es if not e.is_zero()]
        residuals.append(dot(t) if t else ZERO)
    failures = [(f"Poisson condition fails against dual covector {A.frame[a]} on pair "
                 f"({A.frame[b]}, {A.frame[c]})", e)
                for (a, b, c), e in zip(itertools.combinations(range(r), 3), residuals)
                if not e.is_zero()]
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


def _koszul_rows(Q: Bivector, more=None) -> dict[tuple[int, int], list[tuple[int, Expr]]]:
    """The Koszul structure rows K(Q)_ab^g = ([theta^a, theta^b]_Q)_g for
    a < b, read from the rho-rows and nonzero entries of Q (cached on Q) and
    the transposed structure rows:

        K(Q)_ab^g = rho_g(Q^{ab}) - Q^{ad} C_dg^b + Q^{bd} C_dg^a,

    antisymmetric in (a, b).  Each row holds its nonzero entries alone, the
    (g, K(Q)_ab^g) in ascending g, each one dot over its own nonzero terms;
    an entry with no term is never dotted.  ``more(a, b, terms)``, when
    given, appends further pairs to ``terms[g]`` (a ``defaultdict(list)``)
    before the dots are formed."""
    A, m = Q.algebroid, Q.mat
    r = A.rank
    CT, rows = A._structure_cols, Q._rows
    out = {}
    for a, b in itertools.combinations(range(r), 2):
        terms = defaultdict(list)
        _scatter(terms, ONE, Q._rho_rows[a, b])
        for d, _ in rows[a]:  # -Q^{ad} = Q^{da}
            _scatter(terms, m[d][a], CT[d][b])
        for d, qbd in rows[b]:
            _scatter(terms, qbd, CT[d][a])
        if more is not None:
            more(a, b, terms)
        out[a, b] = _dots(terms)
    return out


def dual_algebroid(P: Bivector) -> LieAlgebroid:
    """Algebroid structure on the dual bundle, its frame the dual frame
    theta^a named after the frame of A: the anchor is rho o P#, and the
    bracket of one-forms is the Koszul bracket, its structure rows read from
    ``_koszul_rows(P)``.  Valid when P is Poisson."""
    A = P.algebroid
    anchor = linalg.mat_mul(P.mat, A.anchor)
    structure = {ab: dict(row) for ab, row in _koszul_rows(P).items()}
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
