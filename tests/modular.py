"""A modular shadow of the exact expression ring: each Expr read in F_p.

The field is F_p with p = 2^61 - 1.  At a seeded point, the variable x_v
goes to a random a_v, exp(x_v / D) to a random nonzero b_v and exp(1 / D)
to a random nonzero f, where D is the lcm of the exponent denominators of
the expressions the shadow is built for.  Distinct canonical terms are
distinct monomials in these algebraically independent values, so the map is
a ring homomorphism of the class: an exact zero reads 0 at every point, and
a nonzero Expr reads 0 at a random point with probability at most deg / p
(Schwartz-Zippel).  It shares no arithmetic with ``pnalgebroid.expr``, so a
determinant read here and one computed by Gaussian elimination mod p check
the exact kernel from outside.

The map also commutes with d/dx_v, since exp(q x_v) goes to b_v^(qD) and
its derivative q exp(q x_v) to q b_v^(qD).  So an Expr read as a 1-jet (its
value and its gradient at the point, :class:`Jet`) determines the jet of
every sum and product by the product rule, and the anchor derivatives
rho_d(f) of a jet come out mod p too (:func:`poisson_residuals_mod`).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import lcm

P = 2**61 - 1


class Shadow:
    """The map Expr -> F_p at one seeded point, for the variables and the
    exponent denominators of ``exprs``."""

    def __init__(self, exprs, seed: int):
        names, den = set(), 1
        for e in exprs:
            for mono, lin, _ in e.terms:
                names.update(v for v, _ in mono)
                for v, q in lin:
                    names.add(v)
                    den = lcm(den, _denominator(q))
        rng = random.Random(seed)
        self.den = den
        # sorted, so that one seed draws the same point whatever the order
        # of the expressions
        self.a = {v: rng.randrange(P) for v in sorted(names) if v}
        self.b = {v: rng.randrange(1, P) for v in sorted(names | {""})}  # "": exp(1 / D)

    def __call__(self, e) -> int:
        return sum(self._term(*t) for t in e.terms) % P

    def matrix(self, a) -> list[list[int]]:
        return [[self(e) for e in row] for row in a]

    def jet(self, e, variables) -> "Jet":
        """The 1-jet of ``e``: its value and its derivatives along
        ``variables``, term by term: x_v^m contributes m x_v^(m - 1) and
        exp(q x_v) contributes q exp(q x_v)."""
        grad = dict.fromkeys(variables, 0)
        value = 0
        for mono, lin, c in e.terms:
            t = self._term(mono, lin, c)
            value += t
            for v, m in mono:
                if v in grad:
                    lower = tuple((w, k - 1 if w == v else k) for w, k in mono)
                    grad[v] += m * self._term(lower, lin, c)
            for v, q in lin:
                if v in grad:
                    grad[v] += _residue(q) * t
        return Jet(value % P, tuple(g % P for g in grad.values()))

    def _term(self, mono, lin, c) -> int:
        value = _residue(c)
        for v, m in mono:
            value = value * pow(self.a[v], m, P) % P
        for v, q in lin:
            k = q * self.den
            if _denominator(k) != 1:
                raise ValueError(f"exponent denominator {q} does not divide {self.den}")
            value = value * pow(self.b[v], int(k), P) % P
        return value


@dataclass(frozen=True)
class Jet:
    """A 1-jet over F_p: a value and its gradient, one entry per variable."""

    value: int
    grad: tuple[int, ...]

    def __add__(self, other: "Jet") -> "Jet":
        return Jet((self.value + other.value) % P,
                   tuple((x + y) % P for x, y in zip(self.grad, other.grad)))

    def __mul__(self, other: "Jet") -> "Jet":
        """The product rule: (f g)' = f g' + f' g."""
        f, g = self.value, other.value
        return Jet(f * g % P, tuple((f * y + g * x) % P for x, y in zip(self.grad, other.grad)))


def jet_matrix(shadow: Shadow, a, variables) -> list[list[Jet]]:
    return [[shadow.jet(e, variables) for e in row] for row in a]


def jet_product(a: list[list[Jet]], b: list[list[Jet]]) -> list[list[Jet]]:
    """(a b)[i][j] = sum_k a[i][k] b[k][j] over jets, by the product rule."""
    zero = Jet(0, (0,) * len(a[0][0].grad))
    return [[sum((x * b[k][j] for k, x in enumerate(row)), zero) for j in range(len(b[0]))]
            for row in a]


def jet_sum(a: list[list[Jet]], b: list[list[Jet]]) -> list[list[Jet]]:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def poisson_residuals_mod(shadow: Shadow, A, S: list[list[Jet]]) -> list[int]:
    """The textbook Poisson defect of the bivector S (jets of S^{ab} over
    ``A.base_vars``) per frame triple a < b < c in ``itertools.combinations``
    order, mod p:

        <theta^c, S#[theta^a, theta^b]_S - [S# theta^a, S# theta^b]>,

    a constant multiple of [S, S](theta^a, theta^b, theta^c), from the
    Koszul bracket of one-forms and the bracket of sections:

        [theta^a, theta^b]_S,g = rho_g(S^{ab}) - S^{ad} C_dg^b + S^{bd} C_dg^a,
        [X, Y]^c = X^d Y^e C_de^c + rho(X)(Y^c) - rho(Y)(X^c),

    with (S# theta^a)^d = S^{ad} and rho_d(f) = rho_d^i df/dx^i read from
    the gradient of the jet of f."""
    r = A.rank
    rho = shadow.matrix(A.anchor)
    C = [shadow.matrix(plane) for plane in A.structure]
    val = [[x.value for x in row] for row in S]

    def along(d, f: Jet) -> int:
        return sum(x * y for x, y in zip(rho[d], f.grad))

    out = []
    for a, b, c in itertools.combinations(range(r), 3):
        koszul = [along(g, S[a][b])
                  + sum(-val[a][d] * C[d][g][b] + val[b][d] * C[d][g][a] for d in range(r))
                  for g in range(r)]
        sharp = sum(k * val[g][c] for g, k in enumerate(koszul))
        bracket = sum(val[a][d] * val[b][e] * C[d][e][c] for d in range(r) for e in range(r))
        bracket += sum(val[a][d] * along(d, S[b][c]) - val[b][d] * along(d, S[a][c])
                       for d in range(r))
        out.append((sharp - bracket) % P)
    return out


def _denominator(q) -> int:
    return 1 if isinstance(q, int) else q.denominator


def _residue(q) -> int:
    """A rational number in F_p."""
    return q % P if isinstance(q, int) else q.numerator * pow(q.denominator, -1, P) % P


def det_mod(a: list[list[int]]) -> int:
    """The determinant of a square matrix over F_p, by Gaussian elimination."""
    a = [list(row) for row in a]
    n, d = len(a), 1
    for c in range(n):
        r = next((r for r in range(c, n) if a[r][c]), None)
        if r is None:
            return 0
        if r != c:
            a[c], a[r] = a[r], a[c]
            d = -d
        d = d * a[c][c] % P
        inv = pow(a[c][c], -1, P)
        for r in range(c + 1, n):
            f = a[r][c] * inv % P
            if f:
                a[r] = [(x - f * y) % P for x, y in zip(a[r], a[c])]
    return d % P


def adjugate_mod(a: list[list[int]]) -> list[list[int]]:
    """The adjugate over F_p: adj[i][j] is the (j, i) cofactor, each one
    determinant by elimination, so that singular matrices need no inverse."""
    n = len(a)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [[x for k, x in enumerate(row) if k != i] for r, row in enumerate(a) if r != j]
            adj[i][j] = (-det_mod(sub) if (i + j) % 2 else det_mod(sub)) % P
    return adj
