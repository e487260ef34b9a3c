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
"""

from __future__ import annotations

import random
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
        total = 0
        for mono, lin, c in e.terms:
            value = _residue(c)
            for v, m in mono:
                value = value * pow(self.a[v], m, P) % P
            for v, q in lin:
                k = q * self.den
                if _denominator(k) != 1:
                    raise ValueError(f"exponent denominator of {e} does not divide {self.den}")
                value = value * pow(self.b[v], int(k), P) % P
            total += value
        return total % P

    def matrix(self, a) -> list[list[int]]:
        return [[self(e) for e in row] for row in a]


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
