"""Lie algebroids over a coordinate patch, with the Cartan calculus.

An algebroid is given by base coordinates, a global frame, an anchor matrix
(rows indexed by the frame, columns by base coordinates) and structure
functions C[a][b][g] with [e_a, e_b] = sum_g C[a][b][g] e_g.  Sections and
k-forms are component vectors / alternating component tables over the frame.

The exterior differential is the Koszul formula; d^2 = 0 on every form is
equivalent to the structure data satisfying the Jacobi identity together
with the anchor being a morphism, which is what ``check_algebroid`` tests.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import cached_property

from .expr import Expr, ZERO, ONE, ExprError
from .linalg import Matrix


@dataclass(frozen=True)
class LieAlgebroid:
    base_vars: tuple[str, ...]
    frame: tuple[str, ...]
    anchor: tuple[tuple[Expr, ...], ...]          # anchor[a][i] = rho_a^i
    structure: tuple[tuple[tuple[Expr, ...], ...], ...]  # structure[a][b][g]

    def __post_init__(self):
        r, n = len(self.frame), len(self.base_vars)
        if len(set(self.base_vars)) != n or len(set(self.frame)) != r:
            raise ValueError("duplicate base variable or frame name")
        if set(self.base_vars) & set(self.frame):
            raise ValueError("frame names must differ from base variables")
        if len(self.anchor) != r or any(len(row) != n for row in self.anchor):
            raise ValueError("anchor matrix must be rank x dim")
        if len(self.structure) != r or any(
            len(plane) != r or any(len(row) != r for row in plane)
            for plane in self.structure
        ):
            raise ValueError("structure functions must be rank x rank x rank")

    @property
    def rank(self) -> int:
        return len(self.frame)

    @property
    def dim(self) -> int:
        return len(self.base_vars)

    def frame_index(self, name: str) -> int:
        return self.frame.index(name)

    # -- sparse views of the anchor and structure --------------------------
    #
    # Cached on the instance; the class is frozen, so they cannot go stale,
    # and they are not dataclass fields, so equality, hashing and
    # ``dataclasses.replace`` ignore them.

    @cached_property
    def _anchor_rows(self) -> tuple[tuple[tuple[str, Expr], ...], ...]:
        """Per frame element a, the (base var, rho_a^i) pairs with rho_a^i != 0."""
        return tuple(
            tuple((v, rho) for v, rho in zip(self.base_vars, row) if not rho.is_zero())
            for row in self.anchor
        )

    @cached_property
    def _structure_rows(self) -> tuple[tuple[tuple[tuple[int, Expr], ...], ...], ...]:
        """Per frame pair (a, b), the (g, C_ab^g) pairs with C_ab^g != 0."""
        return tuple(
            tuple(
                tuple((g, c) for g, c in enumerate(row) if not c.is_zero())
                for row in plane
            )
            for plane in self.structure
        )

    def _rho_frame(self, a: int, f: Expr, grads: dict[str, Expr]) -> Expr:
        """rho(e_a)(f) = sum_i rho_a^i df/dx^i over the nonzero anchor entries.

        ``grads`` caches df/dx^i by base variable; share one dict across the
        frame elements applied to the same f, so each derivative is taken
        once."""
        out = ZERO
        for v, rho in self._anchor_rows[a]:
            g = grads.get(v)
            if g is None:
                g = grads[v] = f.diff(v)
            if not g.is_zero():
                out = out + rho * g
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_tables(
        base_vars: list[str],
        frame: list[str],
        anchor: list[list[Expr]],
        structure: dict[tuple[int, int], dict[int, Expr]] | None = None,
    ) -> "LieAlgebroid":
        """Build from an anchor table and a sparse antisymmetric structure
        table keyed by frame index pairs (a, b) with a < b."""
        r = len(frame)
        C = [[[ZERO for _ in range(r)] for _ in range(r)] for _ in range(r)]
        for (a, b), row in (structure or {}).items():
            if a == b:
                raise ValueError("structure functions must be off-diagonal")
            for g, e in row.items():
                C[a][b][g] = C[a][b][g] + e
                C[b][a][g] = C[b][a][g] - e
        return LieAlgebroid(
            tuple(base_vars),
            tuple(frame),
            tuple(tuple(row) for row in anchor),
            tuple(tuple(tuple(x for x in row) for row in plane) for plane in C),
        )

    @staticmethod
    def tangent(base_vars: list[str], frame_prefix: str = "D") -> "LieAlgebroid":
        """Tangent algebroid of a coordinate patch: identity anchor, zero
        structure functions; frame names prefix the coordinates."""
        n = len(base_vars)
        frame = [frame_prefix + v for v in base_vars]
        anchor = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        return LieAlgebroid.from_tables(base_vars, frame, anchor, {})

    # -- sections and functions -------------------------------------------

    def section(self, comps: list[Expr]) -> "Section":
        return Section(self, tuple(comps))

    def frame_section(self, a: int | str) -> "Section":
        if isinstance(a, str):
            a = self.frame_index(a)
        return Section(self, tuple(ONE if i == a else ZERO for i in range(self.rank)))

    def one_form(self, comps: list[Expr]) -> "KForm":
        return KForm(self, 1, {(i,): c for i, c in enumerate(comps) if not c.is_zero()})

    def dual_frame_form(self, a: int | str) -> "KForm":
        if isinstance(a, str):
            a = self.frame_index(a)
        return KForm(self, 1, {(a,): ONE})

    def anchor_apply(self, X: "Section", f: Expr) -> Expr:
        """Derivation of a base function along the image of a section:
        rho(X)(f) = sum_a X^a sum_i rho_a^i df/dx^i.

        Reads the nonzero anchor entries from a view cached on this frozen
        algebroid (it lives exactly as long as the algebroid) and takes each
        partial derivative of f at most once per call."""
        if f.is_zero():
            return ZERO
        grads: dict[str, Expr] = {}
        out = ZERO
        for a, xa in enumerate(X.comps):
            if xa.is_zero():
                continue
            t = self._rho_frame(a, f, grads)
            if not t.is_zero():
                out = out + xa * t
        return out

    def bracket(self, X: "Section", Y: "Section") -> "Section":
        """Section bracket from the structure functions and anchor:
        [X, Y]^g = X^a Y^b C_ab^g + rho(X)(Y^g) - rho(Y)(X^g)."""
        comps = [
            self.anchor_apply(X, yg) - self.anchor_apply(Y, xg)
            for xg, yg in zip(X.comps, Y.comps)
        ]
        for a, xa in enumerate(X.comps):
            if xa.is_zero():
                continue
            for b, yb in enumerate(Y.comps):
                row = self._structure_rows[a][b]
                if not row or yb.is_zero():
                    continue
                xy = xa * yb
                for g, c in row:
                    comps[g] = comps[g] + xy * c
        return Section(self, tuple(comps))

    # -- verification ------------------------------------------------------

    def check_algebroid(self) -> "CheckReport":
        """Anchor-morphism and Jacobi identities on all frame triples."""
        failures = []
        r, n = self.rank, self.dim
        # anchor is a morphism: rho([e_a, e_b]) = [rho e_a, rho e_b]
        for a in range(r):
            for b in range(a + 1, r):
                for i in range(n):
                    lhs = ZERO
                    for g in range(r):
                        lhs = lhs + self.structure[a][b][g] * self.anchor[g][i]
                    rhs = ZERO
                    for j, v in enumerate(self.base_vars):
                        rhs = (
                            rhs
                            + self.anchor[a][j] * self.anchor[b][i].diff(v)
                            - self.anchor[b][j] * self.anchor[a][i].diff(v)
                        )
                    if not (lhs - rhs).is_zero():
                        failures.append(
                            (
                                f"anchor morphism fails on ({self.frame[a]}, "
                                f"{self.frame[b]}) component {self.base_vars[i]}",
                                lhs - rhs,
                            )
                        )
        # Jacobi on frame triples
        for a in range(r):
            for b in range(a + 1, r):
                for c in range(b + 1, r):
                    ea, eb, ec = (self.frame_section(k) for k in (a, b, c))
                    j = (
                        self.bracket(ea, self.bracket(eb, ec)).comps
                    )
                    j2 = self.bracket(eb, self.bracket(ec, ea)).comps
                    j3 = self.bracket(ec, self.bracket(ea, eb)).comps
                    for g in range(r):
                        tot = j[g] + j2[g] + j3[g]
                        if not tot.is_zero():
                            failures.append(
                                (
                                    f"Jacobi fails on ({self.frame[a]}, "
                                    f"{self.frame[b]}, {self.frame[c]}) "
                                    f"component {self.frame[g]}",
                                    tot,
                                )
                            )
        return CheckReport(not failures, failures)


@dataclass
class CheckReport:
    ok: bool
    failures: list[tuple[str, Expr]] = field(default_factory=list)
    seconds: float = 0.0  # wall time of the check, when run through timed_check

    def witness(self) -> str | None:
        if self.ok:
            return None
        msg, e = self.failures[0]
        return f"{msg}: residual {e}"


def timed_check(check, *args) -> CheckReport:
    """Run ``check(*args)`` and record its wall time on the returned report."""
    t0 = time.perf_counter()
    rep = check(*args)
    rep.seconds = time.perf_counter() - t0
    return rep


@dataclass(frozen=True)
class Section:
    algebroid: LieAlgebroid
    comps: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.comps) != self.algebroid.rank:
            raise ValueError("section has wrong number of components")

    def __add__(self, other: "Section") -> "Section":
        _same(self, other)
        return Section(self.algebroid, tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other: "Section") -> "Section":
        _same(self, other)
        return Section(self.algebroid, tuple(a - b for a, b in zip(self.comps, other.comps)))

    def __neg__(self) -> "Section":
        return Section(self.algebroid, tuple(-a for a in self.comps))

    def scale(self, f: Expr) -> "Section":
        return Section(self.algebroid, tuple(f * a for a in self.comps))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def __str__(self) -> str:
        parts = [
            f"({c})*{name}"
            for c, name in zip(self.comps, self.algebroid.frame)
            if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"


def _same(a, b):
    if a.algebroid is not b.algebroid and a.algebroid != b.algebroid:
        raise ValueError("operands live on different algebroids")


@dataclass(frozen=True)
class KForm:
    """Alternating k-form on the frame, stored on increasing index tuples."""

    algebroid: LieAlgebroid
    degree: int
    comps: dict[tuple[int, ...], Expr]

    def __post_init__(self):
        for idx in self.comps:
            if len(idx) != self.degree or list(idx) != sorted(set(idx)):
                raise ValueError(f"component index {idx} not strictly increasing")

    def entry(self, idx: tuple[int, ...]) -> Expr:
        """Component on an arbitrary index tuple, with sign and repeats."""
        if len(set(idx)) != len(idx):
            return ZERO
        order = tuple(sorted(idx))
        sign = _perm_sign(idx)
        c = self.comps.get(order, ZERO)
        return c if sign > 0 else -c

    def __call__(self, *sections: Section) -> Expr:
        if len(sections) != self.degree:
            raise ValueError(f"form of degree {self.degree} applied to {len(sections)} sections")
        r = self.algebroid.rank
        out = ZERO
        for idx, c in self.comps.items():
            if c.is_zero():
                continue
            for perm in itertools.permutations(range(self.degree)):
                sign = _perm_sign(perm)
                prod = c if sign > 0 else -c
                for slot, which in enumerate(perm):
                    prod = prod * sections[slot].comps[idx[which]]
                    if prod.is_zero():
                        break
                out = out + prod
        return out

    def __add__(self, other: "KForm") -> "KForm":
        _same(self, other)
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        d = dict(self.comps)
        for k, v in other.comps.items():
            d[k] = d.get(k, ZERO) + v
        return KForm(self.algebroid, self.degree, _prune(d))

    def __sub__(self, other: "KForm") -> "KForm":
        return self + (-other)

    def __neg__(self) -> "KForm":
        return KForm(self.algebroid, self.degree, {k: -v for k, v in self.comps.items()})

    def scale(self, f: Expr) -> "KForm":
        return KForm(self.algebroid, self.degree, _prune({k: f * v for k, v in self.comps.items()}))

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.comps.values())

    def wedge(self, other: "KForm") -> "KForm":
        _same(self, other)
        k, l = self.degree, other.degree
        d: dict[tuple[int, ...], Expr] = {}
        for ia, ca in self.comps.items():
            for ib, cb in other.comps.items():
                if set(ia) & set(ib):
                    continue
                idx = ia + ib
                order = tuple(sorted(idx))
                sign = _perm_sign(idx)
                val = ca * cb if sign > 0 else -(ca * cb)
                d[order] = d.get(order, ZERO) + val
        return KForm(self.algebroid, k + l, _prune(d))

    def __str__(self) -> str:
        if not self.comps:
            return "0"
        names = self.algebroid.frame
        parts = []
        for idx in sorted(self.comps):
            c = self.comps[idx]
            if c.is_zero():
                continue
            basis = "^".join(f"th_{names[i]}" for i in idx)
            parts.append(f"({c})*{basis}" if basis else f"({c})")
        return " + ".join(parts) if parts else "0"


def _prune(d: dict) -> dict:
    return {k: v for k, v in d.items() if not v.is_zero()}


def _perm_sign(idx) -> int:
    sign = 1
    idx = list(idx)
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            if idx[i] > idx[j]:
                sign = -sign
    return sign


def zero_form(A: LieAlgebroid, degree: int) -> KForm:
    return KForm(A, degree, {})


def d_A(A: LieAlgebroid, omega) -> "KForm":
    """Exterior differential by the Koszul formula.

    A degree-0 "form" may be passed as a plain expression; the result is the
    one-form with components rho(e_a)(f).

    Reads the nonzero anchor and structure entries from views cached on the
    frozen algebroid (they live exactly as long as it does) and takes each
    partial derivative of each component of omega at most once per call.
    """
    if isinstance(omega, Expr):
        grads: dict[str, Expr] = {}
        return A.one_form([A._rho_frame(a, omega, grads) for a in range(A.rank)])
    k = omega.degree
    r = A.rank
    grads_of: dict[tuple[int, ...], dict[str, Expr]] = {}
    d: dict[tuple[int, ...], Expr] = {}
    for idx in itertools.combinations(range(r), k + 1):
        val = ZERO
        for i in range(k + 1):
            rest = idx[:i] + idx[i + 1 :]
            inner = omega.comps.get(rest, ZERO)
            if not inner.is_zero():
                term = A._rho_frame(idx[i], inner, grads_of.setdefault(rest, {}))
                val = val + (term if i % 2 == 0 else -term)
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                rest = tuple(x for t, x in enumerate(idx) if t != i and t != j)
                for g, c in A._structure_rows[idx[i]][idx[j]]:
                    inner = omega.entry((g,) + rest)
                    if inner.is_zero():
                        continue
                    term = c * inner
                    val = val + (term if (i + j) % 2 == 0 else -term)
        if not val.is_zero():
            d[idx] = val
    return KForm(A, k + 1, d)


def interior(X: Section, omega: KForm) -> KForm:
    """Interior product i_X omega (first slot)."""
    if omega.degree == 0:
        raise ValueError("interior product undefined on degree-0 forms")
    A = omega.algebroid
    d: dict[tuple[int, ...], Expr] = {}
    for idx in itertools.combinations(range(A.rank), omega.degree - 1):
        val = ZERO
        for b in range(A.rank):
            if X.comps[b].is_zero():
                continue
            e = omega.entry((b,) + idx)
            if not e.is_zero():
                val = val + X.comps[b] * e
        if not val.is_zero():
            d[idx] = val
    return KForm(A, omega.degree - 1, d)


def lie_derivative(X: Section, omega):
    """Cartan formula L_X = i_X d + d i_X (plain derivation on functions)."""
    A = X.algebroid
    if isinstance(omega, Expr):
        return A.anchor_apply(X, omega)
    if omega.degree == 0:
        raise ValueError("degree-0 forms should be passed as plain expressions")
    return interior(X, d_A(A, omega)) + d_A(A, interior(X, omega))
