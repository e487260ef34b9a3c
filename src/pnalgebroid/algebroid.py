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
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

from .expr import Expr, ZERO, ONE, _nonzero, dot


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

    @cached_property
    def _anchor_cols(self) -> dict[str, tuple[tuple[int, Expr], ...]]:
        """Per base variable v read by some anchor row, the (a, rho_a^v)
        pairs with rho_a^v != 0."""
        cols: dict[str, list[tuple[int, Expr]]] = {}
        for a, row in enumerate(self._anchor_rows):
            for v, rho in row:
                cols.setdefault(v, []).append((a, rho))
        return {v: tuple(col) for v, col in cols.items()}

    @cached_property
    def _structure_cols(self) -> tuple[tuple[tuple[tuple[int, Expr], ...], ...], ...]:
        """The transposed structure rows: per frame pair (d, b), the
        (g, C_dg^b) pairs with C_dg^b != 0."""
        r = self.rank
        ct: list[list[list[tuple[int, Expr]]]] = [[[] for _ in range(r)] for _ in range(r)]
        for d, plane in enumerate(self._structure_rows):
            for g, row in enumerate(plane):
                for b, c in row:
                    ct[d][b].append((g, c))
        return tuple(tuple(tuple(col) for col in plane) for plane in ct)

    def _rho_row(self, f: Expr) -> tuple[tuple[int, Expr], ...]:
        """The (a, rho_a(f)) with rho_a(f) = sum_i rho_a^i df/dx^i != 0, in
        frame order, each one product or one dot over the sparse gradient of
        f (kept on f) and the nonzero anchor columns."""
        cols = self._anchor_cols
        terms = defaultdict(list)
        for v, g in f.gradient:
            _scatter(terms, g, cols.get(v, ()))
        return tuple(_dots(terms))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_tables(
        base_vars: list[str],
        frame: list[str],
        anchor: list[list[Expr]],
        structure: dict[tuple[int, int], dict[int, Expr]] | None = None,
    ) -> "LieAlgebroid":
        """Build from an anchor table and a sparse antisymmetric structure
        table keyed by frame index pairs (a, b) with a < b.  Every row
        (a, b) that no structure entry touches is one shared zero row."""
        r = len(frame)
        C: dict[tuple[int, int], list[Expr]] = {}
        for (a, b), row in (structure or {}).items():
            if a == b:
                raise ValueError("structure functions must be off-diagonal")
            ab = C.setdefault((a, b), [ZERO] * r)
            ba = C.setdefault((b, a), [ZERO] * r)
            for g, e in row.items():
                ab[g] = ab[g] + e
                ba[g] = ba[g] - e
        zero = (ZERO,) * r
        return LieAlgebroid(
            tuple(base_vars),
            tuple(frame),
            tuple(tuple(row) for row in anchor),
            tuple(tuple(tuple(C[a, b]) if (a, b) in C else zero for b in range(r))
                  for a in range(r)),
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
        rho(X)(f) = sum_i (sum_a X^a rho_a^i) df/dx^i, one dot over the
        nonzero X^a, the nonzero anchor columns and the sparse gradient of
        f, which f keeps."""
        cols, comps = self._anchor_cols, X.comps
        terms = [(comps[a] * rho, g) for v, g in f.gradient for a, rho in cols.get(v, ())
                 if not comps[a].is_zero()]
        return dot(terms)

    def bracket(self, X: "Section", Y: "Section") -> "Section":
        """Section bracket from the structure functions and anchor:
        [X, Y]^g = X^a Y^b C_ab^g + rho(X)(Y^g) - rho(Y)(X^g), the structure
        sum one dot per component over the nonzero X^a Y^b and C_ab^g."""
        terms = defaultdict(list)
        for a, xa in _nonzero(X.comps):
            for yb, row in zip(Y.comps, self._structure_rows[a]):
                if row and not yb.is_zero():
                    _scatter(terms, xa * yb, row)
        return Section(self, tuple(
            (dot(terms[g]) if g in terms else ZERO)
            + self.anchor_apply(X, yg) - self.anchor_apply(Y, xg)
            for g, (xg, yg) in enumerate(zip(X.comps, Y.comps))
        ))

    # -- verification ------------------------------------------------------

    def check_algebroid(self) -> "CheckReport":
        """Anchor-morphism and Jacobi identities on all frame triples, each
        nonzero component one dot over its own terms (``_dots``)."""
        failures = []
        r, C = self.rank, self._structure_rows
        # anchor is a morphism: rho([e_a, e_b])^i = sum_g C_ab^g rho_g^i equals
        # [rho e_a, rho e_b]^i = rho_a(rho_b^i) - rho_b(rho_a^i), with R[b] the
        # (i, rho-row of rho_b^i) of the nonzero anchor entries
        anchor = [_nonzero(row) for row in self.anchor]
        R = [[(i, dict(self._rho_row(e))) for i, e in row] for row in anchor]
        minus = -ONE
        for a, b in itertools.combinations(range(r), 2):
            terms = defaultdict(list)
            for g, c in C[a][b]:
                _scatter(terms, c, anchor[g])
            for x, y, sign in ((a, b, minus), (b, a, ONE)):
                for i, row in R[y]:
                    if (v := row.get(x)) is not None:
                        terms[i].append((sign, v))
            failures += [(f"anchor morphism fails on ({self.frame[a]}, {self.frame[b]}) "
                          f"component {self.base_vars[i]}", e) for i, e in _dots(terms)]
        # Jacobi: the cyclic sum over (x, y, z) of
        # [e_x, [e_y, e_z]]^g = sum_h C_yz^h C_xh^g + rho_x(C_yz^g), with
        # S[y, z, h] the rho-row of the structure entry C_yz^h
        S = {(y, z, h): dict(self._rho_row(c)) for y, plane in enumerate(C)
             for z, row in enumerate(plane) for h, c in row}
        for a, b, c in itertools.combinations(range(r), 3):
            terms = defaultdict(list)
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                for h, cyz in C[y][z]:
                    _scatter(terms, cyz, C[x][h])
                    if (v := S[y, z, h].get(x)) is not None:
                        terms[h].append((ONE, v))
            failures += [
                (f"Jacobi fails on ({self.frame[a]}, {self.frame[b]}, {self.frame[c]}) "
                 f"component {self.frame[g]}", t)
                for g, t in _dots(terms)
            ]
        return CheckReport(not failures, failures)


@dataclass
class CheckReport:
    """A verdict and its failures, each a message and its nonzero residual,
    or None for a failure that no residual witnesses."""

    ok: bool
    failures: list[tuple[str, Expr | None]] = field(default_factory=list)
    seconds: float = 0.0  # wall time of the check, when run through timed_check

    def witness(self) -> str | None:
        if self.ok:
            return None
        msg, e = self.failures[0]
        return msg if e is None else f"{msg}: residual {e}"


def _scatter(terms: defaultdict, f: Expr, row) -> None:
    """Append the pair (f, x) to ``terms[h]`` for each (h, x) in ``row``:
    ``terms`` is a ``defaultdict(list)`` keyed by the residual or component
    a term feeds, so that only the keys with a term are ever present."""
    for h, x in row:
        terms[h].append((f, x))


def _dots(terms: defaultdict) -> list[tuple[int, Expr]]:
    """The (h, e) with e = the dot of ``terms[h]`` nonzero, h ascending: one
    dot per key that has a term; a key with none is never dotted."""
    return [(h, e) for h in sorted(terms) if not (e := dot(terms[h])).is_zero()]


def _spread(coeffs, rows) -> list[Expr]:
    """The components of sum_a f_a rows[a] over the (a, f_a) of ``coeffs``,
    each one dot: every nonzero f_a is spread over the (b, x) of rows[a]; a
    component with no term is ZERO."""
    terms = defaultdict(list)
    for a, f in coeffs:
        if not f.is_zero():
            _scatter(terms, f, rows[a])
    return [dot(terms[b]) if b in terms else ZERO for b in range(len(rows))]


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

    def map(self, f) -> "Section":
        return Section(self.algebroid, tuple(f(a) for a in self.comps))

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
        """omega(X_1, ..., X_k), the sum over the stored indices I and their
        orderings J of sign(J) omega_I X_1^{J_1} ... X_k^{J_k}, one dot."""
        if len(sections) != self.degree:
            raise ValueError(f"form of degree {self.degree} applied to {len(sections)} sections")
        pairs = []
        for idx, c in self.comps.items():
            for perm in itertools.permutations(idx):
                prod = c if _perm_sign(perm) > 0 else -c
                for X, i in zip(sections, perm):
                    prod = prod * X.comps[i]
                pairs.append((prod, ONE))
        return dot(pairs)

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

    def map(self, f) -> "KForm":
        return KForm(self.algebroid, self.degree, {k: f(v) for k, v in self.comps.items()})

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.comps.values())

    def wedge(self, other: "KForm") -> "KForm":
        """(a ^ b)_I, one dot per index I over the pairs of stored
        components on disjoint indices that make up I."""
        _same(self, other)
        terms: dict[tuple[int, ...], list[tuple[Expr, Expr]]] = {}
        for ia, ca in self.comps.items():
            for ib, cb in other.comps.items():
                if not set(ia) & set(ib):
                    idx = ia + ib
                    terms.setdefault(tuple(sorted(idx)), []).append(
                        (ca if _perm_sign(idx) > 0 else -ca, cb))
        return KForm(self.algebroid, self.degree + other.degree,
                     _prune({idx: dot(t) for idx, t in terms.items()}))

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
    frozen algebroid (they live exactly as long as it does) and the
    anchor derivatives of each component of omega from its rho-row.
    """
    if isinstance(omega, Expr):
        return KForm(A, 1, {(a,): e for a, e in A._rho_row(omega)})
    k = omega.degree
    r = A.rank
    rows = {rest: dict(A._rho_row(inner)) for rest, inner in omega.comps.items()}
    d: dict[tuple[int, ...], Expr] = {}
    for idx in itertools.combinations(range(r), k + 1):
        val = ZERO
        for i in range(k + 1):
            row = rows.get(idx[:i] + idx[i + 1 :])
            if row and (term := row.get(idx[i])) is not None:
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
    """Interior product i_X omega (first slot): (i_X omega)_I = X^b omega_bI,
    one dot per index I over the nonzero X^b."""
    if omega.degree == 0:
        raise ValueError("interior product undefined on degree-0 forms")
    A, xs = omega.algebroid, _nonzero(X.comps)
    return KForm(A, omega.degree - 1, _prune({
        idx: dot((x, omega.entry((b,) + idx)) for b, x in xs)
        for idx in itertools.combinations(range(A.rank), omega.degree - 1)
    }))


def lie_derivative(X: Section, omega):
    """Cartan formula L_X = i_X d + d i_X (plain derivation on functions)."""
    A = X.algebroid
    if isinstance(omega, Expr):
        return A.anchor_apply(X, omega)
    if omega.degree == 0:
        raise ValueError("degree-0 forms should be passed as plain expressions")
    return interior(X, d_A(A, omega)) + d_A(A, interior(X, omega))
