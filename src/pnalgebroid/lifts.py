"""Vertical, complete and star-complete lifts to the total spaces.

The total space of the bundle gets coordinates (x^i, y_a) with one fiber
coordinate per frame element (prefix ``y_``); the dual total space uses the
prefix ``z_``.  Lifted objects are ordinary vector fields / bivectors on
those coordinate patches, stored as plain component vectors so the usual
coordinate bracket applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import Expr, ZERO
from .algebroid import LieAlgebroid, Section
from .poisson import Bivector
from .linalg import evaluate_matrix

FIBER_PREFIX = "y_"
DUAL_FIBER_PREFIX = "z_"


def fiber_vars(A: LieAlgebroid) -> list[str]:
    return [FIBER_PREFIX + f for f in A.frame]

def dual_fiber_vars(A: LieAlgebroid) -> list[str]:
    return [DUAL_FIBER_PREFIX + f for f in A.frame]

def total_vars(A: LieAlgebroid) -> list[str]:
    return list(A.base_vars) + fiber_vars(A)

def dual_total_vars(A: LieAlgebroid) -> list[str]:
    return list(A.base_vars) + dual_fiber_vars(A)


@dataclass(frozen=True)
class TotalVectorField:
    """Vector field on a coordinate patch, components over ``variables``."""

    variables: tuple[str, ...]
    comps: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.comps) != len(self.variables):
            raise ValueError("component count does not match variables")

    def __add__(self, other: "TotalVectorField") -> "TotalVectorField":
        _check_patch(self, other)
        return TotalVectorField(
            self.variables, tuple(a + b for a, b in zip(self.comps, other.comps))
        )

    def __sub__(self, other: "TotalVectorField") -> "TotalVectorField":
        _check_patch(self, other)
        return TotalVectorField(
            self.variables, tuple(a - b for a, b in zip(self.comps, other.comps))
        )

    def scale(self, f: Expr) -> "TotalVectorField":
        return TotalVectorField(self.variables, tuple(f * c for c in self.comps))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def apply(self, f: Expr) -> Expr:
        """Derivation on functions of the patch coordinates."""
        out = ZERO
        for v, c in zip(self.variables, self.comps):
            if not c.is_zero():
                out = out + c * f.diff(v)
        return out


def _check_patch(a, b):
    if a.variables != b.variables:
        raise ValueError("vector fields live on different coordinate patches")


def total_space_bracket(V: TotalVectorField, W: TotalVectorField) -> TotalVectorField:
    """Coordinate bracket [V, W]^k = V(W^k) - W(V^k)."""
    _check_patch(V, W)
    return TotalVectorField(
        V.variables, tuple(V.apply(w) - W.apply(v) for v, w in zip(V.comps, W.comps))
    )


def lift_function(A: LieAlgebroid, f: Expr, kind: str) -> Expr:
    """Vertical lift f^v = f (pulled back) or complete lift
    f^c = y_a rho_a^i df/dx^i (the fiberwise-linear derivative function)."""
    if kind == "v":
        return f
    if kind == "c":
        out = ZERO
        ys = fiber_vars(A)
        for a in range(A.rank):
            for i, x in enumerate(A.base_vars):
                t = A.anchor[a][i] * f.diff(x)
                if not t.is_zero():
                    out = out + Expr.var(ys[a]) * t
        return out
    raise ValueError(f"unknown lift kind {kind!r} (expected 'v' or 'c')")


def lift_section(A: LieAlgebroid, X: Section, kind: str) -> TotalVectorField:
    """Vertical / complete lift of a section to the total space.

    X^v = X^a d/dy_a;
    X^c = X^a rho_a^i d/dx^i + (rho_b^i dX^a/dx^i - X^g C_gb^a) y_b d/dy_a.
    """
    n, r = A.dim, A.rank
    ys = fiber_vars(A)
    base = [ZERO] * n
    fiber = [ZERO] * r
    if kind == "v":
        fiber = list(X.comps)
    elif kind == "c":
        for i in range(n):
            for a in range(r):
                base[i] = base[i] + X.comps[a] * A.anchor[a][i]
        for a in range(r):
            coeff = ZERO
            for b in range(r):
                yb = Expr.var(ys[b])
                for i, x in enumerate(A.base_vars):
                    t = A.anchor[b][i] * X.comps[a].diff(x)
                    if not t.is_zero():
                        coeff = coeff + t * yb
                for g in range(r):
                    c = A.structure[g][b][a]
                    if not c.is_zero() and not X.comps[g].is_zero():
                        coeff = coeff - X.comps[g] * c * yb
            fiber[a] = coeff
    else:
        raise ValueError(f"unknown lift kind {kind!r} (expected 'v' or 'c')")
    return TotalVectorField(tuple(total_vars(A)), tuple(base + fiber))


def star_complete_lift(A: LieAlgebroid, X: Section) -> TotalVectorField:
    """Lift to the dual total space (x^i, z_a):
    X^{*c} = X^a rho_a^i d/dx^i
             - (rho_a^i dX^b/dx^i z_b + C_ab^g z_g X^b) d/dz_a."""
    n, r = A.dim, A.rank
    zs = dual_fiber_vars(A)
    base = [ZERO] * n
    for i in range(n):
        for a in range(r):
            base[i] = base[i] + X.comps[a] * A.anchor[a][i]
    fiber = [ZERO] * r
    for a in range(r):
        coeff = ZERO
        for b in range(r):
            zb = Expr.var(zs[b])
            for i, x in enumerate(A.base_vars):
                t = A.anchor[a][i] * X.comps[b].diff(x)
                if not t.is_zero():
                    coeff = coeff + t * zb
            for g in range(r):
                c = A.structure[a][b][g]
                if not c.is_zero() and not X.comps[b].is_zero():
                    coeff = coeff + c * Expr.var(zs[g]) * X.comps[b]
        fiber[a] = -coeff
    return TotalVectorField(tuple(dual_total_vars(A)), tuple(base + fiber))


def linear_function(A: LieAlgebroid, X: Section) -> Expr:
    """The fiberwise-linear function on the dual total space pairing with X."""
    zs = dual_fiber_vars(A)
    out = ZERO
    for a in range(A.rank):
        if not X.comps[a].is_zero():
            out = out + X.comps[a] * Expr.var(zs[a])
    return out


@dataclass(frozen=True)
class TotalBivector:
    """Bivector on a coordinate patch, upper-triangular component table."""

    variables: tuple[str, ...]
    comps: dict[tuple[int, int], Expr]

    def __post_init__(self):
        for i, j in self.comps:
            if not i < j:
                raise ValueError("bivector components must be upper-triangular")

    def __add__(self, other: "TotalBivector") -> "TotalBivector":
        _check_patch(self, other)
        d = dict(self.comps)
        for k, v in other.comps.items():
            d[k] = d.get(k, ZERO) + v
        return TotalBivector(self.variables, {k: v for k, v in d.items() if not v.is_zero()})

    def __sub__(self, other: "TotalBivector") -> "TotalBivector":
        _check_patch(self, other)
        d = dict(self.comps)
        for k, v in other.comps.items():
            d[k] = d.get(k, ZERO) - v
        return TotalBivector(self.variables, {k: v for k, v in d.items() if not v.is_zero()})

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.comps.values())


def wedge_fields(V: TotalVectorField, W: TotalVectorField) -> TotalBivector:
    _check_patch(V, W)
    d: dict[tuple[int, int], Expr] = {}
    m = len(V.variables)
    for i in range(m):
        for j in range(i + 1, m):
            e = V.comps[i] * W.comps[j] - V.comps[j] * W.comps[i]
            if not e.is_zero():
                d[(i, j)] = e
    return TotalBivector(V.variables, d)


def lift_bivector(A: LieAlgebroid, Q: Bivector, kind: str) -> TotalBivector:
    """Vertical / complete lift of a bivector, through the product rules
    (R ^ S)^v = R^v ^ S^v and (R ^ S)^c = R^c ^ S^v + R^v ^ S^c applied to
    the frame expansion Q = sum Q^{ab} e_a ^ e_b."""
    if kind not in ("v", "c"):
        raise ValueError(f"unknown lift kind {kind!r} (expected 'v' or 'c')")
    out = TotalBivector(tuple(total_vars(A)), {})
    r = A.rank
    ev = [lift_section(A, A.frame_section(a), "v") for a in range(r)]
    ec = [lift_section(A, A.frame_section(a), "c") for a in range(r)]
    for a in range(r):
        for b in range(a + 1, r):
            q = Q.mat[a][b]
            if q.is_zero():
                continue
            if kind == "v":
                out = out + _scale_biv(wedge_fields(ev[a], ev[b]), lift_function(A, q, "v"))
            else:
                out = out + _scale_biv(wedge_fields(ev[a], ev[b]), lift_function(A, q, "c"))
                out = out + _scale_biv(
                    wedge_fields(ec[a], ev[b]) + wedge_fields(ev[a], ec[b]),
                    lift_function(A, q, "v"),
                )
    return out


def _scale_biv(B: TotalBivector, f: Expr) -> TotalBivector:
    return TotalBivector(
        B.variables, {k: f * v for k, v in B.comps.items() if not (f * v).is_zero()}
    )


def fb_generators(
    A: LieAlgebroid, sections: list[Section], point_values: dict[str, float]
) -> np.ndarray:
    """Numeric generators of the lifted distribution at a total-space point:
    the vectors X^c(a) and X^v(a) for X ranging over the given sections.
    Rows are generators, columns the total-space coordinates."""
    lifts = [lift_section(A, X, kind).comps for X in sections for kind in ("c", "v")]
    return evaluate_matrix(lifts, point_values)
