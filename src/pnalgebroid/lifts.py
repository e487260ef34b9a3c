"""Vertical, complete and star-complete lifts to the total spaces.

The total space of the bundle gets coordinates (x^i, y_a) with one fiber
coordinate per frame element (prefix ``y_``); the dual total space uses the
prefix ``z_``.  Vector fields and bivectors on those coordinate patches are
sections and bivectors of their tangent algebroids, ``total_space(A)`` and
``dual_total_space(A)``: the bracket of two lifts is ``T.bracket``, a lift
acts on functions through ``T.anchor_apply``, and a bivector scales with
``Bivector.map``.

With Y = y_a e_a, the tautological section of the pulled-back bundle, the
complete lifts read off the algebroid's own calculus: f^c = rho(Y)(f),
X^c = rho(X) + [Y, X]^a d/dy_a and X^{*c} = rho(X) + <z, [X, e_a]> d/dz_a.
"""

from __future__ import annotations

import numpy as np

from .expr import Expr, ZERO
from .algebroid import LieAlgebroid, Section
from .poisson import Bivector
from .linalg import evaluate_matrix

FIBER_PREFIX = "y_"
DUAL_FIBER_PREFIX = "z_"
# frame of the total spaces' tangent algebroids: d/dx^i, d/dy_a
TANGENT_PREFIX = "d/d"


def fiber_vars(A: LieAlgebroid) -> list[str]:
    return [FIBER_PREFIX + f for f in A.frame]

def dual_fiber_vars(A: LieAlgebroid) -> list[str]:
    return [DUAL_FIBER_PREFIX + f for f in A.frame]

def total_vars(A: LieAlgebroid) -> list[str]:
    return list(A.base_vars) + fiber_vars(A)

def dual_total_vars(A: LieAlgebroid) -> list[str]:
    return list(A.base_vars) + dual_fiber_vars(A)


def total_space(A: LieAlgebroid) -> LieAlgebroid:
    """Tangent algebroid of the total space, coordinates (x^i, y_a)."""
    return LieAlgebroid.tangent(total_vars(A), TANGENT_PREFIX)


def dual_total_space(A: LieAlgebroid) -> LieAlgebroid:
    """Tangent algebroid of the dual total space, coordinates (x^i, z_a)."""
    return LieAlgebroid.tangent(dual_total_vars(A), TANGENT_PREFIX)


def _check_kind(kind: str) -> None:
    if kind not in ("v", "c"):
        raise ValueError(f"unknown lift kind {kind!r} (expected 'v' or 'c')")


def _tautological(A: LieAlgebroid) -> Section:
    """Y = y_a e_a, whose components are the fiber coordinates."""
    return A.section([Expr.var(y) for y in fiber_vars(A)])


def _anchor_image(A: LieAlgebroid, X: Section) -> list[Expr]:
    """rho(X)^i = rho(X)(x^i)."""
    return [A.anchor_apply(X, Expr.var(x)) for x in A.base_vars]


def lift_function(A: LieAlgebroid, f: Expr, kind: str) -> Expr:
    """Vertical lift f^v = f (pulled back) or complete lift
    f^c = y_a rho_a^i df/dx^i (the fiberwise-linear derivative function)."""
    _check_kind(kind)
    return f if kind == "v" else A.anchor_apply(_tautological(A), f)


def lift_section(A: LieAlgebroid, X: Section, kind: str) -> Section:
    """Vertical / complete lift of a section to the total space.

    X^v = X^a d/dy_a;
    X^c = X^a rho_a^i d/dx^i + (rho_b^i dX^a/dx^i - X^g C_gb^a) y_b d/dy_a,
    whose fiber part is [Y, X] for the tautological section Y."""
    _check_kind(kind)
    if kind == "v":
        base, fiber = [ZERO] * A.dim, X.comps
    else:
        base, fiber = _anchor_image(A, X), A.bracket(_tautological(A), X).comps
    return total_space(A).section(base + list(fiber))


def star_complete_lift(A: LieAlgebroid, X: Section) -> Section:
    """Lift to the dual total space (x^i, z_a):
    X^{*c} = X^a rho_a^i d/dx^i
             - (rho_a^i dX^b/dx^i z_b + C_ab^g z_g X^b) d/dz_a,
    whose d/dz_a component is <z, [X, e_a]>."""
    fiber = [linear_function(A, A.bracket(X, A.frame_section(a))) for a in range(A.rank)]
    return dual_total_space(A).section(_anchor_image(A, X) + fiber)


def linear_function(A: LieAlgebroid, X: Section) -> Expr:
    """The fiberwise-linear function on the dual total space pairing with X."""
    zs = dual_fiber_vars(A)
    out = ZERO
    for a in range(A.rank):
        if not X.comps[a].is_zero():
            out = out + X.comps[a] * Expr.var(zs[a])
    return out


def lift_bivector(A: LieAlgebroid, Q: Bivector, kind: str) -> Bivector:
    """Vertical / complete lift of a bivector, through the product rules
    (R ^ S)^v = R^v ^ S^v and (R ^ S)^c = R^c ^ S^v + R^v ^ S^c applied to
    the frame expansion Q = sum Q^{ab} e_a ^ e_b, with e_a^v = d/dy_a."""
    _check_kind(kind)
    n, r = A.dim, A.rank
    if kind == "c":
        ec = [lift_section(A, A.frame_section(a), "c").comps for a in range(r)]
    entries: dict[tuple[int, int], Expr] = {}

    def add(i: int, j: int, e: Expr) -> None:  # e d_i ^ d_j
        if i != j:
            entries[(i, j)] = entries.get((i, j), ZERO) + e

    for a in range(r):
        for b in range(a + 1, r):
            q = Q.mat[a][b]
            if q.is_zero():
                continue
            add(n + a, n + b, lift_function(A, q, kind))
            if kind == "c":
                # e_a^c ^ e_b^v + e_a^v ^ e_b^c
                for i in range(n + r):
                    add(i, n + b, q * ec[a][i])
                    add(n + a, i, q * ec[b][i])
    return Bivector.from_entries(total_space(A), entries)


def fb_generators(
    A: LieAlgebroid, sections: list[Section], point_values: dict[str, float]
) -> np.ndarray:
    """Numeric generators of the lifted distribution at a total-space point:
    the vectors X^c(a) and X^v(a) for X ranging over the given sections.
    Rows are generators, columns the total-space coordinates."""
    lifts = [lift_section(A, X, kind).comps for X in sections for kind in ("c", "v")]
    return evaluate_matrix(lifts, point_values)
