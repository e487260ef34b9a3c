"""Built-in fixtures: the open Toda lattice in canonical, Flaschka and
invariant-frame presentations, and the semidirect-product fixture on the
dual of a Lie algebra with a chosen complemented subalgebra."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .expr import Expr, ZERO, ONE
from .algebroid import LieAlgebroid, Section, KForm
from .poisson import Bivector, two_form_from_matrix
from .nijenhuis import Endo, recursion_operator
from .reduction import EpimorphismSpec
from . import linalg


@dataclass
class TodaFixture:
    """The open Toda lattice with n sites, in three presentations."""

    n: int
    # canonical coordinates (q, p)
    tangent: LieAlgebroid
    lam0: Bivector
    lam1: Bivector
    N: Endo
    H0: Expr
    H1: Expr
    # Flaschka coordinates (a, b)
    flaschka: LieAlgebroid
    lam0_bar: Bivector
    lam1_bar: Bivector
    H0_bar: Expr
    H1_bar: Expr
    epi_flaschka: EpimorphismSpec
    # invariant frame over the Flaschka base
    atiyah: LieAlgebroid
    pi0: Bivector
    pi1: Bivector
    epi_atiyah: EpimorphismSpec

    def recursion_atiyah(self) -> linalg.Frac:
        return recursion_operator(self.pi0, self.pi1)


def build_toda(n: int) -> TodaFixture:
    if n < 2:
        raise ValueError("the open Toda lattice needs at least two sites")
    qs = [f"q{i+1}" for i in range(n)]
    ps = [f"p{i+1}" for i in range(n)]
    tangent = LieAlgebroid.tangent(qs + ps)
    p = [Expr.var(v) for v in ps]

    def egap(i: int) -> Expr:
        # exp(q_{i+1} - q_{i+2}), zero-based i
        return Expr.exp_of(Expr.var(qs[i]) - Expr.var(qs[i + 1]))

    # canonical pair and the recursion operator
    lam0 = Bivector.from_entries(
        tangent, {(i, n + i): ONE for i in range(n)}
    )
    entries: dict[tuple[int, int], Expr] = {}
    for i in range(n):
        for j in range(i + 1, n):
            entries[(i, j)] = -ONE
        entries[(i, n + i)] = p[i]
    for i in range(n - 1):
        entries[(n + i + 1, n + i)] = egap(i)
    lam1 = Bivector.from_entries(tangent, entries)

    nmat = [[ZERO for _ in range(2 * n)] for _ in range(2 * n)]
    for i in range(n):
        nmat[i][i] = p[i]
        if i >= 1:
            nmat[n + i - 1][i] = -egap(i - 1)
        if i <= n - 2:
            nmat[n + i + 1][i] = egap(i)
        nmat[n + i][n + i] = p[i]
        for j in range(n):
            if j < i:
                nmat[j][n + i] = ONE
            elif j > i:
                nmat[j][n + i] = -ONE
    N = Endo.from_matrix(tangent, nmat)

    H0 = sum(p, ZERO)
    H1 = sum((Expr.number(Fraction(1, 2)) * pi * pi for pi in p), ZERO) + sum(
        (egap(i) for i in range(n - 1)), ZERO
    )

    # Flaschka presentation
    avars = [f"a{i+1}" for i in range(n - 1)]
    bvars = [f"b{i+1}" for i in range(n)]
    flaschka = LieAlgebroid.tangent(avars + bvars)
    a = [Expr.var(v) for v in avars]
    b = [Expr.var(v) for v in bvars]
    ai, bi = (lambda i: i), (lambda i: n - 1 + i)
    lam0_bar = Bivector.from_entries(
        flaschka,
        {
            **{(ai(i), bi(i)): a[i] for i in range(n - 1)},
            **{(ai(i), bi(i + 1)): -a[i] for i in range(n - 1)},
        },
    )
    e1: dict[tuple[int, int], Expr] = {}
    for i in range(n - 1):
        e1[(ai(i), bi(i))] = a[i] * b[i]
        e1[(ai(i), bi(i + 1))] = -a[i] * b[i + 1]
        e1[(bi(i + 1), bi(i))] = a[i]
    for i in range(n - 2):
        e1[(ai(i + 1), ai(i))] = a[i] * a[i + 1]
    lam1_bar = Bivector.from_entries(flaschka, e1)
    H0_bar = sum(b, ZERO)
    H1_bar = sum((Expr.number(Fraction(1, 2)) * x * x for x in b), ZERO) + sum(a, ZERO)

    base_map = {avars[i]: egap(i) for i in range(n - 1)}
    base_map.update({bvars[i]: p[i] for i in range(n)})
    fm = [[ZERO for _ in range(2 * n)] for _ in range(2 * n - 1)]
    for i in range(n - 1):
        fm[ai(i)][i] = egap(i)
        fm[ai(i)][i + 1] = -egap(i)
    for i in range(n):
        fm[bi(i)][n + i] = ONE
    epi_flaschka = EpimorphismSpec("flaschka", tangent, flaschka, base_map, fm)

    # invariant frame: e_1..e_{n-1} over the a's, e_n in the kernel of the
    # anchor, f_1..f_n over the b's; all brackets vanish
    frame = [f"e{i+1}" for i in range(n)] + [f"f{i+1}" for i in range(n)]
    anchor = [[ZERO for _ in range(2 * n - 1)] for _ in range(2 * n)]
    for i in range(n - 1):
        anchor[i][ai(i)] = ONE
    for i in range(n):
        anchor[n + i][bi(i)] = ONE
    atiyah = LieAlgebroid.from_tables(avars + bvars, frame, anchor, {})
    ei, fi = (lambda i: i), (lambda i: n + i)
    p0: dict[tuple[int, int], Expr] = {(ei(n - 1), fi(n - 1)): ONE}
    for i in range(n - 1):
        p0[(ei(i), fi(i))] = a[i]
        p0[(ei(i), fi(i + 1))] = -a[i]
    pi0 = Bivector.from_entries(atiyah, p0)
    p1: dict[tuple[int, int], Expr] = {}
    for i in range(n - 2):
        p1[(ei(i), ei(i + 1))] = -(a[i] * a[i + 1])
    p1[(ei(n - 2), ei(n - 1))] = -a[n - 2]
    for i in range(n - 1):
        p1[(ei(i), fi(i))] = a[i] * b[i]
        p1[(ei(i), fi(i + 1))] = -(a[i] * b[i + 1])
        p1[(fi(i), fi(i + 1))] = -a[i]
    p1[(ei(n - 1), fi(n - 1))] = b[n - 1]
    pi1 = Bivector.from_entries(atiyah, p1)

    # fiber map onto the invariant frame: inverting the triangular frame of
    # invariant fields e_k = exp(q_{k+1} - q_k) (d/dq_1 + ... + d/dq_k)
    fma = [[ZERO for _ in range(2 * n)] for _ in range(2 * n)]
    for k in range(n - 1):
        fma[ei(k)][k] = egap(k)
        fma[ei(k)][k + 1] = -egap(k)
    fma[ei(n - 1)][n - 1] = ONE
    for j in range(n):
        fma[fi(j)][n + j] = ONE
    epi_atiyah = EpimorphismSpec("atiyah", tangent, atiyah, dict(base_map), fma)

    return TodaFixture(
        n, tangent, lam0, lam1, N, H0, H1,
        flaschka, lam0_bar, lam1_bar, H0_bar, H1_bar, epi_flaschka,
        atiyah, pi0, pi1, epi_atiyah,
    )


@dataclass
class SemidirectFixture:
    """Closed two-form and projector endomorphism on the product of a Lie
    algebra with its dual, over the dual as base."""

    algebroid: LieAlgebroid
    omega: KForm
    P: Bivector
    N: Endo
    h1_indices: list[int]
    kernel_basis: list[Section]


def build_semidirect(
    d: int,
    structure_constants: dict[tuple[int, int], dict[int, Fraction]],
    h1_indices: list[int],
) -> SemidirectFixture:
    """General semidirect fixture: base coordinates mu_1..mu_d on the dual,
    frame xi_1..xi_d (anchor zero, the Lie algebra bracket) and
    eps_1..eps_d (anchor the coordinate fields, abelian).

    The two-form pairs xi against eps and restricts to the linear form of
    the bracket on the xi's; the endomorphism is the symplectic projector
    onto span{xi_i, eps_i : i in h1_indices}.
    """
    _check_splitting(d, structure_constants, h1_indices)
    mus = [f"mu{i+1}" for i in range(d)]
    frame = [f"xi{i+1}" for i in range(d)] + [f"eps{i+1}" for i in range(d)]
    anchor = [[ZERO for _ in range(d)] for _ in range(2 * d)]
    for i in range(d):
        anchor[d + i][i] = ONE
    structure = {
        (i, j): {k: Expr.number(c) for k, c in row.items()}
        for (i, j), row in structure_constants.items()
    }
    A = LieAlgebroid.from_tables(mus, frame, anchor, structure)

    om = [[ZERO for _ in range(2 * d)] for _ in range(2 * d)]
    for (i, j), row in structure_constants.items():
        val = sum((Expr.number(c) * Expr.var(mus[k]) for k, c in row.items()), ZERO)
        om[i][j] = om[i][j] + val
        om[j][i] = om[j][i] - val
    for i in range(d):
        om[i][d + i] = om[i][d + i] + ONE
        om[d + i][i] = om[d + i][i] - ONE
    omega = two_form_from_matrix(A, om)

    from .poisson import invert_symplectic

    P = invert_symplectic(omega).exact()

    # symplectic projector onto F = span{xi_i, eps_i : i in h1}
    f_rows = [om[i] for i in h1_indices] + [om[d + i] for i in h1_indices]
    perp = linalg.symbolic_nullspace(f_rows)
    f_basis = []
    for i in h1_indices:
        v = [ZERO] * (2 * d)
        v[i] = ONE
        f_basis.append(v)
    for i in h1_indices:
        v = [ZERO] * (2 * d)
        v[d + i] = ONE
        f_basis.append(v)
    T = linalg.mat_transpose(f_basis + perp)
    inv = linalg.inverse_pair(T)
    k = len(f_basis)
    diag = [[ONE if (i == j and i < k) else ZERO for j in range(2 * d)] for i in range(2 * d)]
    nmat_num = linalg.mat_mul(linalg.mat_mul(T, diag), inv.num)
    nmat = linalg.Frac(Endo.from_matrix(A, nmat_num), inv.den).exact()
    kernel = [Section(A, tuple(v)) for v in perp]
    return SemidirectFixture(A, omega, P, nmat, list(h1_indices), kernel)


def _check_splitting(
    d: int,
    structure_constants: dict[tuple[int, int], dict[int, Fraction]],
    h1_indices: list[int],
) -> None:
    """The chosen span must be a subalgebra and its complement an ideal."""
    h1 = set(h1_indices)
    comp = set(range(d)) - h1

    def bracket_support(i: int, j: int) -> set[int]:
        if (i, j) in structure_constants:
            return {k for k, c in structure_constants[(i, j)].items() if c}
        if (j, i) in structure_constants:
            return {k for k, c in structure_constants[(j, i)].items() if c}
        return set()

    for i in sorted(h1):
        for j in sorted(h1):
            if i < j and not bracket_support(i, j) <= h1:
                raise ValueError(
                    f"span of indices {sorted(h1)} is not a subalgebra: "
                    f"[{i}, {j}] has components outside it"
                )
    for i in sorted(comp):
        for j in range(d):
            if i != j and not bracket_support(i, j) <= comp:
                raise ValueError(
                    f"complement span {sorted(comp)} is not an ideal: "
                    f"[{i}, {j}] has components outside it"
                )


def build_aff1() -> SemidirectFixture:
    """Default semidirect fixture: the two-dimensional nonabelian Lie
    algebra with the first basis vector spanning the complemented
    subalgebra."""
    return build_semidirect(2, {(0, 1): {1: Fraction(1)}}, [0])
