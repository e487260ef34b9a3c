"""Bivector calculus: Poisson condition, Koszul bracket, dual algebroid,
symplectic inversion and its round trips."""

import random

import pytest

from pnalgebroid.expr import Expr, parse, ZERO, ONE
from pnalgebroid.algebroid import LieAlgebroid, KForm, d_A
from pnalgebroid.poisson import (
    Bivector, is_poisson, are_compatible, koszul_bracket, dual_algebroid,
    induced_base_poisson, symplectic_check, invert_symplectic, invert_poisson,
    hamiltonian_section, DegenerateBivector, two_form_from_matrix, schouten_1r,
)
from pnalgebroid.fixtures import build_toda, build_aff1
from pnalgebroid.linalg import Frac


@pytest.fixture(scope="module")
def toda2():
    return build_toda(2)


def canonical_plane():
    A = LieAlgebroid.tangent(["x", "y"])
    return A, Bivector.from_entries(A, {(0, 1): ONE})


def random_one_form(A, rng):
    comps = {}
    for a in range(A.rank):
        c = Expr.number(rng.randint(-2, 2)) * Expr.var(rng.choice(list(A.base_vars)))
        if not c.is_zero():
            comps[(a,)] = c
    return KForm(A, 1, comps)


def test_canonical_plane_is_poisson():
    _, P = canonical_plane()
    assert is_poisson(P).ok


def test_quadratic_nonpoisson_is_rejected():
    A = LieAlgebroid.tangent(["x", "y", "z"])
    # P = x dy^dz + y dz^dx + x^2 dx^dy fails Jacobi
    P = Bivector.from_entries(
        A, {(1, 2): parse("x"), (2, 0): parse("y"), (0, 1): parse("x^2")}
    )
    rep = is_poisson(P)
    assert not rep.ok and rep.witness() is not None


def test_compatibility_is_sum_condition(toda2):
    rep = are_compatible(toda2.lam0, toda2.lam1)
    assert rep.ok
    # a pair that is Poisson each but not compatible
    A = LieAlgebroid.tangent(["x", "y", "z"])
    P0 = Bivector.from_entries(A, {(0, 1): ONE})
    P1 = Bivector.from_entries(A, {(0, 2): parse("x")})
    assert is_poisson(P0).ok and is_poisson(P1).ok
    assert not are_compatible(P0, P1).ok


def test_koszul_bracket_morphism_identity(toda2):
    # P#[a,b]_P = [P#a, P#b]
    rng = random.Random(2)
    P = toda2.lam1
    A = P.algebroid
    for _ in range(4):
        a, b = random_one_form(A, rng), random_one_form(A, rng)
        lhs = P.sharp(koszul_bracket(P, a, b))
        rhs = A.bracket(P.sharp(a), P.sharp(b))
        assert (lhs - rhs).is_zero()


def test_koszul_bracket_jacobi(toda2):
    rng = random.Random(4)
    P = toda2.lam0
    A = P.algebroid
    a, b, c = (random_one_form(A, rng) for _ in range(3))
    j = (
        koszul_bracket(P, a, koszul_bracket(P, b, c))
        + koszul_bracket(P, b, koszul_bracket(P, c, a))
        + koszul_bracket(P, c, koszul_bracket(P, a, b))
    )
    assert j.is_zero()


def test_dual_algebroid_passes_axioms(toda2):
    for P in (toda2.lam0, toda2.pi0):
        dual = dual_algebroid(P)
        rep = dual.check_algebroid()
        assert rep.ok, rep.witness()


def test_induced_base_poisson_of_invariant_pair(toda2):
    got0 = induced_base_poisson(toda2.pi0, toda2.flaschka)
    got1 = induced_base_poisson(toda2.pi1, toda2.flaschka)
    assert (got0 - toda2.lam0_bar).is_zero()
    assert (got1 - toda2.lam1_bar).is_zero()


def test_symplectic_inversion_roundtrip(toda2):
    frac_om = invert_poisson(toda2.pi0)
    frac_p = invert_symplectic(frac_om)
    # clearing denominators, we recover the original bivector
    back = frac_p.exact()
    assert (back - toda2.pi0).is_zero()


def test_invert_poisson_degenerate_witness(toda2):
    with pytest.raises(DegenerateBivector) as exc:
        invert_poisson(toda2.lam0_bar)
    assert exc.value.witness is not None
    # the witness spans ker P^T, with the sign the exact nullspace gives it
    assert str(exc.value) == (
        "bivector is degenerate; kernel covector witness: (-a1)*th_Db1 + (-a1)*th_Db2")
    assert [str(c) for c in exc.value.witness] == ["0", "-a1", "-a1"]


def test_symplectic_check_on_aff1():
    a = build_aff1()
    rep = symplectic_check(a.omega)
    assert rep.ok and rep.closed
    assert (rep.determinant - ONE).is_zero()
    # closedness failure is detected
    A = a.algebroid
    mat = [[e for e in row] for row in [list(r) for r in
           [[c for c in row] for row in _omega_mat(a)]]]
    mat[0][1] = mat[0][1] + parse("mu1*mu2")
    mat[1][0] = -mat[0][1]
    bad = two_form_from_matrix(A, mat)
    rep = symplectic_check(bad)
    assert not rep.closed


def _symplectic_fields(rep):
    return rep.ok, rep.closed, rep.determinant, rep.failures


def test_symplectic_check_of_frac_over_one_matches_plain_form():
    a = build_aff1()
    mat = _omega_mat(a)
    mat[0][1] = mat[0][1] + parse("mu1*mu2")
    mat[1][0] = -mat[0][1]
    not_closed = two_form_from_matrix(a.algebroid, mat)
    degenerate = KForm(a.algebroid, 2, {})
    for omega in (a.omega, not_closed, degenerate):
        assert _symplectic_fields(symplectic_check(Frac(omega, ONE))) == (
            _symplectic_fields(symplectic_check(omega))
        )
    assert symplectic_check(Frac(degenerate, parse("mu1"))).failures == [
        ("two-form is degenerate (zero determinant)", ZERO)
    ]


def test_invert_symplectic_of_frac_scales_by_denominator():
    A = LieAlgebroid.tangent(["x", "y", "u", "v"])
    canonical_twisted = KForm(
        A, 2, {(0, 2): ONE, (1, 3): ONE, (0, 1): parse("x*u")}
    )
    for omega, c in ((build_aff1().omega, parse("mu1 + 2")),
                     (canonical_twisted, parse("x*y + 1"))):
        want = invert_symplectic(omega).exact().map(lambda e: c * e)
        assert invert_symplectic(Frac(omega, c)).exact() == want


def _omega_mat(a):
    from pnalgebroid.poisson import two_form_matrix

    return two_form_matrix(a.omega)


def test_hamiltonian_section_conserves_energy(toda2):
    X = hamiltonian_section(toda2.lam0, toda2.H1)
    A = toda2.tangent
    # the flow of H1 under lam0 preserves both Hamiltonians
    assert A.anchor_apply(X, toda2.H1).is_zero()
    assert A.anchor_apply(X, toda2.H0).is_zero()


def test_sharp_and_flat_are_mutually_inverse():
    A, P = canonical_plane()
    om = invert_poisson(P).exact()
    from pnalgebroid.poisson import flat

    rng = random.Random(9)
    for _ in range(3):
        alpha = random_one_form(A, rng)
        # flat(sharp(alpha)) = -alpha under the fixed global convention
        back = flat(om, P.sharp(alpha))
        assert (back + alpha).is_zero()


# -- the frame formula for [P, P] against the sharp-map route --------------


def sharp_map_residuals(P):
    """[P, P] through the sharp-map identity: for every dual covector theta^a,
    B_a = [P# theta^a, P] - d theta^a (P# ., P# .).  Returns the nonzero
    B_a^{bc}, b < c, keyed by (a, b, c) in the order a, then (b, c)."""
    A = P.algebroid
    r = A.rank
    sharps = [P.sharp(A.dual_frame_form(a)) for a in range(r)]
    out = {}
    for a in range(r):
        B = schouten_1r(sharps[a], P)
        dtheta = d_A(A, A.dual_frame_form(a))
        for b in range(r):
            for c in range(b + 1, r):
                e = B.mat[b][c] - dtheta(sharps[b], sharps[c])
                if not e.is_zero():
                    out[(a, b, c)] = e
    return out


def failure_message(A, a, b, c):
    return (
        f"Poisson condition fails against dual covector {A.frame[a]} "
        f"on pair ({A.frame[b]}, {A.frame[c]})"
    )


def random_polynomial(variables, rng):
    e = ZERO
    for _ in range(rng.randint(1, 3)):
        t = Expr.number(rng.choice([-3, -2, -1, 1, 2, 3]))
        for _ in range(rng.randint(0, 2)):
            t = t * Expr.var(rng.choice(variables))
        e = e + t
    return e


def random_bivector(A, rng, density=0.5):
    variables = list(A.base_vars)
    entries = {}
    for a in range(A.rank):
        for b in range(a + 1, A.rank):
            if rng.random() < density:
                entries[(a, b)] = random_polynomial(variables, rng)
    return Bivector.from_entries(A, entries)


def _algebroids():
    t2, t3 = build_toda(2), build_toda(3)
    return {
        "tangent-R3": LieAlgebroid.tangent(["x", "y", "z"]),
        "toda3": t3.tangent,
        "toda2-atiyah": t2.atiyah,
        "toda3-atiyah": t3.atiyah,
        "toda2-flaschka": t2.flaschka,
        "aff1": build_aff1().algebroid,
        # anchor and structure both nontrivial: [e1, e2] = u e3
        "nonabelian": LieAlgebroid.from_tables(
            ["u", "v"], ["e1", "e2", "e3"], [[ONE, ZERO], [ZERO, ONE], [ZERO, ZERO]],
            {(0, 1): {2: parse("u")}},
        ),
    }


ALGEBROIDS = _algebroids()


@pytest.mark.parametrize("name", sorted(ALGEBROIDS))
def test_is_poisson_matches_sharp_map_route(name):
    A = ALGEBROIDS[name]
    rng = random.Random(f"is_poisson/{name}")
    draws = 3 if A.rank > 4 else 6
    failing = 0
    for _ in range(draws):
        P = random_bivector(A, rng, density=0.4 if A.rank > 4 else 0.9)
        ref = sharp_map_residuals(P)
        rep = is_poisson(P)
        assert rep.ok == (not ref)
        if ref:
            (a, b, c), e = next(iter(ref.items()))
            assert rep.witness() == f"{failure_message(A, a, b, c)}: residual {e}"
        # one failure per sorted triple, equal to the reference's entry there
        sorted_ref = [
            (failure_message(A, *k), e) for k, e in ref.items() if k[0] < k[1]
        ]
        assert rep.failures == sorted_ref
        # B_a^{bc} is totally antisymmetric, so the other entries add nothing
        for (a, b, c), e in ref.items():
            if a < b:
                continue
            assert a != b and a != c
            # (a, b, c) is a cyclic shift of its sorted triple when a > c, and
            # one transposition away from it when b < a < c
            sorted_e = ref.get(tuple(sorted((a, b, c))), ZERO)
            assert (sorted_e - (e if a > c else -e)).is_zero()
        failing += bool(ref)
    assert failing


def test_is_poisson_passes_the_fixture_pairs():
    t = build_toda(3)
    for P in (t.lam0, t.lam1, t.lam0_bar, t.lam1_bar, t.pi0, t.pi1, t.lam0 + t.lam1):
        assert not sharp_map_residuals(P)
        assert is_poisson(P).ok


def test_is_poisson_residuals_against_sympy():
    sympy = pytest.importorskip("sympy")
    A = LieAlgebroid.tangent(["x", "y", "z"])
    xs = sympy.symbols("x y z")
    rng = random.Random(31)

    def to_sympy(e):
        return sympy.sympify(str(e).replace("^", "**"))

    seen = 0
    for _ in range(12):
        P = random_bivector(A, rng, density=0.9)
        pi = [[to_sympy(P.mat[i][j]) for j in range(3)] for i in range(3)]
        expected = {}
        i, j, k = 0, 1, 2
        jac = sum(
            pi[x][l] * sympy.diff(pi[y][z], xs[l])
            for x, y, z in ((i, j, k), (j, k, i), (k, i, j))
            for l in range(3)
        )
        jac = sympy.expand(jac)
        if jac != 0:
            expected[failure_message(A, i, j, k)] = jac
        rep = is_poisson(P)
        got = {msg: to_sympy(e) for msg, e in rep.failures}
        assert got.keys() == expected.keys()
        for msg, e in got.items():
            assert sympy.expand(e - expected[msg]) == 0
        seen += bool(expected)
    assert seen  # the draws include non-Poisson bivectors


def test_pinned_witnesses_on_R3():
    A = LieAlgebroid.tangent(["x", "y", "z"])
    P0 = Bivector.from_entries(A, {(0, 1): ONE})
    P1 = Bivector.from_entries(A, {(0, 2): parse("x")})
    assert are_compatible(P0, P1).witness() == (
        "sum bivector: Poisson condition fails against dual covector Dx "
        "on pair (Dy, Dz): residual 1"
    )
    P = Bivector.from_entries(
        A, {(1, 2): parse("x"), (2, 0): parse("y"), (0, 1): parse("x^2")}
    )
    assert is_poisson(P).witness() == (
        "Poisson condition fails against dual covector Dx "
        "on pair (Dy, Dz): residual 2*x*y"
    )


# -- the frame formula for the dual algebroid against the Koszul bracket ---


@pytest.mark.parametrize("name", sorted(ALGEBROIDS))
def test_dual_algebroid_structure_matches_koszul_bracket(name):
    A = ALGEBROIDS[name]
    rng = random.Random(f"dual_algebroid/{name}")
    theta = [A.dual_frame_form(a) for a in range(A.rank)]
    for _ in range(2 if A.rank > 4 else 4):
        P = random_bivector(A, rng, density=0.5 if A.rank > 4 else 0.9)
        D = dual_algebroid(P)
        assert D.frame == A.frame and D.base_vars == A.base_vars
        for a in range(A.rank):
            X = P.sharp(theta[a])
            for i, v in enumerate(A.base_vars):
                assert (D.anchor[a][i] - A.anchor_apply(X, Expr.var(v))).is_zero()
            for b in range(A.rank):
                kb = koszul_bracket(P, theta[a], theta[b])
                for g in range(A.rank):
                    assert (D.structure[a][b][g] - kb.entry((g,))).is_zero(), (a, b, g)


def test_dual_algebroid_makes_no_koszul_bracket_call(monkeypatch):
    from pnalgebroid import poisson

    calls = []
    monkeypatch.setattr(poisson, "koszul_bracket", lambda *a: calls.append(a))
    D = dual_algebroid(build_toda(3).lam1)
    assert not calls
    assert D.check_algebroid().ok


def test_dual_algebroid_keeps_frame_names_apart_from_base_variables():
    # a base variable named like the old "th_" dual frame names
    A = LieAlgebroid.from_tables(["th_e1", "y"], ["e1", "e2"], [[ONE, ZERO], [ZERO, ONE]])
    P = Bivector.from_entries(A, {(0, 1): parse("th_e1")})
    D = dual_algebroid(P)
    assert D.frame == ("e1", "e2")
    assert D.check_algebroid().ok


def test_symplectic_check_witness_names_the_first_failure():
    A = LieAlgebroid.tangent(["x", "y", "z", "w"])

    def form(entry):
        m = [[ZERO] * 4 for _ in range(4)]
        m[0][1], m[1][0] = parse(entry), -parse(entry)
        return two_form_from_matrix(A, m)

    rep = symplectic_check(form("z"))  # z dx^dy: d(z dx^dy) = dz^dx^dy
    assert not rep.ok and not rep.closed
    assert rep.witness() == "two-form not closed at frame triple (0, 1, 2): 1"
    rep = symplectic_check(form("1"))  # closed, of rank 2 on a rank-4 bundle
    assert not rep.ok and rep.closed
    assert rep.witness() == "two-form is degenerate (zero determinant): 0"
