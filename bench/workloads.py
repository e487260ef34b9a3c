"""The benchmark workloads: seeded inputs, the operations of one pass, and the
outcome each operation must have.

The expected outcomes are written by hand from the mathematics of the
fixtures, never computed by the code under test:

- every Toda check passes: the pair is Poisson-Nijenhuis in canonical
  coordinates and symplectic-Nijenhuis in the invariant (Atiyah) frame, and
  the Toda recursion operator N is invertible, so its Riesz index is 0;
- on `aff1`, N is a projector with a 2-dimensional kernel, so its Riesz index
  is 1, and its torsion and concomitant with P do not vanish, so
  `check-sn aff1` fails with exit 1;
- Toda's N does not descend to Flaschka coordinates, so `project` exits 1;
- the library calls are checked through identities:
  det(N∘N) = det(N)² and adj(N)·N = det(N)·I.

The seed draws the sample points and rescales every bivector of every spec
file by a small nonzero rational c.  Each verdict above holds under that
rescaling: [cP, cP] = c²[P, P], torsion does not involve P, and the
concomitant and the sharp-compatibility are linear in P.
"""

from __future__ import annotations

import io
import json
import os
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import pnalgebroid.cli as cli
from pnalgebroid import expr, fixtures, linalg, reduction, specio
from pnalgebroid.expr import Expr
from pnalgebroid.poisson import Bivector

PASS, FAIL = "pass", "fail"

# Sampling box of aff1's base, as the CLI uses it (away from singular loci).
AFF1_BOX = (-2.0, 2.0)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes.  FULL is the benchmark; SMALL is the self-check."""

    pn: tuple[int, ...]        # check-pn on toda:n
    atiyah: int                # check-poisson, check-algebroid on toda:n:atiyah
    sn: tuple[int, ...]        # check-sn on toda:n:atiyah
    hierarchy: tuple[int, int]  # hierarchy on toda:n, depth
    canonical: int             # recursion, project, inverse_pair, riesz, reduce-fiberwise
    library: int               # symbolic_riesz_index, kernel_subalgebroid_check, det(N∘N)
    points: int                # sample points per riesz / reduce-fiberwise call
    fb_points: int             # sample points for condition_fb_check


FULL = Sizes(pn=(4, 5), atiyah=5, sn=(2, 3), hierarchy=(3, 3), canonical=5,
             library=4, points=1500, fb_points=300)
SMALL = Sizes(pn=(2, 3), atiyah=3, sn=(2, 3), hierarchy=(2, 2), canonical=3,
              library=2, points=40, fb_points=10)


@dataclass
class Op:
    """One operation: `run` does the work; `check` lists every way its outcome
    differs from the expectation (empty when it is as expected)."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    points: int = 0


@dataclass
class Inputs:
    """What set-up leaves for the timed passes."""

    workdir: str
    specs: dict[str, str] = field(default_factory=dict)       # fixture name -> path
    scales: dict[str, dict[str, Fraction]] = field(default_factory=dict)
    cli_seed: int = 0
    aff1: object = None
    fb_points: list[dict[str, float]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# set-up: seeded spec files

def _fixture_argv(name: str) -> list[str]:
    if name == "aff1":
        return ["fixture", "aff1"]
    parts = name.split(":")
    argv = ["fixture", "toda", "--n", parts[1]]
    return argv + (["--block", parts[2]] if len(parts) > 2 else [])


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _small_rational(rng: random.Random) -> Fraction:
    return rng.choice((-1, 1)) * Fraction(rng.randint(1, 3), rng.randint(1, 3))


def write_spec(inputs: Inputs, name: str, rng: random.Random) -> None:
    """Write the spec file `pnalgebroid fixture` prints for `name`, with each
    bivector rescaled by a seeded small rational."""
    code, text = _run_cli(_fixture_argv(name))
    if code != 0:
        raise RuntimeError(f"fixture {name} exited {code}")
    doc = specio.parse_document(text)
    scales = {}
    for bname in sorted(doc.bivectors):
        c = _small_rational(rng)
        P = doc.bivectors[bname]
        k = Expr.number(c)
        doc.bivectors[bname] = Bivector(
            P.algebroid, tuple(tuple(x * k for x in row) for row in P.mat))
        scales[bname] = c
    path = os.path.join(inputs.workdir, name.replace(":", "_") + ".json")
    with open(path, "w") as fh:
        fh.write(specio.serialize_document(doc))
    inputs.specs[name] = path
    inputs.scales[name] = scales


def prepare(workload: str, sizes: Sizes, seed: int, workdir: str) -> tuple[Inputs, list[Op]]:
    """Set-up for one workload: write its seeded spec files into `workdir`,
    draw its sample points, and return the operations of one pass."""
    rng = random.Random(seed)
    inputs = Inputs(workdir=workdir, cli_seed=rng.randrange(1, 2**31))
    spec_names, build_ops = WORKLOADS[workload]
    for name in spec_names(sizes):
        write_spec(inputs, name, rng)
    if workload == "numeric-sample":
        inputs.aff1 = fixtures.build_aff1()
        variables = list(inputs.aff1.algebroid.base_vars)
        inputs.fb_points = [{v: rng.uniform(*AFF1_BOX) for v in variables}
                            for _ in range(sizes.fb_points)]
    return inputs, build_ops(sizes, inputs)


# ---------------------------------------------------------------------------
# checking outcomes

def cli_op(label: str, argv: list[str], exit_code: int, checks: list[tuple[str, str]],
           result: dict | None = None, extra: Callable[[dict], list[str]] | None = None,
           points: int = 0) -> Op:
    """A CLI call in-process with `--format json`, expected to exit with
    `exit_code`, to report exactly `checks` (name, verdict) and to carry
    `result` as a subset of its result block."""
    expected = dict(checks)
    result = result or {}

    def run():
        return _run_cli(argv + ["--format", "json"])

    def check(outcome) -> list[str]:
        code, text = outcome
        problems = [] if code == exit_code else [f"exit {code}, expected {exit_code}"]
        report = json.loads(text)
        got = {_same_endo(c["name"]): c["verdict"] for c in report["checks"]}
        if got != expected:
            problems.append(f"checks {got}, expected {expected}")
        for key, want in result.items():
            if report.get("result", {}).get(key) != want:
                problems.append(f"{key} = {report.get('result', {}).get(key)!r}, expected {want!r}")
        if extra is not None:
            problems += extra(report)
        return problems

    return Op(label, run, check, points)


def _same_endo(check_name: str) -> str:
    # An atiyah spec holds N only where the CLI's fixture could divide it out
    # exactly; otherwise check-sn derives it from the pair under this name.
    return check_name.replace("recursion(pi0,pi1)", "N")


def identity_op(label: str, compute: Callable[[], bool]) -> Op:
    """A library computation whose verdict is an identity that must hold."""
    return Op(label, compute, lambda held: [] if held is True else [f"identity {held!r}"])


def _spec_endo(inputs: Inputs, name: str):
    return specio.load_document(inputs.specs[name]).endomorphisms["N"]


def _matrix(endo) -> list[list[Expr]]:
    return [list(row) for row in endo.mat]


# ---------------------------------------------------------------------------
# toda-verdict: many small Expr operations through the Cartan calculus

PN_CHECKS = [("poisson({P})", PASS), ("torsion(N)", PASS),
             ("sharp-compatibility({P},N)", PASS), ("concomitant({P},N)", PASS)]

SELFTEST_CHECKS = [
    "toda2 poisson(lam0)", "toda2 poisson(lam1)", "toda2 poisson(pi0)",
    "toda2 poisson(pi1)", "toda2 compatible(lam0,lam1)",
    "toda2 recursion(lam0,lam1) = N", "toda2 pn(lam0,N)",
    "toda2 project(lam0) = lam0_bar", "toda2 sn(pi0,N_A)",
    "aff1 two-form symplectic", "aff1 projector idempotent",
    "aff1 stable-kernel index 1 at 25 points",
    "aff1 fiberwise reduction nondegenerate",
]


def _pn_checks(P: str, sn: bool) -> list[tuple[str, str]]:
    checks = [(name.format(P=P), v) for name, v in PN_CHECKS]
    return checks + ([(f"nondegenerate({P})", PASS)] if sn else [])


def toda_verdict_specs(s: Sizes) -> list[str]:
    return ([f"toda:{n}" for n in s.pn] + [f"toda:{s.atiyah}:atiyah"]
            + [f"toda:{n}:atiyah" for n in s.sn] + ["aff1"])


def toda_verdict_ops(s: Sizes, inputs: Inputs) -> list[Op]:
    spec = inputs.specs
    ops = [cli_op(f"check-pn toda:{n}", ["check-pn", spec[f"toda:{n}"]], 0,
                  _pn_checks("lam0", sn=False)) for n in s.pn]
    atiyah = f"toda:{s.atiyah}:atiyah"
    ops.append(cli_op(f"check-poisson {atiyah}", ["check-poisson", spec[atiyah]], 0,
                      [("poisson(pi0)", PASS), ("poisson(pi1)", PASS),
                       ("compatible(pi0,pi1)", PASS)]))
    ops.append(cli_op(f"check-algebroid {atiyah}", ["check-algebroid", spec[atiyah]], 0,
                      [("algebroid axioms", PASS)]))
    ops += [cli_op(f"check-sn toda:{n}:atiyah", ["check-sn", spec[f"toda:{n}:atiyah"]], 0,
                   _pn_checks("pi0", sn=True)) for n in s.sn]
    ops.append(cli_op("check-sn aff1", ["check-sn", spec["aff1"]], 1,
                      [("poisson(P)", PASS), ("torsion(N)", FAIL),
                       ("sharp-compatibility(P,N)", PASS), ("concomitant(P,N)", FAIL),
                       ("nondegenerate(P)", PASS)]))
    ops.append(cli_op("selftest", ["selftest"], 0,
                      [(name, PASS) for name in SELFTEST_CHECKS]))
    return ops


# ---------------------------------------------------------------------------
# big-operand: few operations on large expressions

def big_operand_specs(s: Sizes) -> list[str]:
    return list(dict.fromkeys([f"toda:{s.hierarchy[0]}", f"toda:{s.canonical}",
                               f"toda:{s.library}"]))


def _recursion_identity(inputs: Inputs, name: str) -> Callable[[dict], list[str]]:
    """The printed recursion operator of the rescaled pair (c0 lam0, c1 lam1)
    is (c1/c0) N: numerator = (c1/c0) · denominator · N entrywise."""
    scales = inputs.scales[name]
    k = Expr.number(scales["lam1"] / scales["lam0"])
    N = _spec_endo(inputs, name)

    def check(report: dict) -> list[str]:
        res = report["result"]
        den = expr.parse(res["denominator"])
        for a, row in enumerate(res["numerator"]):
            for b, entry in enumerate(row):
                if not (expr.parse(entry) - k * den * N.mat[a][b]).is_zero():
                    return [f"numerator[{a}][{b}] is not (c1/c0)·den·N"]
        return []

    return check


def _det_square_identity(inputs: Inputs, name: str) -> Callable[[], bool]:
    def compute() -> bool:
        M = _matrix(_spec_endo(inputs, name))
        d = linalg.det(M)
        return (linalg.det(linalg.mat_mul(M, M)) - d * d).is_zero()

    return compute


def _adjugate_identity(inputs: Inputs, name: str) -> Callable[[], bool]:
    def compute() -> bool:
        M = _matrix(_spec_endo(inputs, name))
        inv = linalg.inverse_pair(M)
        prod = linalg.mat_mul(inv.num, M)
        return all((prod[i][j] - (inv.den if i == j else Expr())).is_zero()
                   for i in range(len(M)) for j in range(len(M)))

    return compute


def big_operand_ops(s: Sizes, inputs: Inputs) -> list[Op]:
    spec = inputs.specs
    n, depth = s.hierarchy
    levels = [(f"poisson(N^{l} lam0)", PASS) for l in range(depth + 1)]
    pairs = [(f"compatible(levels {l},{m})", PASS)
             for l in range(depth + 1) for m in range(l + 1, depth + 1)]
    canonical, library = f"toda:{s.canonical}", f"toda:{s.library}"
    return [
        cli_op(f"hierarchy toda:{n} --depth {depth}",
               ["hierarchy", spec[f"toda:{n}"], "--depth", str(depth)], 0, levels + pairs),
        cli_op(f"recursion {canonical}", ["recursion", spec[canonical]], 0,
               [("recursion(lam0,lam1)", PASS)],
               extra=_recursion_identity(inputs, canonical)),
        cli_op(f"project {canonical}", ["project", spec[canonical]], 1,
               [("epimorphism(flaschka) well-formed", PASS),
                ("projectable bivector(lam0)", PASS), ("projectable bivector(lam1)", PASS),
                ("projectable endomorphism(N)", FAIL)]),
        Op(f"symbolic_riesz_index {library}",
           lambda: reduction.symbolic_riesz_index(_spec_endo(inputs, library)),
           lambda k: [] if k == 0 else [f"index {k}, expected 0"]),
        Op(f"kernel_subalgebroid_check {library}",
           lambda: reduction.kernel_subalgebroid_check(_spec_endo(inputs, library)),
           lambda rep: [] if rep.ok and rep.index == 0
           else [f"ok={rep.ok} index={rep.index}, expected ok index 0"]),
        identity_op(f"det(N∘N) = det(N)^2 {library}", _det_square_identity(inputs, library)),
        identity_op(f"adj(N)·N = det(N)·I {canonical}", _adjugate_identity(inputs, canonical)),
    ]


# ---------------------------------------------------------------------------
# numeric-sample: evaluation and SVD at seeded points, little exact algebra

def numeric_sample_specs(s: Sizes) -> list[str]:
    return [f"toda:{s.canonical}", "aff1"]


def _fb_check(inputs: Inputs) -> Op:
    a = inputs.aff1

    def run():
        return reduction.condition_fb_check(a.algebroid, a.kernel_basis,
                                            inputs.fb_points, inputs.cli_seed)

    def check(reports) -> list[str]:
        bad = [r for r in reports
               if not r.consistent or r.ill_conditioned or r.rank_subbundle != 2]
        if len(reports) != len(inputs.fb_points):
            return [f"{len(reports)} reports for {len(inputs.fb_points)} points"]
        return [f"{len(bad)} points inconsistent, ill-conditioned or of rank != 2"] if bad else []

    return Op("condition_fb_check aff1.kernel_basis", run, check, len(inputs.fb_points))


def numeric_sample_ops(s: Sizes, inputs: Inputs) -> list[Op]:
    spec, p, seed = inputs.specs, s.points, str(inputs.cli_seed)
    canonical = f"toda:{s.canonical}"
    sample = ["--points", str(p), "--seed", seed]
    return [
        cli_op(f"riesz {canonical}", ["riesz", spec[canonical]] + sample, 0,
               [(f"riesz(N) stable-kernel splitting at {p} points", PASS)],
               {"indices": [0], "kernel_dimensions": [0]}, points=p),
        cli_op("riesz aff1", ["riesz", spec["aff1"]] + sample, 0,
               [(f"riesz(N) stable-kernel splitting at {p} points", PASS)],
               {"indices": [1], "kernel_dimensions": [2]}, points=p),
        cli_op(f"reduce-fiberwise {canonical}",
               ["reduce-fiberwise", spec[canonical], "--bivector", "lam0"] + sample, 0,
               [(f"reduced bivector(lam0) nondegenerate at {p} points", PASS),
                (f"reduced endomorphism(N) invertible at {p} points", PASS)],
               {"quotient_dimensions": [2 * s.canonical]}, points=p),
        cli_op("reduce-fiberwise aff1", ["reduce-fiberwise", spec["aff1"]] + sample, 0,
               [(f"reduced bivector(P) nondegenerate at {p} points", PASS),
                (f"reduced endomorphism(N) invertible at {p} points", PASS)],
               {"quotient_dimensions": [2]}, points=p),
        _fb_check(inputs),
    ]


WORKLOADS = {
    "toda-verdict": (toda_verdict_specs, toda_verdict_ops),
    "big-operand": (big_operand_specs, big_operand_ops),
    "numeric-sample": (numeric_sample_specs, numeric_sample_ops),
}


# ---------------------------------------------------------------------------
# running a pass

# Crashes the program has today (ROADMAP 4a), by operation label and
# exception type.  check-sn on toda:n:atiyah, n >= 3, raises because the
# recursion operator there is rational and the CLI divides it out exactly
# without a guard.  A listed crash is a failed operation; any other
# exception makes the run incorrect.
KNOWN_CRASHES = {"check-sn toda:3:atiyah": "ExprError"}


@dataclass
class Outcome:
    label: str
    status: str        # "ok", "wrong" (verdict differs), "known-crash" or "raised"
    detail: str
    seconds: float     # the operation alone, without checking its outcome


def execute(op: Op, tracer=None) -> tuple[object, Exception | None, float]:
    """Run `op`, inside a span of its own when `tracer` is given: its value or
    the exception it raised, and its seconds."""
    t0 = time.perf_counter()
    try:
        value = op.run() if tracer is None else tracer.call(f"op {op.label}", op.run)
    except Exception as e:  # a crash is a failed operation, not a harness error
        return None, e, time.perf_counter() - t0
    return value, None, time.perf_counter() - t0


def judge(op: Op, value: object, error: Exception | None, seconds: float) -> Outcome:
    """Compare what `execute` returned with the expectation of `op`."""
    if error is not None:
        kind = type(error).__name__
        status = "known-crash" if KNOWN_CRASHES.get(op.label) == kind else "raised"
        return Outcome(op.label, status, f"{kind}: {error}", seconds)
    try:
        problems = op.check(value)
    except Exception as e:  # malformed output is a wrong outcome
        problems = [f"{type(e).__name__} while checking: {e}"]
    return Outcome(op.label, "wrong" if problems else "ok", "; ".join(problems), seconds)


def run_op(op: Op) -> Outcome:
    return judge(op, *execute(op))
