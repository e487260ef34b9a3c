"""Command-line surface: load spec files or built-in fixtures, run verdict
suites, emit text or JSON reports.

Exit codes: 0 all verdicts pass, 1 a hypothesis fails (witness in the
report), 2 parse/usage error, 3 a numeric check was ill-conditioned.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from . import __version__ as VERSION, linalg
from .expr import ExprError
from .algebroid import CheckReport, timed_check
from .poisson import (
    is_poisson, are_compatible, poisson_pair, symplectic_check, DegenerateBivector, Bivector,
)
from .nijenhuis import pn_check, recursion_operator, hierarchy_check, Endo
from .reduction import (
    LeafSpec, restrict_to_leaf, projectable_bivector_check, project_bivector,
    NotBasic, _endo_check, _project_endo,
)
from .pointwise import (
    TOL_ENV_VAR, default_tolerance, riesz_report, fiberwise_reduce, sample_points,
    _riesz_blocks, _fiberwise_blocks,
)
from .specio import SpecDocument, SpecFileError, load_document, serialize_document
from .fixtures import build_toda, build_aff1

# sampling boxes keeping fixture points away from singular loci
DEFAULT_BOXES = {"a": (0.5, 2.0), "mu": (-2.0, 2.0)}


def _box_for(variables: list[str]) -> dict[str, tuple[float, float]]:
    box = {}
    for v in variables:
        for prefix, rng in DEFAULT_BOXES.items():
            if v.startswith(prefix):
                box[v] = rng
                break
    return box


@dataclass
class Check:
    name: str
    ok: bool
    witness: Optional[str] = None
    ill_conditioned: bool = False
    seconds: float = 0.0
    numeric: bool = False
    margin: Optional[float] = None


@dataclass
class Report:
    command: str
    inputs_digest: str
    tolerance: float
    seed: Optional[int] = None
    checks: list[Check] = field(default_factory=list)
    payload: dict = field(default_factory=dict)
    version: str = VERSION

    def add(self, name: str, ok: bool, witness: Optional[str] = None,
            ill: bool = False, seconds: float = 0.0) -> None:
        self.checks.append(Check(name, bool(ok), witness, bool(ill), seconds))

    def add_numeric(self, name: str, fold: "_RankFold", ill: bool, seconds: float) -> None:
        """A check decided by numeric ranks: its JSON also carries ``margin``."""
        self.checks.append(Check(name, fold.ok, fold.witness, bool(ill), seconds, True,
                                 fold.margin))

    def add_report(self, name: str, rep: CheckReport) -> None:
        self.add(name, rep.ok, rep.witness(), seconds=rep.seconds)

    @property
    def exit_code(self) -> int:
        if any(not c.ok for c in self.checks):
            return 1
        if any(c.ill_conditioned for c in self.checks):
            return 3
        return 0

    def emit(self, fmt: str, out=None) -> None:
        out = out if out is not None else sys.stdout
        if fmt == "json":
            obj = {
                "command": self.command,
                "inputs": self.inputs_digest,
                "version": self.version,
                "tolerance": self.tolerance,
                "seed": self.seed,
                "checks": [
                    {
                        "name": c.name,
                        "verdict": "pass" if c.ok else "fail",
                        "witness": c.witness,
                        "ill_conditioned": c.ill_conditioned,
                        "seconds": round(c.seconds, 6),
                        **({"margin": c.margin} if c.numeric else {}),
                    }
                    for c in self.checks
                ],
                **({"result": self.payload} if self.payload else {}),
            }
            json.dump(obj, out, indent=2)
            out.write("\n")
            return
        for c in self.checks:
            line = f"{'PASS' if c.ok else 'FAIL'}  {c.name}"
            if c.witness:
                line += f"  -- {c.witness}"
            if c.ill_conditioned:
                line += "  [ill-conditioned]"
            out.write(line + "\n")
        for key, val in self.payload.items():
            out.write(f"{key}: {val}\n")


class UsageError(Exception):
    pass


def _toda_document(n: int, block: str, epi: str) -> SpecDocument:
    t = build_toda(n)
    if block == "canonical":
        doc = SpecDocument(
            t.tangent,
            bivectors={"lam0": t.lam0, "lam1": t.lam1},
            endomorphisms={"N": t.N},
        )
        doc.epimorphism = t.epi_flaschka if epi == "flaschka" else t.epi_atiyah
    elif block == "flaschka":
        doc = SpecDocument(
            t.flaschka, bivectors={"lam0": t.lam0_bar, "lam1": t.lam1_bar}
        )
    elif block == "atiyah":
        doc = SpecDocument(t.atiyah, bivectors={"pi0": t.pi0, "pi1": t.pi1})
        try:
            doc.endomorphisms["N"] = t.recursion_atiyah().exact()
        except ExprError:
            pass  # the recursion operator is genuinely rational for n >= 3
    else:
        raise UsageError(f"unknown toda block {block!r}")
    return doc


def resolve_input(spec: str) -> tuple[SpecDocument, str]:
    """A positional input is a builtin fixture name (aff1, toda:<n>[:block])
    or a spec-file path.  Returns the document and a digest of the input."""
    if spec == "aff1":
        a = build_aff1()
        doc = SpecDocument(
            a.algebroid, bivectors={"P": a.P}, endomorphisms={"N": a.N}
        )
        return doc, "fixture:aff1"
    if spec.startswith("toda:"):
        parts = spec.split(":")
        try:
            n = int(parts[1])
        except (IndexError, ValueError):
            raise UsageError(f"bad fixture name {spec!r} (expected toda:<n>[:block])")
        block = parts[2] if len(parts) > 2 else "canonical"
        return _toda_document(n, block, "flaschka"), f"fixture:{spec}"
    doc = load_document(spec)
    with open(spec, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()[:16]
    return doc, f"sha256:{digest}"


def _pick_bivector(doc: SpecDocument, name: Optional[str]) -> tuple[str, Bivector]:
    if name is not None:
        if name not in doc.bivectors:
            raise UsageError(f"no bivector named {name!r} in the input")
        return name, doc.bivectors[name]
    if len(doc.bivectors) == 1:
        return next(iter(doc.bivectors.items()))
    raise UsageError(
        "input has several bivectors; pick one with --bivector "
        f"(available: {', '.join(sorted(doc.bivectors)) or 'none'})"
    )


def _pick_pair(doc: SpecDocument, names: Optional[list[str]]):
    if names:
        if len(names) != 2:
            raise UsageError("--bivectors takes exactly two names")
        for n in names:
            if n not in doc.bivectors:
                raise UsageError(f"no bivector named {n!r} in the input")
        return names[0], doc.bivectors[names[0]], names[1], doc.bivectors[names[1]]
    if len(doc.bivectors) == 2:
        (n0, p0), (n1, p1) = sorted(doc.bivectors.items())
        return n0, p0, n1, p1
    raise UsageError("pick two bivectors with --bivectors P0 P1")


def _pick_endo(doc: SpecDocument, name: Optional[str]) -> tuple[str, Endo]:
    if name is not None:
        if name not in doc.endomorphisms:
            raise UsageError(f"no endomorphism named {name!r} in the input")
        return name, doc.endomorphisms[name]
    if len(doc.endomorphisms) == 1:
        return next(iter(doc.endomorphisms.items()))
    if not doc.endomorphisms and len(doc.bivectors) == 2:
        n0, p0, n1, p1 = _pick_pair(doc, None)
        frac = recursion_operator(p0, p1)
        return f"recursion({n0},{n1})", frac.exact()
    raise UsageError(
        "input has no unique endomorphism; pick one with --endo "
        f"(available: {', '.join(sorted(doc.endomorphisms)) or 'none'})"
    )


def _timed(report: Report, name: str, fn) -> bool:
    """Run a check thunk giving (ok, witness, ill), or (fold, ill) for a
    numeric check, and add its row with its time."""
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    if isinstance(result[0], _RankFold):
        report.add_numeric(name, *result, seconds)
        return result[0].ok
    ok, witness, ill = result
    report.add(name, ok, witness, ill, seconds)
    return ok


class _RankFold:
    """A numeric check folded over its per-point rank tests as they come:
    the verdict, the first failing point as the witness, and the margin."""

    def __init__(self, what: str):
        self.what, self.ok, self.witness, self.ratio = what, True, None, math.inf

    def add(self, ok: bool, values: dict, sigma: float, cutoff: float) -> None:
        """One point; ``sigma`` and ``cutoff`` of the rank test that decided
        it, NaN when none did."""
        if not math.isnan(sigma):
            self.ratio = min(self.ratio, sigma / cutoff)
        if self.ok and not ok:
            self.ok = False
            self.witness = f"{self.what} at {values}: sigma_min {sigma:.6g}, cutoff {cutoff:.6g}"

    @property
    def margin(self) -> Optional[float]:
        """The smallest sigma_min / cutoff over the deciding rank tests, to 6
        significant digits: above 1 every test passed with that factor to
        spare, below 1 one failed.  None when no rank test decided."""
        return None if self.ratio == math.inf else float(f"{self.ratio:.6g}")


# ---------------------------------------------------------------------------
# commands

def cmd_check_algebroid(args, report: Report, doc: SpecDocument) -> None:
    report.add_report("algebroid axioms", timed_check(doc.algebroid.check_algebroid))


def cmd_check_poisson(args, report: Report, doc: SpecDocument) -> None:
    names = args.bivector or sorted(doc.bivectors)
    if not names:
        raise UsageError("input has no bivectors")
    for name in names:
        if name not in doc.bivectors:
            raise UsageError(f"no bivector named {name!r} in the input")
    if len(names) == 2:
        reps = poisson_pair(*(doc.bivectors[name] for name in names))
        for name, rep in zip(names, reps):
            report.add_report(f"poisson({name})", rep)
        report.add_report(f"compatible({names[0]},{names[1]})", reps[2])
        return
    for name in names:
        report.add_report(f"poisson({name})", timed_check(is_poisson, doc.bivectors[name]))


def _run_pn(args, report: Report, doc: SpecDocument, want_sn: bool) -> None:
    if args.bivector is None and len(doc.bivectors) == 2:
        # a document holding a compatible pair: check against the first one
        pname, P = sorted(doc.bivectors.items())[0]
    else:
        pname, P = _pick_bivector(doc, args.bivector)
    ename, N = _pick_endo(doc, args.endo)
    rep = pn_check(P, N)
    report.add_report(f"poisson({pname})", rep.poisson)
    report.add_report(f"torsion({ename})", rep.torsion)
    report.add_report(f"sharp-compatibility({pname},{ename})", rep.compatible)
    report.add_report(f"concomitant({pname},{ename})", rep.concomitant)
    if want_sn:
        report.add(
            f"nondegenerate({pname})", rep.nondegenerate,
            None if rep.nondegenerate else f"determinant {rep.determinant}",
            seconds=rep.determinant_seconds,
        )
    report.payload["determinant"] = str(rep.determinant)


def cmd_check_pn(args, report: Report, doc: SpecDocument) -> None:
    _run_pn(args, report, doc, want_sn=False)


def cmd_check_sn(args, report: Report, doc: SpecDocument) -> None:
    _run_pn(args, report, doc, want_sn=True)


def cmd_hierarchy(args, report: Report, doc: SpecDocument) -> None:
    if args.depth < 0:
        raise UsageError(f"--depth must be nonnegative, got {args.depth}")
    if args.bivector is None and len(doc.bivectors) == 2:
        pname, P = sorted(doc.bivectors.items())[0]
    else:
        pname, P = _pick_bivector(doc, args.bivector)
    ename, N = _pick_endo(doc, args.endo)
    rep = hierarchy_check(P, N, args.depth)
    for l, r in rep.levels:
        report.add_report(f"poisson({ename}^{l} {pname})", r)
    for l, m, r in rep.pairwise:
        report.add_report(f"compatible(levels {l},{m})", r)


def cmd_recursion(args, report: Report, doc: SpecDocument) -> None:
    n0, p0, n1, p1 = _pick_pair(doc, args.bivectors)
    t0 = time.perf_counter()
    try:
        frac = recursion_operator(p0, p1)
    except DegenerateBivector as e:
        report.add(f"recursion({n0},{n1})", False, str(e), seconds=time.perf_counter() - t0)
        return
    report.add(f"recursion({n0},{n1})", True, seconds=time.perf_counter() - t0)
    report.payload["numerator"] = [[str(e) for e in row] for row in frac.num.mat]
    report.payload["denominator"] = str(frac.den)


def cmd_project(args, report: Report, doc: SpecDocument) -> None:
    epi = doc.epimorphism
    if epi is None:
        raise UsageError("input has no epimorphism block")
    if args.epi is not None and args.epi != epi.name:
        raise UsageError(
            f"input's epimorphism is named {epi.name!r}, not {args.epi!r}"
        )
    report.add_report(f"epimorphism({epi.name}) well-formed", timed_check(epi.validate))
    projected = SpecDocument(epi.target)
    for name, P in sorted(doc.bivectors.items()):
        rep = timed_check(projectable_bivector_check, epi, P)
        report.add_report(f"projectable bivector({name})", rep)
        if rep.ok:
            t0 = time.perf_counter()
            try:
                projected.bivectors[name] = project_bivector(epi, P, check=False)
            except NotBasic as e:
                report.add(f"project bivector({name})", False, str(e),
                           seconds=time.perf_counter() - t0)
    for name, N in sorted(doc.endomorphisms.items()):
        # one projectable complement serves the check and the projection
        t0 = time.perf_counter()
        rep, complement = _endo_check(epi, N)
        rep.seconds = time.perf_counter() - t0
        report.add_report(f"projectable endomorphism({name})", rep)
        if rep.ok:
            t0 = time.perf_counter()
            try:
                projected.endomorphisms[name] = _project_endo(epi, N, complement)
            except NotBasic as e:
                report.add(f"project endomorphism({name})", False, str(e),
                           seconds=time.perf_counter() - t0)
    if projected.bivectors or projected.endomorphisms:
        report.payload["projected"] = json.loads(serialize_document(projected))


def cmd_restrict_leaf(args, report: Report, doc: SpecDocument) -> None:
    pname, P = _pick_bivector(doc, args.bivector)
    N = None
    ename = None
    if args.endo is not None or len(doc.endomorphisms) == 1:
        ename, N = _pick_endo(doc, args.endo)
    t0 = time.perf_counter()
    try:
        res = restrict_to_leaf(P, N, LeafSpec(full_rank=True))
    except DegenerateBivector as e:
        report.add(f"restrict-leaf({pname})", False, str(e), seconds=time.perf_counter() - t0)
        return
    report.add(f"restrict-leaf({pname})", res.report.ok, res.report.witness(),
               seconds=time.perf_counter() - t0)
    rep = timed_check(symplectic_check, res.omega)
    report.add_report("leaf form symplectic", rep)
    report.payload["flat_sign"] = res.flat_sign
    report.payload["determinant"] = str(rep.determinant)


def cmd_riesz(args, report: Report, doc: SpecDocument) -> None:
    ename, N = _pick_endo(doc, args.endo)
    variables = list(doc.algebroid.base_vars)
    points = sample_points(variables, args.points, args.seed, _box_for(variables))
    t0 = time.perf_counter()
    split = _RankFold("image + kernel of the stable power do not span")
    indices, dims, ill = set(), set(), False
    # the reports are folded one block at a time, never all held at once
    for block in _riesz_blocks(N, points):
        for r in block:
            split.add(r.direct_sum_ok, r.values, r.sigma_min, r.cutoff)
            indices.add(r.index)
            dims.add(r.dim_kernel)
            ill = ill or r.ill_conditioned
    report.add_numeric(f"riesz({ename}) stable-kernel splitting at {args.points} points",
                       split, ill, time.perf_counter() - t0)
    report.payload["indices"] = sorted(indices)
    report.payload["kernel_dimensions"] = sorted(dims)


def cmd_reduce_fiberwise(args, report: Report, doc: SpecDocument) -> None:
    pname, P = _pick_bivector(doc, args.bivector)
    ename, N = _pick_endo(doc, args.endo)
    variables = list(doc.algebroid.base_vars)
    points = sample_points(variables, args.points, args.seed, _box_for(variables))
    t0 = time.perf_counter()
    p_fold = _RankFold("reduced bivector degenerate")
    n_fold = _RankFold("reduced endomorphism singular")
    dims, ill = set(), False
    for block in _fiberwise_blocks(P, N, points):
        for r in block:
            p_fold.add(r.p_nondegenerate, r.values, r.p_sigma_min, r.p_cutoff)
            n_fold.add(r.n_invertible, r.values, r.n_sigma_min, r.n_cutoff)
            dims.add(r.dim_quotient)
            ill = ill or r.ill_conditioned
    # both verdicts come from the one pass over the points, and report its time
    seconds = time.perf_counter() - t0
    report.add_numeric(f"reduced bivector({pname}) nondegenerate at {args.points} points",
                       p_fold, ill, seconds)
    report.add_numeric(f"reduced endomorphism({ename}) invertible at {args.points} points",
                       n_fold, ill, seconds)
    report.payload["quotient_dimensions"] = sorted(dims)


def cmd_fixture(args, report: Report, doc: SpecDocument) -> None:
    # resolution already built the document; just print it
    sys.stdout.write(serialize_document(doc))


def _verdict(rep, verdict: str = "ok") -> tuple[bool, Optional[str], bool]:
    """A report as (ok, witness, ill), ok read from its ``verdict`` field."""
    return getattr(rep, verdict), rep.witness(), False


def _stable_kernel_verdict(N: Endo, pts) -> tuple[_RankFold, bool]:
    fold = _RankFold("no stable kernel of index 1 and dimension 2")
    reports = riesz_report(N, pts)
    for r in reports:
        fold.add(r.index == 1 and r.dim_kernel == 2 and r.direct_sum_ok, r.values,
                 r.sigma_min, r.cutoff)
    return fold, any(r.ill_conditioned for r in reports)


def _fiberwise_verdict(P: Bivector, N: Endo, pts) -> tuple[_RankFold, bool]:
    fold = _RankFold("reduced pair degenerate")
    reports = fiberwise_reduce(P, N, pts)
    for r in reports:
        fold.add(r.p_nondegenerate, r.values, r.p_sigma_min, r.p_cutoff)
        fold.add(r.n_invertible, r.values, r.n_sigma_min, r.n_cutoff)
    return fold, any(r.ill_conditioned for r in reports)


def cmd_selftest(args, report: Report, doc: SpecDocument) -> None:
    """Condensed verification suite over the built-in fixtures: one
    (name, thunk) row per check, each thunk giving (ok, witness, ill), or
    (fold, ill) for a numeric check."""
    t = build_toda(2)
    a = build_aff1()
    pts = sample_points(list(a.algebroid.base_vars), 25, 7,
                        _box_for(list(a.algebroid.base_vars)))
    checks = [
        *((f"toda2 poisson({name})", lambda P=P: _verdict(is_poisson(P)))
          for name, P in (("lam0", t.lam0), ("lam1", t.lam1),
                          ("pi0", t.pi0), ("pi1", t.pi1))),
        ("toda2 compatible(lam0,lam1)",
         lambda: _verdict(are_compatible(t.lam0, t.lam1))),
        ("toda2 recursion(lam0,lam1) = N",
         lambda: ((recursion_operator(t.lam0, t.lam1).exact() - t.N).is_zero(), None, False)),
        ("toda2 pn(lam0,N)", lambda: _verdict(pn_check(t.lam0, t.N))),
        ("toda2 project(lam0) = lam0_bar",
         lambda: ((project_bivector(t.epi_flaschka, t.lam0) - t.lam0_bar).is_zero(),
                  None, False)),
        ("toda2 sn(pi0,N_A)",
         lambda: _verdict(pn_check(t.pi0, t.recursion_atiyah().exact()), "sn")),
        ("aff1 two-form symplectic", lambda: _verdict(symplectic_check(a.omega))),
        ("aff1 projector idempotent",
         lambda: ((a.N.compose(a.N) - a.N).is_zero(), None, False)),
        ("aff1 stable-kernel index 1 at 25 points",
         lambda: _stable_kernel_verdict(a.N, pts)),
        ("aff1 fiberwise reduction nondegenerate",
         lambda: _fiberwise_verdict(a.P, a.N, pts)),
    ]
    for name, thunk in checks:
        _timed(report, name, thunk)


COMMANDS = {
    "check-algebroid": cmd_check_algebroid,
    "check-poisson": cmd_check_poisson,
    "check-pn": cmd_check_pn,
    "check-sn": cmd_check_sn,
    "hierarchy": cmd_hierarchy,
    "recursion": cmd_recursion,
    "project": cmd_project,
    "restrict-leaf": cmd_restrict_leaf,
    "riesz": cmd_riesz,
    "reduce-fiberwise": cmd_reduce_fiberwise,
    "fixture": cmd_fixture,
    "selftest": cmd_selftest,
}


def _positive_int(text: str) -> int:
    """argparse type of sample counts: an integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pnalgebroid",
        description=(
            "Verdict suites for Lie algebroids with Poisson and Nijenhuis "
            "structures.  Inputs are JSON spec files or builtin fixture "
            "names (aff1, toda:<n>[:canonical|flaschka|atiyah]).  The "
            f"default numeric tolerance is {linalg.DEFAULT_TOL} and can "
            f"be overridden with the {TOL_ENV_VAR} environment "
            "variable."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, needs_input=True, **kw):
        sp = sub.add_parser(name, **kw)
        if needs_input:
            sp.add_argument("spec", help="spec file path or builtin fixture name")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        return sp

    add("check-algebroid", help="bracket/anchor axioms of the algebroid")
    sp = add("check-poisson", help="Poisson condition for bivectors")
    sp.add_argument("--bivector", action="append")
    for name in ("check-pn", "check-sn"):
        sp = add(name, help="Poisson-Nijenhuis (and nondegeneracy) verdicts")
        sp.add_argument("--bivector")
        sp.add_argument("--endo")
    sp = add("hierarchy", help="compatibility of the deformed bivector ladder")
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--bivector")
    sp.add_argument("--endo")
    sp = add("recursion", help="endomorphism intertwining two bivectors")
    sp.add_argument("--bivectors", nargs=2)
    sp = add("project", help="push structures through the epimorphism block")
    sp.add_argument("--epi", help="name of the epimorphism block")
    sp = add("restrict-leaf", help="invert the bivector on a full-rank leaf")
    sp.add_argument("--bivector")
    sp.add_argument("--endo")
    sp = add("riesz", help="stable-kernel index of the endomorphism at random points")
    sp.add_argument("--points", type=_positive_int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--endo")
    sp = add("reduce-fiberwise", help="pointwise quotient by the stable kernel")
    sp.add_argument("--points", type=_positive_int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--bivector")
    sp.add_argument("--endo")

    sp = sub.add_parser("fixture", help="print a builtin fixture as a spec file")
    fsub = sp.add_subparsers(dest="fixture", required=True)
    ft = fsub.add_parser("toda")
    ft.add_argument("--n", type=int, required=True)
    ft.add_argument("--block", choices=("canonical", "flaschka", "atiyah"),
                    default="canonical")
    ft.add_argument("--epi", choices=("flaschka", "atiyah"), default="flaschka")
    ft.add_argument("--format", choices=("text", "json"), default="text")
    fa = fsub.add_parser("aff1")
    fa.add_argument("--format", choices=("text", "json"), default="text")

    add("selftest", needs_input=False,
        help="condensed verification suite over the builtin fixtures")
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    try:
        if args.command == "fixture":
            if args.fixture == "toda":
                doc = _toda_document(args.n, args.block, args.epi)
                digest = f"fixture:toda:{args.n}:{args.block}"
            else:
                doc, digest = resolve_input("aff1")
        elif getattr(args, "spec", None) is not None:
            doc, digest = resolve_input(args.spec)
        else:
            doc, digest = None, "builtin"
    except (SpecFileError, UsageError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    report = Report(
        command=args.command,
        inputs_digest=digest,
        tolerance=default_tolerance(),
        seed=getattr(args, "seed", None),
    )
    try:
        COMMANDS[args.command](args, report, doc)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DegenerateBivector as e:
        report.add(args.command, False, str(e))
    except linalg.NonFiniteEntry as e:
        # no verdict at that point: reported as ill-conditioned (exit 3)
        report.add(args.command, True, str(e), ill=True)
    if args.command != "fixture":
        try:
            report.emit(args.format)
            sys.stdout.flush()
        except BrokenPipeError:
            _silence_stdout()
    return report.exit_code


def _silence_stdout() -> None:
    """Point the descriptor of standard output at the null device once its
    reader has gone, so that the flush at shutdown cannot raise
    BrokenPipeError again."""
    try:
        fd = sys.stdout.fileno()
    except OSError:  # a stream with no descriptor: nothing to redirect
        return
    with open(os.devnull, "w") as devnull:
        os.dup2(devnull.fileno(), fd)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
