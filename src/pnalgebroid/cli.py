"""Command-line surface: load spec files or built-in fixtures, run verdict
suites, emit text or JSON reports.

Exit codes: 0 all verdicts pass, 1 a hypothesis fails (witness in the
report), 2 parse/usage error, 3 a numeric check was ill-conditioned.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import __version__ as VERSION, linalg
from .expr import ExprError
from .algebroid import CheckReport, timed_check
from .poisson import (
    is_poisson, are_compatible, poisson_pair, symplectic_check, DegenerateBivector, Bivector,
)
from .nijenhuis import pn_check, recursion_operator, hierarchy_check, Endo
from .reduction import (
    LeafSpec, restrict_to_leaf, projectable_bivector_check, project_bivector,
    projectable_endo_check, project_endo,
)
from .pointwise import (
    TOL_ENV_VAR, default_tolerance, _sample, _RankFold, _riesz_fold, _fiberwise_fold,
)
from .specio import SpecDocument, SpecFileError, parse_document, serialize_document
from .fixtures import TodaFixture, SemidirectFixture, build_toda, build_aff1

# The input digest's SHA-256: hashlib would load OpenSSL's libcrypto, a few MB
# resident, into every process for this one digest.
try:
    from _sha2 import sha256 as _sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

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

    def add_numeric(self, name: str, fold: _RankFold, seconds: float) -> None:
        """A check decided by numeric ranks: its JSON also carries ``margin``."""
        self.checks.append(Check(name, fold.ok, fold.witness, fold.ill, seconds, True,
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

    def emit(self, fmt: str) -> None:
        out = sys.stdout
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


def _sha256_hex(data: bytes) -> str:
    """The hex SHA-256 of ``data``, from the interpreter's built-in module."""
    return _sha256(data).hexdigest()


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
    # read once: a pipe such as /dev/stdin gives its bytes to one reader only
    try:
        with open(spec, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise SpecFileError(f"cannot read {spec}: {e}") from e
    return parse_document(data.decode()), f"sha256:{_sha256_hex(data)[:16]}"


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


def _timed(report: Report, name: str, fn) -> None:
    """Run a check thunk giving (ok, witness, ill), or a fold for a numeric
    check, and add its row with its time."""
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    if isinstance(result, _RankFold):
        report.add_numeric(name, result, seconds)
    else:
        report.add(name, *result, seconds)


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


def _pick_pn(doc: SpecDocument, args) -> tuple[str, Bivector, str, Endo]:
    """The (P, N) of ``--bivector`` and ``--endo``; a document holding a
    compatible pair and no ``--bivector`` is checked against the first one."""
    if args.bivector is None and len(doc.bivectors) == 2:
        pname, P = sorted(doc.bivectors.items())[0]
    else:
        pname, P = _pick_bivector(doc, args.bivector)
    return (pname, P, *_pick_endo(doc, args.endo))


def _run_pn(args, report: Report, doc: SpecDocument, want_sn: bool) -> None:
    pname, P, ename, N = _pick_pn(doc, args)
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
    pname, P, ename, N = _pick_pn(doc, args)
    rep = hierarchy_check(P, N, args.depth)
    for l, r in rep.levels:
        report.add_report(f"poisson({ename}^{l} {pname})", r)
    if rep.compatible is not None:
        report.add_report(f"sharp-compatibility({pname},{ename})", rep.compatible)
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
    rep = timed_check(epi.validate)
    report.add_report(f"epimorphism({epi.name}) well-formed", rep)
    if not rep.ok:
        return  # nothing is checked or projected through an ill-formed map
    projected = SpecDocument(epi.target)
    for kind, items, check, project, out in (
        ("bivector", doc.bivectors, projectable_bivector_check, project_bivector,
         projected.bivectors),
        ("endomorphism", doc.endomorphisms, projectable_endo_check, project_endo,
         projected.endomorphisms),
    ):
        for name, obj in sorted(items.items()):
            rep = timed_check(check, epi, obj)
            report.add_report(f"projectable {kind}({name})", rep)
            if rep.ok:
                t0 = time.perf_counter()
                try:
                    out[name] = project(epi, obj, check=False)
                except ExprError as e:  # NotBasic, or entries outside the class
                    report.add(f"project {kind}({name})", False, str(e),
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
    pts = _sample(variables, args.points, args.seed, _box_for(variables))
    t0 = time.perf_counter()
    split, indices, dims = _riesz_fold(N, pts)
    report.add_numeric(f"riesz({ename}) stable-kernel splitting at {args.points} points",
                       split, time.perf_counter() - t0)
    report.payload["indices"] = indices
    report.payload["kernel_dimensions"] = dims


def cmd_reduce_fiberwise(args, report: Report, doc: SpecDocument) -> None:
    pname, P = _pick_bivector(doc, args.bivector)
    ename, N = _pick_endo(doc, args.endo)
    variables = list(doc.algebroid.base_vars)
    pts = _sample(variables, args.points, args.seed, _box_for(variables))
    t0 = time.perf_counter()
    p_fold, n_fold, _, dims = _fiberwise_fold(P, N, pts)
    # both verdicts come from the one pass over the points, and report its time
    seconds = time.perf_counter() - t0
    report.add_numeric(f"reduced bivector({pname}) nondegenerate at {args.points} points",
                       p_fold, seconds)
    report.add_numeric(f"reduced endomorphism({ename}) invertible at {args.points} points",
                       n_fold, seconds)
    report.payload["quotient_dimensions"] = dims


def cmd_fixture(args, report: Report, doc: SpecDocument) -> None:
    # resolution already built the document; just print it
    sys.stdout.write(serialize_document(doc))


def _verdict(rep, verdict: str = "ok") -> tuple[bool, Optional[str], bool]:
    """A report as (ok, witness, ill), ok read from its ``verdict`` field."""
    return getattr(rep, verdict), rep.witness(), False


def _zero(diff: Bivector | Endo) -> tuple[bool, Optional[str], bool]:
    """A difference of bivectors or of endomorphisms as (ok, witness, ill),
    ok when it is zero; the witness names its first nonzero entry."""
    frame = diff.algebroid.frame
    for a, row in enumerate(diff.mat):
        for b, e in enumerate(row):
            if not e.is_zero():
                return False, f"entry ({frame[a]}, {frame[b]}) differs by {e}", False
    return True, None, False


def selftest_rows(t: TodaFixture, a: SemidirectFixture) -> list[tuple[str, Callable]]:
    """The paper's checks on a Toda fixture and on a semidirect fixture: one
    (name, thunk) row per check, each thunk giving (ok, witness, ill), or a
    fold for a numeric check.  ``selftest`` runs them on toda:2 and aff1."""
    toda = f"toda{t.n}"
    pts = _sample(list(a.algebroid.base_vars), 25, 7, _box_for(list(a.algebroid.base_vars)))
    return [
        *((f"{toda} poisson({name})", lambda P=P: _verdict(is_poisson(P)))
          for name, P in (("lam0", t.lam0), ("lam1", t.lam1),
                          ("pi0", t.pi0), ("pi1", t.pi1))),
        (f"{toda} compatible(lam0,lam1)",
         lambda: _verdict(are_compatible(t.lam0, t.lam1))),
        (f"{toda} recursion(lam0,lam1) = N",
         lambda: _zero(recursion_operator(t.lam0, t.lam1).exact() - t.N)),
        (f"{toda} pn(lam0,N)", lambda: _verdict(pn_check(t.lam0, t.N))),
        (f"{toda} project(lam0) = lam0_bar",
         lambda: _zero(project_bivector(t.epi_flaschka, t.lam0) - t.lam0_bar)),
        (f"{toda} sn(pi0,N_A)",
         lambda: _verdict(pn_check(t.pi0, t.recursion_atiyah().exact()), "sn")),
        ("aff1 two-form symplectic", lambda: _verdict(symplectic_check(a.omega))),
        ("aff1 projector idempotent", lambda: _zero(a.N.compose(a.N) - a.N)),
        ("aff1 stable-kernel index 1 at 25 points",
         lambda: _riesz_fold(a.N, pts, stable=(1, 2))[0]),
        ("aff1 fiberwise reduction nondegenerate",
         lambda: _fiberwise_fold(a.P, a.N, pts)[2]),
    ]


def cmd_selftest(args, report: Report, doc: SpecDocument) -> None:
    """Condensed verification suite: the rows of :func:`selftest_rows` on
    toda:2 and aff1."""
    for name, thunk in selftest_rows(build_toda(2), build_aff1()):
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
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
        tolerance = default_tolerance()
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
        tolerance=tolerance,
        seed=getattr(args, "seed", None),
    )
    t0 = time.perf_counter()
    try:
        COMMANDS[args.command](args, report, doc)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DegenerateBivector as e:
        report.add(args.command, False, str(e), seconds=time.perf_counter() - t0)
    except linalg.NonFiniteEntry as e:
        # no verdict at that point: reported as ill-conditioned (exit 3)
        report.add(args.command, True, str(e), ill=True, seconds=time.perf_counter() - t0)
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
