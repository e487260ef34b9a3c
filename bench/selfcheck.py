"""Reduced-size self-check of the benchmark harness; it finishes in seconds.

    python3 bench/selfcheck.py

It runs every workload at the SMALL sizes of workloads.py, in-process, and
checks that:

- every operation has its hand-written outcome, apart from crashes listed in
  workloads.KNOWN_CRASHES; a wrong expectation is reported as wrong, and a
  crash not in that list makes the run incorrect;
- the tracer wraps functions imported by name, gives identical call counts
  on two passes, and restores every binding when uninstalled;
- BENCHMARK.json names exactly the metrics run.py reports;
- run.py exits nonzero without printing a result when the program's sources
  are missing.

The heavy full-size passes run only through run.py.  Exit code 0 means
every check held.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, is_traced  # noqa: E402

def check_outcomes(workdir: Path) -> list[str]:
    problems = []
    for name in workloads.WORKLOADS:
        _, ops = workloads.prepare(name, workloads.SMALL, 1, str(workdir))
        for o in map(workloads.run_op, ops):
            if o.status not in ("ok", "known-crash"):
                problems.append(f"{name}: {o.label}: {o.status}: {o.detail}")
    inputs, _ = workloads.prepare("toda-verdict", workloads.SMALL, 1, str(workdir))
    flipped = workloads.cli_op("check-sn aff1", ["check-sn", inputs.specs["aff1"]], 0,
                               [("poisson(P)", workloads.PASS)])
    if workloads.run_op(flipped).status != "wrong":
        problems.append("a wrong expectation was not reported as wrong")
    crash = workloads.Op("check-sn toda:3:atiyah", lambda: 1 / 0, lambda _: [])
    _, _, correct, _ = run.tally([[workloads.run_op(crash).__dict__]])
    if correct:
        problems.append("a crash not listed in KNOWN_CRASHES left the run correct")
    return problems


def check_tracer(workdir: Path) -> list[str]:
    import pnalgebroid
    from pnalgebroid import cli, nijenhuis, specio

    problems = []
    _, ops = workloads.prepare("toda-verdict", workloads.SMALL, 2, str(workdir))
    tracer = Tracer()
    tracer.install()
    try:
        for module, attr in ((cli, "is_poisson"), (nijenhuis, "is_poisson"),
                             (specio, "parse_expr"), (pnalgebroid, "is_poisson")):
            if not is_traced(getattr(module, attr)):
                problems.append(f"{module.__name__}.{attr} is not traced")
        counts = []
        for _ in range(2):
            tracer.reset()
            for op in ops:
                workloads.run_op(op)
            counts.append({k: v["calls"] for k, v in tracer.summary().items()})
    finally:
        tracer.uninstall()
    if counts[0] != counts[1]:
        problems.append("two traced passes gave different call counts")
    for name in ("expr.mul", "algebroid.anchor_apply", "cli.check-pn"):
        if not counts[0].get(name):
            problems.append(f"no calls recorded for {name}")
    for name, module in list(sys.modules.items()):
        if name == "pnalgebroid" or name.startswith("pnalgebroid."):
            for key, value in vars(module).items():
                if is_traced(value):
                    problems.append(f"{name}.{key} still traced after uninstall")
                if isinstance(value, type) and any(map(is_traced, vars(value).values())):
                    problems.append(f"{name}.{key} has traced methods after uninstall")
    if any(map(is_traced, cli.COMMANDS.values())):
        problems.append("cli.COMMANDS still traced after uninstall")
    return problems


def check_benchmark_json() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = [[{"label": "op", "status": "ok", "detail": "", "seconds": 1.0}]]
    e2e, _ = run.end_to_end("numeric-sample", {
        "walls": [1.0], "refs": [[0.03, 0.03]], "setups": [0.3], "setup_refs": [0.15],
        "peak_rss_mb": 40.0, "outcomes": ok, "points_per_pass": 10})
    layers, _ = run.per_layer({"summaries": [{"spans": {}, "max_terms": 1}],
                               "walls": [2.0], "untraced_walls": [1.0]})
    problems = []
    for key, reported in (("end_to_end", e2e), ("per_layer", layers)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        if listed != [(name, m["unit"]) for name, m in reported.items()]:
            problems.append(f"BENCHMARK.json {key} differs from what run.py reports")
    if not [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json, run.py and workloads.py name different workloads")
    return problems


def check_needs_sources(workdir: Path) -> list[str]:
    """run.py in a directory holding only BENCHMARK.json and bench/."""
    bare = workdir / "bare"
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "toda-verdict", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return ["run.py succeeded without the program's sources"]
    return []


def main() -> int:
    workdir = BENCH / ".work" / "selfcheck"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        problems = (check_outcomes(workdir) + check_tracer(workdir)
                    + check_benchmark_json() + check_needs_sources(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
