"""pnalgebroid benchmark: time to an exact verdict, end to end and per layer.

    python3 bench/run.py --workload toda-verdict --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
The workload runs in a worker process of its own as a closed loop with one
caller: each operation starts when the previous one has returned, and a pass
runs the workload's operation list once.  Every outcome is checked against
the hand-written expectations in workloads.py.

With `--trace 0` the end-to-end metrics are reported: the pass time in units
of a reference computation timed next to each operation (see worker.py and
wall_in_refs), set-up time of a fresh interpreter (median of several spread over
the run, each scaled by a reference probe), and peak RSS of the worker.  The raw
pass and set-up times are printed as wall_s and setup_raw_s.  With `--trace 1`
untraced and traced passes alternate; in the traced ones spans are recorded
around calls into the pnalgebroid modules (tracer.py), and the per-layer
metrics are reported.

The report is printed by name with units; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.  A
fuller record, with provenance and the seed, is written to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import TARGETS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("toda-verdict", "big-operand", "numeric-sample")
RUN_LIMIT_S = 170          # the whole run, set-up probes included
# setup_s is in seconds of a host on which the reference probe (a fresh
# interpreter importing numpy, see worker.probe) takes this long, its median
# on a quiet 2-vCPU x86-64 VM: the median over set-up probes of the probe's
# time over the reference probe's, times REF_PROBE_S.
REF_PROBE_S = 0.17

# Span names, by layer; see README.md for the end-to-end metric each moves.
LAYER_SPANS = list(dict.fromkeys(name for _, _, name in TARGETS))
CLI_COMMANDS = ["check-pn", "check-poisson", "check-algebroid", "check-sn",
                "selftest", "hierarchy", "recursion", "project", "riesz",
                "reduce-fiberwise"]
# Spans reported with self time in the result line: those every workload
# calls.  A span a workload never calls has self time exactly 0 on every run,
# so it is reported by its call count alone; the full table is in the
# printed report and the result file.
TIMED_SPANS = ["expr.mul", "expr.add", "expr.sub", "expr.diff", "expr.parse",
               "cli.resolve_input", "specio.parse_document"]


def median(values: list[float]) -> float:
    return statistics.median(values)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def provenance() -> dict:
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "pnalgebroid").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def run_worker(args: argparse.Namespace, workdir: Path, extra: list[str],
               timeout: float) -> dict | None:
    """Run the worker to its end and return its last record.  It runs in a
    session of its own, so that a timeout stops its set-up probes too."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PNALGEBROID_TOL", None)  # the expected outcomes assume the default
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
                            env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def tally(outcomes: list[list[dict]]) -> tuple[int, int, bool, list[dict]]:
    """attempted, failed, correct, and the distinct failures.  A run is
    correct when every operation either has its expected outcome or fails
    with a crash listed in workloads.KNOWN_CRASHES."""
    flat = [o for one_pass in outcomes for o in one_pass]
    failures = [o for o in flat if o["status"] != "ok"]
    distinct = list({(o["label"], o["status"], o["detail"]): o for o in failures}.values())
    correct = all(o["status"] in ("ok", "known-crash") for o in flat)
    return len(flat), len(failures), correct, distinct


def wall_in_refs(done: dict) -> float:
    """The pass time in units of the reference: each operation's seconds over
    the mean of the reference times just before and just after it, its median
    over the passes, summed over the operations of a pass."""
    scaled = [[o["seconds"] / ((a + b) / 2) for o, a, b in zip(one_pass, refs, refs[1:])]
              for one_pass, refs in zip(done["outcomes"], done["refs"])]
    return sum(median(list(op)) for op in zip(*scaled))


def end_to_end(workload: str, done: dict) -> tuple[dict, dict]:
    walls, setups = done["walls"], done["setups"]
    # The host changes speed in bursts shorter than a pass, so each
    # operation is scaled by the reference timed next to it, and each set-up
    # probe by the reference probe timed next to it.
    setup_per_ref = [s / r for s, r in zip(setups, done["setup_refs"])]
    metrics = {
        "wall_per_ref": {"value": wall_in_refs(done), "unit": "ratio"},
        "setup_s": {"value": median(setup_per_ref) * REF_PROBE_S, "unit": "s"},
        "peak_rss_mb": {"value": done["peak_rss_mb"], "unit": "MB"},
    }
    attempted, failed, _, _ = tally(done["outcomes"])
    extra = {
        "wall_s": {"value": median(walls), "unit": "s"},
        "setup_raw_s": {"value": median(setups), "unit": "s"},
        "ref_s": {"value": statistics.mean(r for refs in done["refs"] for r in refs),
                  "unit": "s"},
        "failed_share": {"value": failed / attempted, "unit": "ratio"},
    }
    if workload == "numeric-sample":
        extra["points_per_s"] = {"value": done["points_per_pass"] / median(walls),
                                 "unit": "1/s"}
    return metrics, metrics | extra


def per_layer(done: dict) -> tuple[dict, dict]:
    summaries = done["summaries"]
    first = summaries[0]["spans"]
    table = {}
    for name in LAYER_SPANS + [f"cli.{c}" for c in CLI_COMMANDS]:
        table[f"{name}.calls"] = {"value": first.get(name, {}).get("calls", 0), "unit": "count"}
        selfs = [s["spans"].get(name, {}).get("self_s", 0.0) for s in summaries]
        table[f"{name}.self_s"] = {"value": median(selfs), "unit": "s"}
    for command in CLI_COMMANDS:
        totals = [s["spans"].get(f"cli.{command}", {}).get("total_s", 0.0) for s in summaries]
        table[f"cli.{command}.s"] = {"value": median(totals), "unit": "s"}
    table["expr.terms.max"] = {"value": summaries[0]["max_terms"], "unit": "count"}
    table["trace.overhead"] = {"value": median(done["walls"]) / median(done["untraced_walls"]),
                               "unit": "ratio"}
    return {k: table[k] for k in per_layer_names()}, table


def per_layer_names() -> list[str]:
    """The per-layer metrics of the result line, in order."""
    names = [f"{n}.calls" for n in LAYER_SPANS] + [f"cli.{c}.calls" for c in CLI_COMMANDS]
    return names + [f"{n}.self_s" for n in TIMED_SPANS] + ["expr.terms.max", "trace.overhead"]


def print_metric(name: str, m: dict, note: str = "") -> None:
    print(f"  {name:<36} {m['value']!r:>24} {m['unit']:<6} {note}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (SRC / "pnalgebroid" / "__init__.py").is_file():
        print(f"error: no pnalgebroid sources under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    workdir = BENCH / ".work" / str(os.getpid())
    results = BENCH / "results"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workdir.mkdir(parents=True)
        results.mkdir(exist_ok=True)
        extra = ["--spans", str(results / f"{tag}.spans.npz")] if args.trace else []
        done = run_worker(args, workdir, extra, RUN_LIMIT_S - (time.perf_counter() - started))
    except (OSError, RuntimeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done is None or done.get("event") != "done":
        print("error: the worker reported no result", file=sys.stderr)
        return 1

    attempted, failed, correct, failures = tally(done["outcomes"])
    if args.trace:
        metrics, table = per_layer(done)
    else:
        metrics, table = end_to_end(args.workload, done)
    prov = provenance()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(done['walls'])} {'traced ' if args.trace else ''}passes")
    print("  provenance " + "  ".join(f"{k}={v}" for k, v in prov.items()))
    lo, hi = quartiles(done["walls"])
    print(f"  pass seconds {', '.join(f'{w:.3f}' for w in done['walls'])}"
          f"  (quartiles {lo:.3f} .. {hi:.3f})")
    if not args.trace:
        print(f"  setup seconds {', '.join(f'{s:.3f}' for s in done['setups'])}")
    for name, m in table.items():
        print_metric(name, m, "" if name in metrics else "(report only)")
    op_seconds = {}
    for one_pass in done["outcomes"][::2] if args.trace else done["outcomes"]:
        for o in one_pass:
            op_seconds.setdefault(o["label"], []).append(o["seconds"])
    op_seconds = {label: median(s) for label, s in op_seconds.items()}
    print("  operation seconds, median over passes")
    for label, s in op_seconds.items():
        print(f"    {s:9.4f}  {label}")
    print(f"  operations attempted {attempted}, failed {failed}, correct {correct}")
    for f in failures:
        print(f"  {f['status']}: {f['label']}: {f['detail']}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "provenance": prov, "walls": done["walls"],
              "refs": done.get("refs"),
              "pass_op_seconds": [[o["seconds"] for o in one_pass]
                                  for one_pass in done["outcomes"]],
              "setups": done.get("setups"), "setup_refs": done.get("setup_refs"),
              "op_seconds": op_seconds,
              "attempted": attempted, "failed": failed,
              "correct": correct, "failures": failures, "metrics": table}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
