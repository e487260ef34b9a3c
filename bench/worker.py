"""One workload in a process of its own: set up, then timed passes.

Started by run.py, never by hand.  It prints one JSON line when set-up is
done and one JSON line with the pass results at the end.  A `--trace 1` run
alternates untraced and traced passes, so that the tracing overhead is
measured in the same stretch of time; the tracer is installed for the traced
passes only.

Untraced passes time a fixed reference computation before every operation
and after the last one.  The host this runs on changes speed by up to 2x,
over minutes and in bursts; operation time divided by the reference time
next to it cancels most of that.  Between operations they also time set-up
probes, each next to a reference probe (see `probe`), spread over the run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

import workloads
from tracer import Tracer

MIN_PASSES = 3
SETUP_PROBES = 8    # fresh interpreters timed for setup_s
READY = {"event": "ready"}


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def reference() -> float:
    """Seconds for a fixed computation that does not touch pnalgebroid:
    Fraction sums in a tuple-keyed dict, as in Expr arithmetic, and small
    SVDs, as on the numeric path.  About 15 ms on a 2-vCPU x86 VM."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(4000):
        key = (i % 97, (i * 7) % 13)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 11, 7)
    m = np.arange(400.0).reshape(20, 20) + np.eye(20)
    for _ in range(150):
        np.linalg.svd(m, compute_uv=False)
    return time.perf_counter() - t0


def probe(args: argparse.Namespace) -> tuple[float, float]:
    """Seconds of one set-up probe, and of the reference probe run just
    before it.  The set-up probe is a fresh interpreter that sets this
    workload up (the --setup-only mode of this script), timed from its spawn
    to its ready line.  The reference probe is a fresh interpreter that
    imports numpy and exits: it pays for process start and imports, as
    set-up does, but does not use pnalgebroid."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    ref = time.perf_counter() - t0
    workdir = os.path.join(args.workdir, "probe")
    os.makedirs(workdir, exist_ok=True)
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--workdir", workdir, "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.communicate()
    if proc.returncode != 0 or json.loads(line or "null") != READY:
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return seconds, ref


def run_pass(ops: list[workloads.Op], tracer=None, between=None) -> list[tuple]:
    """One pass: what `workloads.execute` returned for each operation.
    `between` runs before each operation, outside its timing."""
    results = []
    for op in ops:
        if between is not None:
            between()
        results.append(workloads.execute(op, tracer))
    return results


def judged(ops: list[workloads.Op], results: list[tuple]) -> tuple[float, list[dict]]:
    """The pass time, the sum of the operations' own seconds, and the
    outcomes.  Outcomes are checked here, after the pass, so that neither
    the pass time nor a traced span includes the checking."""
    outcomes = [workloads.judge(op, *r) for op, r in zip(ops, results)]
    return sum(o.seconds for o in outcomes), [o.__dict__ for o in outcomes]


def untraced_passes(args: argparse.Namespace, ops) -> dict:
    """Passes until the next one would end after `args.seconds`, at least
    MIN_PASSES of them.  SETUP_PROBES set-up probes are spread evenly over
    the run, between operations.  The reference is timed right before each
    operation and after the last one: `refs` holds, per pass, one time more
    than there are operations."""
    start = time.perf_counter()
    refs, setups, setup_refs = [], [], []

    def add_probe():
        seconds, ref = probe(args)
        setups.append(seconds)
        setup_refs.append(ref)

    def between():
        while (len(setups) < SETUP_PROBES and
               time.perf_counter() >= start + len(setups) * args.seconds / SETUP_PROBES):
            add_probe()
        refs[-1].append(reference())

    walls, outcomes = [], []
    while True:
        t0 = time.perf_counter()
        refs.append([])
        results = run_pass(ops, between=between)
        refs[-1].append(reference())
        wall, result = judged(ops, results)
        walls.append(wall)
        outcomes.append(result)
        now = time.perf_counter()
        if len(walls) >= MIN_PASSES and now + (now - t0) > start + args.seconds:
            break
    while len(setups) < SETUP_PROBES:
        add_probe()
    return {"walls": walls, "outcomes": outcomes, "refs": refs, "setups": setups,
            "setup_refs": setup_refs}


def traced_pairs(args: argparse.Namespace, ops) -> dict:
    """Pairs of an untraced and a traced pass until the next pair would end
    after `args.seconds`, at least one pair.  The tracer is installed for the
    traced pass only, so the untraced one measures the overhead's base."""
    deadline = time.perf_counter() + args.seconds
    tracer = Tracer()
    record = {"untraced_walls": [], "walls": [], "outcomes": [], "summaries": []}
    while True:
        t0 = time.perf_counter()
        wall, result = judged(ops, run_pass(ops))
        record["untraced_walls"].append(wall)
        record["outcomes"].append(result)
        tracer.reset()
        tracer.install()
        try:
            results = run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        wall, result = judged(ops, results)
        record["walls"].append(wall)
        record["outcomes"].append(result)
        record["summaries"].append({"spans": tracer.summary(),
                                    "max_terms": tracer.max_terms[0]})
        if args.spans and len(record["walls"]) == 1:
            tracer.save(args.spans)
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return record


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", help="where a traced run writes its first traced pass's spans")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    _, ops = workloads.prepare(args.workload, workloads.FULL, args.seed, args.workdir)
    emit(READY)
    if args.setup_only:
        return 0

    record = {"event": "done", "points_per_pass": sum(op.points for op in ops)}
    if args.trace:
        record.update(traced_pairs(args, ops))
    else:
        record.update(untraced_passes(args, ops))
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    emit(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
