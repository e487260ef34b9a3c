"""The CLI gives the exit codes and JSON reports it gave when its golden
files were written.

Each command below runs in-process with ``--format json``; its exit code
and its report, with every check's ``seconds`` removed, must equal
``tests/golden/cli/<name>.json``.  Spec-file arguments are paths relative to
the repository root, under ``tests/golden/spec``.  A change that alters a verdict, a
witness or a payload on purpose rewrites the golden file and says why.

To rewrite every golden file from the current code::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from pnalgebroid.cli import main
from pnalgebroid.pointwise import TOL_ENV_VAR

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli"

COMMANDS = {
    "check-pn-toda4": ["check-pn", "toda:4"],
    "check-sn-aff1": ["check-sn", "aff1"],
    "check-sn-toda2-atiyah": ["check-sn", "toda:2:atiyah"],
    "check-poisson-toda4-atiyah": ["check-poisson", "toda:4:atiyah"],
    "check-poisson-aff1": ["check-poisson", "aff1"],
    "check-poisson-xyz-pair": ["check-poisson", "tests/golden/spec/poisson-pair-xyz.json"],
    "check-algebroid-toda3-atiyah": ["check-algebroid", "toda:3:atiyah"],
    "check-algebroid-anchor-and-jacobi-fail": [
        "check-algebroid", "tests/golden/spec/algebroid-anchor-and-jacobi-fail.json",
    ],
    "check-algebroid-jacobi-fail": ["check-algebroid", "tests/golden/spec/algebroid-jacobi-fail.json"],
    "check-pn-torsion-exp-frame": ["check-pn", "tests/golden/spec/pn-torsion-exp-frame.json"],
    "hierarchy-toda3-depth2": ["hierarchy", "toda:3", "--depth", "2"],
    "hierarchy-aff1-depth2": ["hierarchy", "aff1", "--depth", "2"],
    "recursion-toda4": ["recursion", "toda:4"],
    "project-toda3": ["project", "toda:3"],
    "restrict-leaf-toda2-atiyah-pi0": ["restrict-leaf", "toda:2:atiyah", "--bivector", "pi0"],
    "riesz-aff1": ["riesz", "aff1", "--points", "20", "--seed", "1"],
    "riesz-aff1-2000": ["riesz", "aff1", "--points", "2000", "--seed", "1"],
    "reduce-fiberwise-toda3-lam0": [
        "reduce-fiberwise", "toda:3", "--bivector", "lam0", "--points", "10", "--seed", "1",
    ],
    "reduce-fiberwise-toda5-lam0-300": [
        "reduce-fiberwise", "toda:5", "--bivector", "lam0", "--points", "300", "--seed", "1",
    ],
    "selftest": ["selftest"],
}


def run_json(argv: list[str]) -> dict:
    """Exit code and JSON report of one command, ``seconds`` removed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", "json"])
    report = json.loads(out.getvalue())
    for check in report["checks"]:
        del check["seconds"]
    return {"argv": argv, "exit_code": code, "report": report}


def test_every_command_has_a_golden_file():
    assert sorted(COMMANDS) == sorted(p.stem for p in GOLDEN.glob("*.json"))


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_report_matches_its_golden_file(name, monkeypatch):
    monkeypatch.delenv(TOL_ENV_VAR, raising=False)
    monkeypatch.chdir(ROOT)  # spec-file arguments are relative to the repository
    assert run_json(COMMANDS[name]) == json.loads((GOLDEN / f"{name}.json").read_text())


if __name__ == "__main__":  # pragma: no cover
    os.environ.pop(TOL_ENV_VAR, None)
    os.chdir(ROOT)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in COMMANDS.items():
        got = run_json(argv)
        (GOLDEN / f"{name}.json").write_text(json.dumps(got, indent=2) + "\n")
        print(f"{name}: exit {got['exit_code']}")
