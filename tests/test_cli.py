"""End-to-end command-line behavior: exit codes, witnesses, report formats."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pnalgebroid
from pnalgebroid import cli, pointwise
from pnalgebroid.cli import main
from pnalgebroid.fixtures import build_toda
from pnalgebroid.specio import parse_document, serialize_document


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_riesz_on_aff1(capsys):
    code, out, _ = run(capsys, "riesz", "aff1", "--points", "100", "--seed", "7")
    assert code == 0
    assert "PASS" in out
    assert "indices: [1]" in out


def test_check_sn_on_toda_atiyah_spec_file(tmp_path, capsys):
    code, out, _ = run(capsys, "fixture", "toda", "--n", "2", "--block", "atiyah")
    assert code == 0
    spec = tmp_path / "atiyah.json"
    spec.write_text(out)
    code, out, _ = run(capsys, "check-sn", str(spec))
    assert code == 0
    assert "FAIL" not in out


def test_check_poisson_perturbed_spec_exits_one_with_witness(tmp_path, capsys):
    code, out, _ = run(capsys, "fixture", "toda", "--n", "2", "--block", "canonical")
    doc = parse_document(out)
    # perturb lam0 so that the Jacobi identity breaks
    obj = json.loads(serialize_document(doc))
    obj["bivectors"]["lam0"]["(Dq1,Dq2)"] = "p1*q1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "check-poisson", str(bad), "--bivector", "lam0")
    assert code == 1
    assert "FAIL" in out and "residual" in out


def test_hierarchy_negative_depth_exits_two_and_depth_zero_passes(capsys):
    # a negative depth used to check level 0 alone and exit 0
    code, out, err = run(capsys, "hierarchy", "aff1", "--depth", "-3")
    assert code == 2 and out == ""
    assert "--depth must be nonnegative" in err and "Traceback" not in err
    code, out, _ = run(capsys, "hierarchy", "aff1", "--depth", "0")
    assert code == 0 and "PASS  poisson(N^0 P)" in out and "compatible" not in out


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{oops")
    code, _, err = run(capsys, "check-algebroid", str(bad))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("field,value,where", [
    ("frame", 5, "algebroid.frame"),
    ("structure", [], "algebroid.structure"),
    ("bivectors", [], "bivectors"),
    ("endomorphisms", {"N": 5}, "endomorphisms[N]"),
])
def test_malformed_spec_shape_exits_two(tmp_path, capsys, field, value, where):
    obj = {"base_vars": ["x"], "frame": ["e"], "anchor": [["1"]], field: value}
    bad = tmp_path / "shape.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, "check-algebroid", str(bad))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {where}: expected")
    assert "Traceback" not in err


def test_recursion_on_degenerate_pair_exits_one(capsys):
    code, out, _ = run(capsys, "recursion", "toda:2:flaschka")
    assert code == 1
    assert "degenerate" in out


def test_project_reports_endo_witness(capsys):
    code, out, _ = run(capsys, "project", "toda:2")
    assert code == 1
    assert "projectable bivector(lam0)" in out
    assert "FAIL  projectable endomorphism(N)" in out


def test_json_report_is_reproducible_modulo_timing(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "riesz", "aff1", "--points", "10", "--seed", "3",
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        for c in obj["checks"]:
            c.pop("seconds")
        outs.append(obj)
    assert outs[0] == outs[1]
    assert outs[0]["seed"] == 3


def test_hierarchy_command(capsys):
    code, out, _ = run(capsys, "hierarchy", "toda:2:atiyah", "--depth", "2")
    assert code == 0
    assert "compatible(levels 1,2)" in out


def test_hierarchy_fails_sharp_compatibility_with_a_witness_and_checks_no_higher_level(
        tmp_path, capsys):
    # N no longer commutes with the sharp map of lam0, so N lam0 is not a bivector
    code, out, _ = run(capsys, "fixture", "toda", "--n", "2")
    obj = json.loads(out)
    obj["endomorphisms"]["N"][1][2] = "1"
    spec = tmp_path / "noncommuting.json"
    spec.write_text(json.dumps(obj))
    code, out, err = run(capsys, "hierarchy", str(spec), "--depth", "2", "--format", "json")
    assert (code, err) == (1, "")
    assert [(c["name"], c["verdict"], c["witness"]) for c in json.loads(out)["checks"]] == [
        ("poisson(N^0 lam0)", "pass", None),
        ("sharp-compatibility(lam0,N)", "fail",
         "N P# != P# N* on dual pair (Dq1, Dq2): residual -2"),
    ]
    # depth 0 reads no N P, so it adds no row
    code, out, _ = run(capsys, "hierarchy", str(spec), "--depth", "0", "--format", "json")
    assert code == 0
    assert [c["name"] for c in json.loads(out)["checks"]] == ["poisson(N^0 lam0)"]


def test_tolerance_env_var_is_reported(monkeypatch, capsys):
    monkeypatch.setenv("PNALGEBROID_TOL", "1e-7")
    code, out, _ = run(
        capsys, "riesz", "aff1", "--points", "5", "--seed", "1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["tolerance"] == 1e-7


@pytest.mark.parametrize("tol", ["abc", "", "-1", "0", "1", "nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [["check-pn", "toda:2"],
                                  ["riesz", "aff1", "--points", "5", "--seed", "1"],
                                  ["selftest"]], ids=["check-pn", "riesz", "selftest"])
def test_a_bad_tolerance_is_a_usage_error(monkeypatch, capsys, argv, tol):
    """A tolerance that is not a finite number strictly between 0 and 1 is
    refused before any check runs: exit 2, the variable named, no report."""
    monkeypatch.setenv("PNALGEBROID_TOL", tol)
    with pytest.raises(ValueError, match="PNALGEBROID_TOL"):
        pointwise.default_tolerance()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: PNALGEBROID_TOL ") and "Traceback" not in err


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert out.count("PASS") >= 10


@pytest.mark.parametrize("points", ["-5", "0"])
@pytest.mark.parametrize("command", ["riesz", "reduce-fiberwise"])
def test_sampling_commands_reject_fewer_than_one_point(capsys, command, points):
    code, out, err = run(capsys, command, "aff1", "--points", points, "--seed", "1")
    assert code == 2
    assert out == ""
    assert "--points" in err and "at least 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check-pn", "toda:2"],
        ["check-sn", "toda:2:atiyah"],
        ["check-poisson", "toda:2"],
        ["check-algebroid", "toda:2:atiyah"],
        ["hierarchy", "toda:2:atiyah", "--depth", "2"],
        ["recursion", "toda:3"],
        ["restrict-leaf", "toda:2:atiyah", "--bivector", "pi0"],
        ["riesz", "aff1", "--points", "5", "--seed", "1"],
        ["reduce-fiberwise", "aff1", "--points", "5", "--seed", "1"],
    ],
)
def test_every_check_reports_its_own_time(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert checks
    assert all(c["seconds"] > 0 for c in checks), checks


def test_project_reports_the_time_of_each_check(capsys):
    code, out, _ = run(capsys, "project", "toda:3", "--format", "json")
    assert code == 1
    checks = json.loads(out)["checks"]
    assert len(checks) == 4
    assert all(c["seconds"] > 0 for c in checks), checks


def _spec_with_endo(tmp_path, base_vars, frame, anchor, endo):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "base_vars": base_vars, "frame": frame, "anchor": anchor,
        "endomorphisms": {"N": endo},
    }))
    return str(path)


def test_overflowing_evaluation_exits_three_naming_the_point(tmp_path, capsys):
    # exp(1000 x) overflows a float for x > 0.71; seed 3 samples x = 0.99
    spec = _spec_with_endo(tmp_path, ["x"], ["e"], [["1"]], [["exp(1000*x)"]])
    code, out, err = run(capsys, "riesz", spec, "--points", "20", "--seed", "3",
                         "--format", "json")
    assert code == 3, err
    (check,) = json.loads(out)["checks"]
    assert check["ill_conditioned"]
    assert "{'x': 0.99128967" in check["witness"]


def test_an_escaping_error_row_reports_the_time_of_its_command(tmp_path, capsys):
    code, out, _ = run(capsys, "fixture", "toda", "--n", "2", "--block", "flaschka")
    spec = tmp_path / "toda2-flaschka.json"
    spec.write_text(out)
    code, out, _ = run(capsys, "check-pn", str(spec), "--format", "json")
    assert code == 1
    (check,) = json.loads(out)["checks"]
    assert check["name"] == "check-pn" and "degenerate" in check["witness"]
    assert check["seconds"] > 0

    spec = _spec_with_endo(tmp_path, ["x"], ["e"], [["1"]], [["exp(1000*x)"]])
    code, out, _ = run(capsys, "riesz", spec, "--points", "20", "--seed", "3",
                       "--format", "json")
    assert code == 3
    (check,) = json.loads(out)["checks"]
    assert check["name"] == "riesz" and check["ill_conditioned"]
    assert check["seconds"] > 0


def test_overflowing_power_exits_three(tmp_path, capsys):
    # N is finite on the box, N^2 = exp(800 x) N overflows at x = 0.99
    spec = _spec_with_endo(tmp_path, ["x"], ["e", "f"], [["1"], ["0"]],
                           [["exp(400*x)", "exp(400*x)"], ["0", "0"]])
    code, out, err = run(capsys, "riesz", spec, "--points", "20", "--seed", "3",
                         "--format", "json")
    assert code == 3, err
    (check,) = json.loads(out)["checks"]
    assert check["ill_conditioned"] and "not finite" in check["witness"]


def test_selftest_runs_each_check_of_its_table_once(monkeypatch, capsys):
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from workloads import SELFTEST_CHECKS

    calls = []
    real = pointwise._riesz_blocks
    monkeypatch.setattr(pointwise, "_riesz_blocks", lambda *a: calls.append(a) or real(*a))
    code, out, _ = run(capsys, "selftest", "--format", "json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == SELFTEST_CHECKS
    assert all(c["verdict"] == "pass" and not c["ill_conditioned"] for c in checks)
    assert len(calls) == 1


def test_a_failing_table_row_carries_a_witness():
    from dataclasses import replace

    from pnalgebroid.fixtures import build_aff1
    from pnalgebroid.nijenhuis import Endo

    def doubled(N):
        return Endo.from_matrix(N.algebroid, [[2 * e for e in row] for row in N.mat])

    # 2N still pairs with lam0, and 2N keeps N's stable kernel, so one row
    # of each fixture fails: 2N is not the recursion operator, nor idempotent
    t, a = build_toda(2), build_aff1()
    t, a = replace(t, N=doubled(t.N)), replace(a, N=doubled(a.N))
    report = cli.Report("selftest", "", 0.0)
    for name, thunk in cli.selftest_rows(t, a):
        cli._timed(report, name, thunk)
    failed = {c.name: c.witness for c in report.checks if not c.ok}
    assert failed == {
        "toda2 recursion(lam0,lam1) = N": "entry (Dq1, Dq1) differs by -p1",
        "aff1 projector idempotent": "entry (xi1, xi1) differs by 2",
    }


@pytest.mark.parametrize("flagged", [None, 24])
def test_selftest_fiberwise_row_reads_ill_conditioning(monkeypatch, capsys, flagged):
    real = pointwise._fiberwise_blocks

    def flag_one(*args):
        for start, block in real(*args):
            if flagged is not None and 0 <= flagged - start < block.riesz.ill.size:
                block.riesz.ill[flagged - start] = True
            yield start, block

    monkeypatch.setattr(pointwise, "_fiberwise_blocks", flag_one)
    code, out, _ = run(capsys, "selftest", "--format", "json")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    row = checks["aff1 fiberwise reduction nondegenerate"]
    assert row["verdict"] == "pass"
    assert row["ill_conditioned"] is (flagged is not None)
    assert code == (0 if flagged is None else 3)


@pytest.mark.parametrize("p_fails, n_fails, witness, margin", [
    # the endomorphism fails first, in the first block; the bivector later, in the second
    ({13: 0.15}, {9: 0.25},
     "reduced pair degenerate at {'mu1': 0.30841179446999467, 'mu2': -0.41327810139687937}: "
     "sigma_min 0.25, cutoff 0.5", 0.3),
    # both fail at one point: the bivector's test is read first
    ({17: 0.4}, {17: 0.1},
     "reduced pair degenerate at {'mu1': -1.7615953201350694, 'mu2': -1.1761651487226938}: "
     "sigma_min 0.4, cutoff 0.5", 0.2),
])
def test_selftest_pair_row_names_the_first_failing_test_of_its_pass(
        monkeypatch, capsys, p_fails, n_fails, witness, margin):
    import numpy as np
    from types import SimpleNamespace
    from pnalgebroid.pointwise import _Tests

    def tests(start, count, fails):
        # sigma 1.5 over cutoff 0.5 where a test passes; none decides the last point
        sigma, cutoff = np.full(count, 1.5), np.full(count, 0.5)
        sigma[-1] = cutoff[-1] = np.nan
        for i, s in fails.items():
            if start <= i < start + count:
                sigma[i - start] = s
        return _Tests(np.isnan(sigma) | (sigma > cutoff), sigma, cutoff)

    def two_blocks(P, N, pts):
        for start, count in ((0, 12), (12, 13)):
            yield start, SimpleNamespace(
                p=tests(start, count, p_fails), n=tests(start, count, n_fails),
                riesz=SimpleNamespace(ill=np.zeros(count, dtype=bool)),
                dim_quotient=np.full(count, 2))

    monkeypatch.setattr(pointwise, "_fiberwise_blocks", two_blocks)
    code, out, _ = run(capsys, "selftest", "--format", "json")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    row = checks["aff1 fiberwise reduction nondegenerate"]
    assert (row["verdict"], row["witness"], row["margin"]) == ("fail", witness, margin)
    assert not row["ill_conditioned"] and code == 1


def test_cli_binds_no_numpy():
    import numpy as np

    bound = [name for name, value in vars(cli).items()
             if value is np or getattr(value, "__module__", "").startswith("numpy")]
    assert not bound


def test_exact_commands_start_no_thread(tmp_path):
    """``check-pn`` on toda:2 and on its spec file, and ``selftest``, build no
    SVD stack large enough to split, so a fresh process that runs them runs
    one thread (the modules they load are in the import budget below)."""
    src = Path(pnalgebroid.__file__).resolve().parent.parent
    spec = tmp_path / "toda2.json"
    script = (
        "import contextlib, io, sys, threading\n"
        "from pnalgebroid.cli import main\n"
        "with open(sys.argv[1], 'w') as fh, contextlib.redirect_stdout(fh):\n"
        "    codes = [main(['fixture', 'toda', '--n', '2'])]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes += [main(['check-pn', sys.argv[1]]), main(['check-pn', 'toda:2']),\n"
        "              main(['selftest'])]\n"
        "print(codes, threading.active_count())\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(spec)], capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=str(src)))
    assert (proc.stdout, proc.stderr) == ("[0, 0, 0, 0] 1\n", "")


def test_a_sampled_command_splits_its_svds_without_a_thread_pool(tmp_path):
    """``riesz`` on a toda:5 spec file at 1,500 points splits its 128-point
    blocks' SVDs, so a fresh process that runs it has started the one helper
    thread, when it may run on two CPUs (that no thread pool is imported on
    the way is in the import budget below)."""
    src = Path(pnalgebroid.__file__).resolve().parent.parent
    spec = tmp_path / "toda5.json"
    script = (
        "import contextlib, io, sys, threading\n"
        "from pnalgebroid import linalg\n"
        "from pnalgebroid.cli import main\n"
        "with open(sys.argv[1], 'w') as fh, contextlib.redirect_stdout(fh):\n"
        "    main(['fixture', 'toda', '--n', '5'])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['riesz', sys.argv[1], '--points', '1500', '--seed', '1'])\n"
        "print(code, threading.active_count(), min(linalg._CPUS, 2))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(spec)], capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=str(src)))
    code, threads, cpus = proc.stdout.split()
    assert proc.stderr == ""
    assert code == "0"
    assert threads == cpus  # the main thread, and the helper when it may split


# Modules no command may load: numpy.ma (the first np.unique imports it),
# numpy.random, a thread pool and the logging it imports, and OpenSSL.
_IMPORT_BUDGET = ("numpy.ma", "numpy.random", "concurrent.futures", "logging",
                  "_hashlib", "_ssl")


def test_no_command_loads_a_module_outside_the_import_budget(tmp_path):
    """A fresh process runs ``fixture``, ``check-pn`` on a spec file,
    ``selftest``, and ``riesz`` and ``reduce-fiberwise`` on aff1 and on
    toda:5 at 1,500 points (of Riesz index 1 and 0), and
    has loaded none of the modules of ``_IMPORT_BUDGET``, nor any submodule
    of them.  A failure lists every module the commands added."""
    src = Path(pnalgebroid.__file__).resolve().parent.parent
    spec = tmp_path / "toda2.json"
    sampled = [["riesz", "aff1"], ["reduce-fiberwise", "aff1"], ["riesz", "toda:5"],
               ["reduce-fiberwise", "toda:5", "--bivector", "lam0"]]
    sampled = [[*argv, "--points", "1500", "--seed", "1"] for argv in sampled]
    script = (
        "import contextlib, io, json, sys\n"
        "from pnalgebroid.cli import main\n"
        "before = set(sys.modules)\n"
        "with open(sys.argv[1], 'w') as fh, contextlib.redirect_stdout(fh):\n"
        "    codes = [main(['fixture', 'toda', '--n', '2'])]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes += [main(['check-pn', sys.argv[1]]), main(['selftest'])]\n"
        "    codes += [main(argv) for argv in json.loads(sys.argv[2])]\n"
        "print(json.dumps([codes, sorted(sys.modules), sorted(set(sys.modules) - before)]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(spec), json.dumps(sampled)],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.stderr == ""
    codes, loaded, added = json.loads(proc.stdout)
    assert codes == [0] * 7
    over = [m for m in loaded if any(m == b or m.startswith(b + ".") for b in _IMPORT_BUDGET)]
    assert not over, f"loaded {over}; the commands added {added}"


def test_the_input_digest_is_the_sha256_of_the_bytes(capsys):
    import hashlib

    code, spec, _ = run(capsys, "fixture", "toda", "--n", "2")
    assert code == 0
    for data in (b"", spec.encode(), "\u00e4\u2202\u222b \U0001d4d7".encode()):
        assert cli._sha256_hex(data) == hashlib.sha256(data).hexdigest()


def test_report_version_is_the_package_version(capsys):
    assert cli.VERSION is pnalgebroid.__version__
    code, out, _ = run(capsys, "check-algebroid", "aff1", "--format", "json")
    assert code == 0
    assert json.loads(out)["version"] == "0.1.0"


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_the_distribution_version_is_the_package_version():
    from pathlib import Path

    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    path = Path(__file__).resolve().parent.parent / "pyproject.toml"
    conf = pyprojecttoml.read_configuration(path, expand=True)
    assert conf["project"]["version"] == pnalgebroid.__version__


def test_toda_atiyah_fixture_stores_the_laurent_recursion_operator():
    # N_A = pi1 pi0^-1 over det pi0 = a1^2 a2^2: entries such as
    # a1*a2^-1*b1 - a1*a2^-1*b2
    t = build_toda(3)
    N = cli._toda_document(3, "atiyah", "flaschka").endomorphisms["N"]
    assert N.mat == t.recursion_atiyah().exact().mat
    assert any(e < 0 for row in N.mat for entry in row for m, _, _ in entry.terms for _, e in m)


def test_project_builds_the_complement_and_the_kernel_once(tmp_path, capsys, monkeypatch):
    from pnalgebroid import linalg, reduction

    code, out, _ = run(capsys, "fixture", "toda", "--n", "2", "--epi", "atiyah")
    assert code == 0
    spec = tmp_path / "toda2-atiyah.json"
    spec.write_text(out)
    calls = {"projectable_complement": 0, "symbolic_nullspace": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    counting(reduction, "projectable_complement")
    counting(linalg, "symbolic_nullspace")
    code, out, _ = run(capsys, "project", str(spec), "--format", "json")
    assert code == 0
    assert calls == {"projectable_complement": 1, "symbolic_nullspace": 1}


def test_the_paper_example_projects_to_the_invariant_frame_and_is_sn(tmp_path, capsys):
    # project the canonical PN pair along the invariant-frame epimorphism,
    # then decide the projected pair symplectic-Nijenhuis; for n >= 3 the
    # projected N has Laurent entries (det pi0 = a1^2 ... a_{n-1}^2)
    for n in (2, 3, 4, 5):
        code, out, _ = run(capsys, "fixture", "toda", "--n", str(n), "--epi", "atiyah")
        spec = tmp_path / f"toda{n}-atiyah.json"
        spec.write_text(out)
        code, out, _ = run(capsys, "project", str(spec), "--format", "json")
        assert code == 0, n
        report = json.loads(out)
        assert [c["verdict"] for c in report["checks"]] == ["pass"] * 4, n
        projected = report["result"]["projected"]

        # project keeps the source's bivector names; the block names them pi0, pi1
        code, out, _ = run(capsys, "fixture", "toda", "--n", str(n), "--block", "atiyah")
        block = json.loads(out)
        block["bivectors"] = {name.replace("pi", "lam"): P
                              for name, P in block["bivectors"].items()}
        assert projected == block, n

        reduced = tmp_path / f"projected{n}.json"
        reduced.write_text(json.dumps(projected))
        code, out, _ = run(capsys, "check-sn", str(reduced), "--bivector", "lam0",
                           "--format", "json")
        assert code == 0, n
        assert [c["verdict"] for c in json.loads(out)["checks"]] == ["pass"] * 5, n


def test_underflowing_evaluation_exits_three_naming_the_point(tmp_path, capsys):
    # exp(1000 x) at the first point, x = -0.7313, is the subnormal 2.6e-318:
    # read as 0 it made N singular there and the index 1
    spec = _spec_with_endo(tmp_path, ["x"], ["e"], [["1"]], [["exp(1000*x)"]])
    code, out, err = run(capsys, "riesz", spec, "--points", "3", "--seed", "1",
                         "--format", "json")
    assert code == 3, err
    (check,) = json.loads(out)["checks"]
    assert check["ill_conditioned"] and "underflows" in check["witness"]
    assert "{'x': -0.7312715117751976}" in check["witness"]


def _numeric_checks(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    checks = json.loads(out)["checks"]
    for c in checks:
        assert set(c) == {"name", "verdict", "witness", "ill_conditioned", "seconds", "margin"}
    return code, checks


def test_numeric_checks_report_a_margin(capsys):
    code, (split,) = _numeric_checks(capsys, "riesz", "aff1", "--points", "30", "--seed", "1")
    assert code == 0 and split["witness"] is None and split["margin"] > 1
    code, checks = _numeric_checks(capsys, "reduce-fiberwise", "toda:3", "--bivector", "lam0",
                                   "--points", "30", "--seed", "1")
    assert code == 0 and all(c["margin"] > 1 for c in checks)
    code, out, _ = run(capsys, "check-algebroid", "aff1", "--format", "json")
    assert "margin" not in json.loads(out)["checks"][0]


def test_failing_riesz_names_its_first_point_sigma_and_cutoff(tmp_path, capsys):
    # N = [[0, 1], [0, e]] with e = 1.5e-9: N^2 keeps rank 1, so the index is
    # 1, but Ker N and Im N are e apart, below the cutoff of the direct sum
    spec = _spec_with_endo(tmp_path, ["x"], ["e", "f"], [["1"], ["0"]],
                           [["0", "1"], ["0", "3/2000000000"]])
    code, (split,) = _numeric_checks(capsys, "riesz", spec, "--points", "5", "--seed", "1")
    assert code == 1 and split["verdict"] == "fail"
    assert split["witness"] == (
        "image + kernel of the stable power do not span at {'x': -0.7312715117751976}: "
        "sigma_min 1.06066e-09, cutoff 1.41421e-09")
    assert split["margin"] == 0.75


def test_failing_reduce_fiberwise_names_its_first_point(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "base_vars": ["x"], "frame": ["e", "f"], "anchor": [["1"], ["0"]],
        "bivectors": {"P": {}}, "endomorphisms": {"N": [["1", "0"], ["0", "x"]]},
    }))
    code, (p_check, n_check) = _numeric_checks(capsys, "reduce-fiberwise", str(path),
                                               "--points", "5", "--seed", "1")
    assert code == 1
    assert p_check["verdict"] == "fail" and p_check["margin"] == 0.0
    assert p_check["witness"] == (
        "reduced bivector degenerate at {'x': -0.7312715117751976}: "
        "sigma_min 0, cutoff 1e-09")
    assert n_check["verdict"] == "pass" and n_check["witness"] is None
    assert n_check["margin"] > 1


def test_check_pn_with_a_base_variable_named_like_a_dual_frame(tmp_path, capsys):
    # the dual algebroids of the concomitant are framed by the names of A's
    # frame, so a base variable "th_e1" does not collide with them
    spec = tmp_path / "th.json"
    spec.write_text(json.dumps({
        "base_vars": ["th_e1", "y"], "frame": ["e1", "e2"],
        "anchor": [["1", "0"], ["0", "1"]],
        "bivectors": {"P": {"(e1,e2)": "1"}},
        "endomorphisms": {"N": [["2", "0"], ["0", "2"]]},
    }))
    code, out, _ = run(capsys, "check-pn", str(spec), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert [(c["name"], c["verdict"], c["witness"]) for c in report["checks"]] == [
        ("poisson(P)", "pass", None),
        ("torsion(N)", "pass", None),
        ("sharp-compatibility(P,N)", "pass", None),
        ("concomitant(P,N)", "pass", None),
    ]
    assert report["result"] == {"determinant": "1"}


@pytest.mark.parametrize("command, extra", [
    ("check-pn", []),
    ("check-sn", [("nondegenerate(P)", "pass", None)]),
])
def test_checks_on_an_empty_frame_pass(tmp_path, capsys, command, extra):
    spec = tmp_path / "empty.json"
    spec.write_text(json.dumps({
        "base_vars": ["x"], "frame": [], "anchor": [],
        "bivectors": {"P": {}}, "endomorphisms": {"N": []},
    }))
    code, out, err = run(capsys, command, str(spec), "--format", "json")
    assert (code, err) == (0, "")
    checks = [(c["name"], c["verdict"], c["witness"]) for c in json.loads(out)["checks"]]
    assert checks == [
        ("poisson(P)", "pass", None),
        ("torsion(N)", "pass", None),
        ("sharp-compatibility(P,N)", "pass", None),
        ("concomitant(P,N)", "pass", None),
    ] + extra


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_report_to_a_closed_pipe_returns_its_exit_code(monkeypatch, fmt):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["recursion", "toda:2", "--format", fmt]) == 0
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["recursion", "toda:2:flaschka", "--format", fmt]) == 1


def test_report_to_a_pipe_with_no_reader_exits_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(pnalgebroid.__file__).resolve().parent.parent
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pnalgebroid.cli", "check-pn", "toda:2", "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("spec, code", [
    ("toda:3", 0),
    ("tests/golden/spec/poisson-pair-xyz.json", 1),  # the mixed bracket fails
])
def test_check_poisson_builds_each_level_table_once(monkeypatch, capsys, spec, code):
    from pnalgebroid import poisson

    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    calls = []
    real = poisson._bracket_check
    monkeypatch.setattr(poisson, "_bracket_check",
                        lambda pairs, *known: calls.append(pairs) or real(pairs, *known))
    got, out, _ = run(capsys, "check-poisson", spec, "--format", "json")
    assert got == code
    assert len(json.loads(out)["checks"]) == 3
    (P0, _), = calls[0]
    (P1, _), = calls[1]
    assert P0 != P1
    assert calls == [[(P0, P0)], [(P1, P1)], [(P0, P1), (P1, P0)]]


def test_one_process_runs_commands_through_one_parser(monkeypatch, capsys):
    """main builds its parser once per process; a command, a usage error and
    --help in between leave it as a fresh process finds it."""
    monkeypatch.setenv("COLUMNS", "80")   # the help text wraps to the terminal
    src = Path(pnalgebroid.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))

    def without_seconds(text):
        if not text.startswith("{"):
            return text
        report = json.loads(text)
        for check in report["checks"]:
            check.pop("seconds")
        return report

    for argv, want in ((["check-pn", "toda:2", "--format", "json"], 0),
                       (["riesz", "aff1", "--points", "0", "--seed", "1"], 2),
                       (["riesz", "aff1", "--points", "40", "--seed", "3", "--format", "json"], 0),
                       (["--help"], 0),
                       (["check-pn", "toda:2", "--format", "json"], 0)):
        fresh = subprocess.run([sys.executable, "-m", "pnalgebroid.cli", *argv],
                               capture_output=True, text=True, timeout=300, env=env)
        code, out, err = run(capsys, *argv)
        assert (code, without_seconds(out), err) == (
            want, without_seconds(fresh.stdout), fresh.stderr), argv
        assert fresh.returncode == want
    assert cli.build_parser() is cli.build_parser()


def test_project_fails_a_fiber_map_of_generic_rank_below_the_target_rank(tmp_path, capsys):
    spec = tmp_path / "zero-fiber-map.json"
    spec.write_text(json.dumps({
        "base_vars": ["x"],
        "frame": ["e1", "e2"],
        "anchor": [["0"], ["0"]],
        "bivectors": {"P": {"(e1,e2)": "1"}},
        "epimorphism": {
            "name": "zero",
            "target": {"base_vars": ["u"], "frame": ["f1"], "anchor": [["0"]]},
            "base_map": {"u": "x"},
            "fiber_map": [["0", "0"]],
        },
    }))
    code, out, _ = run(capsys, "project", str(spec), "--format", "json")
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert check["name"] == "epimorphism(zero) well-formed"
    assert check["verdict"] == "fail"
    assert check["witness"] == (
        "fiber map not surjective: generic rank 0 < target rank 1")


def test_check_sn_derives_the_recursion_operator_of_an_input_with_no_endomorphism(
        tmp_path, capsys):
    code, out, _ = run(capsys, "fixture", "toda", "--n", "2", "--block", "atiyah")
    obj = json.loads(out)
    del obj["endomorphisms"]
    spec = tmp_path / "pair.json"
    spec.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "check-sn", str(spec), "--format", "json")
    assert code == 0
    assert [(c["name"], c["verdict"]) for c in json.loads(out)["checks"]] == [
        ("poisson(pi0)", "pass"),
        ("torsion(recursion(pi0,pi1))", "pass"),
        ("sharp-compatibility(pi0,recursion(pi0,pi1))", "pass"),
        ("concomitant(pi0,recursion(pi0,pi1))", "pass"),
        ("nondegenerate(pi0)", "pass"),
    ]


def test_project_fails_an_endomorphism_whose_image_leaves_the_expression_class(
        tmp_path, capsys):
    # the epimorphism is well formed (zero anchors intertwine), and the pushed
    # endomorphism has an entry over 1 + exp(x), which the class cannot divide
    # out: a failed row, not an escaping ExprError
    spec = tmp_path / "fiber-map.json"
    spec.write_text(json.dumps({
        "base_vars": ["x"],
        "frame": ["e1", "e2"],
        "anchor": [["0"], ["0"]],
        "endomorphisms": {"N": [["0", "1"], ["0", "0"]]},
        "epimorphism": {
            "name": "scale",
            "target": {"base_vars": ["u"], "frame": ["f1", "f2"], "anchor": [["0"], ["0"]]},
            "base_map": {"u": "x"},
            "fiber_map": [["1", "0"], ["0", "1 + exp(x)"]],
        },
    }))
    code, out, err = run(capsys, "project", str(spec), "--format", "json")
    assert (code, err) == (1, "")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["epimorphism(scale) well-formed"]["verdict"] == "pass"
    assert checks["projectable endomorphism(N)"]["verdict"] == "pass"
    assert checks["project endomorphism(N)"]["verdict"] == "fail"
    assert checks["project endomorphism(N)"]["witness"] == (
        "exact division failed (no quotient in class)")


def test_project_checks_nothing_through_an_ill_formed_epimorphism(tmp_path, capsys):
    # anchors that do not intertwine: the epimorphism's failed row, with its
    # witness, is the only row, and nothing is projected
    code, out, _ = run(capsys, "fixture", "toda", "--n", "2", "--epi", "atiyah")
    obj = json.loads(out)
    obj["epimorphism"]["fiber_map"][0][0] = "exp(q1) + 1"
    spec = tmp_path / "fiber-map.json"
    spec.write_text(json.dumps(obj))
    code, out, err = run(capsys, "project", str(spec), "--format", "json")
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert [(c["name"], c["verdict"], c["witness"]) for c in report["checks"]] == [
        ("epimorphism(atiyah) well-formed", "fail",
         "anchors do not intertwine on source frame Dq1, target coordinate a1: "
         "residual -1 - exp(q1) + exp(q1 - q2)")]
    assert "projected" not in report.get("result", {})
    code, out, _ = run(capsys, "project", str(spec))
    assert code == 1 and out.splitlines() == [
        "FAIL  epimorphism(atiyah) well-formed  -- anchors do not intertwine on source "
        "frame Dq1, target coordinate a1: residual -1 - exp(q1) + exp(q1 - q2)"]


_GAP_OVERFLOW = {"base_vars": ["x"], "frame": ["Dx", "Dy"], "anchor": [["1"], ["0"]],
                 "endomorphisms": {"N": [["10000000000", "0"], ["0", "exp(-690)"]]}}

_BRANCH_SPECS = {
    # a document with no bivectors
    "{no-bivectors}": {"base_vars": ["x"], "frame": ["e"], "anchor": [["1"]]},
    # the gap between the singular values 1e10 and e^-690 overflows a float
    "{gap-overflow}": _GAP_OVERFLOW,
    # exp(1000 x) overflows a float at the points that seed 3 samples
    "{overflow}": {"base_vars": ["x"], "frame": ["e"], "anchor": [["1"]],
                   "endomorphisms": {"N": [["exp(1000*x)"]]}},
}


@pytest.mark.parametrize("argv, code, message", [
    (["check-pn", "toda:2", "--bivector", "nope"], 2, "no bivector named 'nope' in the input"),
    (["check-poisson", "toda:2", "--bivector", "nope"], 2,
     "no bivector named 'nope' in the input"),
    (["check-pn", "toda:2", "--endo", "M"], 2, "no endomorphism named 'M' in the input"),
    (["recursion", "toda:2", "--bivectors", "lam0", "nope"], 2,
     "no bivector named 'nope' in the input"),
    (["restrict-leaf", "toda:2"], 2,
     "input has several bivectors; pick one with --bivector (available: lam0, lam1)"),
    (["check-poisson", "{no-bivectors}"], 2, "input has no bivectors"),
    (["project", "toda:2", "--epi", "atiyah"], 2,
     "input's epimorphism is named 'flaschka', not 'atiyah'"),
    (["check-pn", "toda:x"], 2, "bad fixture name 'toda:x' (expected toda:<n>[:block])"),
    (["check-pn", "toda:2:foo"], 2, "unknown toda block 'foo'"),
    (["restrict-leaf", "toda:2:flaschka", "--bivector", "lam0"], 1,
     "FAIL  restrict-leaf(lam0)  -- bivector is degenerate; kernel covector witness: "
     "(-a1)*th_Db1 + (-a1)*th_Db2"),
    (["riesz", "{overflow}", "--points", "20", "--seed", "3"], 3, "  [ill-conditioned]"),
    (["reduce-fiberwise", "{gap-overflow}", "--points", "3", "--seed", "1"], 2,
     "input has no bivectors"),
    (["restrict-leaf", "{no-bivectors}"], 2, "input has no bivectors"),
])
def test_cli_branches_exit_with_their_code_and_message(tmp_path, capsys, argv, code, message):
    """A usage error is one ``error:`` line on stderr and nothing on stdout;
    a failed or ill-conditioned check is a report line on stdout."""
    for i, arg in enumerate(argv):
        if arg in _BRANCH_SPECS:
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(_BRANCH_SPECS[arg]))
            argv = [*argv[:i], str(path), *argv[i + 1:]]
    got, out, err = run(capsys, *argv)
    assert got == code
    if code == 2:
        assert (out, err) == ("", f"error: {message}\n")
    else:
        assert err == "" and message in out


def test_a_singular_value_gap_beyond_the_float_range_warns_nothing(tmp_path, capsys):
    # 1e10 over e^-690 overflows a float: the gap reads inf, which is not
    # ill-conditioned, and numpy's overflow warning used to reach stderr
    import hashlib
    import warnings

    spec = tmp_path / "gap.json"
    spec.write_text(json.dumps(_GAP_OVERFLOW))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "riesz", str(spec), "--points", "3", "--seed", "1",
                             "--format", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    for check in report["checks"]:
        del check["seconds"]
    digest = hashlib.sha256(spec.read_bytes()).hexdigest()[:16]
    assert report == {
        "command": "riesz", "inputs": f"sha256:{digest}", "version": "0.1.0",
        "tolerance": 1e-09, "seed": 1,
        "checks": [{"name": "riesz(N) stable-kernel splitting at 3 points", "verdict": "pass",
                    "witness": None, "ill_conditioned": False, "margin": 1e9}],
        "result": {"indices": [1], "kernel_dimensions": [1]},
    }


def test_a_spec_piped_into_stdin_is_hashed_from_the_bytes_it_parses():
    # a pipe can be read once: hashing it after parsing used to hash no bytes
    import hashlib

    src = Path(pnalgebroid.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "pnalgebroid.cli"]
    spec = subprocess.run([*cmd, "fixture", "aff1"], capture_output=True, check=True,
                          timeout=300, env=env).stdout
    proc = subprocess.run([*cmd, "check-poisson", "/dev/stdin", "--format", "json"],
                          input=spec, capture_output=True, timeout=300, env=env)
    assert (proc.returncode, proc.stderr) == (0, b"")
    report = json.loads(proc.stdout)
    assert report["inputs"] == "sha256:" + hashlib.sha256(spec).hexdigest()[:16]
    assert [c["name"] for c in report["checks"]] == ["poisson(P)"]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_the_invariant_frame_passes_every_exact_command_and_has_index_zero(capsys, n):
    # N_A, stored with the atiyah block, has Laurent entries for n >= 3
    spec = f"toda:{n}:atiyah"
    for argv in (["check-sn"], ["check-pn"], ["hierarchy", "--depth", "3"]):
        code, out, err = run(capsys, argv[0], spec, *argv[1:], "--format", "json")
        assert code == 0, (argv, err)
        assert all(c["verdict"] == "pass" for c in json.loads(out)["checks"]), argv
    code, out, _ = run(capsys, "riesz", spec, "--points", "20", "--seed", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["indices"] == [0]
