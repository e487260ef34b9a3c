"""End-to-end command-line behavior: exit codes, witnesses, report formats."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pnalgebroid
from pnalgebroid import cli
from pnalgebroid.cli import main
from pnalgebroid.fixtures import TodaFixture
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


def test_tolerance_env_var_is_reported(monkeypatch, capsys):
    monkeypatch.setenv("PNALGEBROID_TOL", "1e-7")
    code, out, _ = run(
        capsys, "riesz", "aff1", "--points", "5", "--seed", "1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["tolerance"] == 1e-7


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
    real = cli.riesz_report
    monkeypatch.setattr(cli, "riesz_report", lambda *a: calls.append(a) or real(*a))
    code, out, _ = run(capsys, "selftest", "--format", "json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == SELFTEST_CHECKS
    assert all(c["verdict"] == "pass" and not c["ill_conditioned"] for c in checks)
    assert len(calls) == 1


@pytest.mark.parametrize("flagged", [None, 24])
def test_selftest_fiberwise_row_reads_ill_conditioning(monkeypatch, capsys, flagged):
    import dataclasses

    real = cli.fiberwise_reduce

    def flag_one(*args):
        reports = real(*args)
        if flagged is not None:
            reports[flagged] = dataclasses.replace(reports[flagged], ill_conditioned=True)
        return reports

    monkeypatch.setattr(cli, "fiberwise_reduce", flag_one)
    code, out, _ = run(capsys, "selftest", "--format", "json")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    row = checks["aff1 fiberwise reduction nondegenerate"]
    assert row["verdict"] == "pass"
    assert row["ill_conditioned"] is (flagged is not None)
    assert code == (0 if flagged is None else 3)


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


def test_toda_atiyah_fixture_omits_only_a_rational_recursion_operator(monkeypatch):
    assert "N" in cli._toda_document(2, "atiyah", "flaschka").endomorphisms
    assert not cli._toda_document(3, "atiyah", "flaschka").endomorphisms

    def broken(self):
        raise RuntimeError("not a division failure")

    monkeypatch.setattr(TodaFixture, "recursion_atiyah", broken)
    with pytest.raises(RuntimeError):
        cli._toda_document(2, "atiyah", "flaschka")


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
