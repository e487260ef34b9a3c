"""The demos print what they printed when their golden files were written.

Each script in ``demos/`` runs in-process, in a temporary working
directory, and its stdout must equal ``tests/golden/<script>.txt`` byte for
byte.  A change that alters a demo's output on purpose rewrites its golden
file and says why."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_every_demo_has_a_golden_file():
    assert DEMOS
    assert sorted(p.stem for p in DEMOS) == sorted(p.stem for p in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_its_golden_output(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / f"{demo.stem}.txt").read_text()
