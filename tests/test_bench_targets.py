"""The benchmark's tracer finds every function it wraps.

`bench/tracer.py` lists the functions it traces in `TARGETS` and looks each
one up through `__dict__` when it installs, so renaming or deleting one of
them breaks `bench/run.py --trace 1`.  This test makes that lookup without
installing anything."""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracer")


def test_every_trace_target_resolves(tracer):
    for module_name, path, _ in tracer.TARGETS:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        assert attr in owner.__dict__, f"{module_name}.{path} is gone"
        assert callable(owner.__dict__[attr])


def test_bindings_the_bench_selfcheck_reads():
    import pnalgebroid
    from pnalgebroid import cli, nijenhuis, poisson, specio

    assert cli.is_poisson is poisson.is_poisson
    assert nijenhuis.is_poisson is poisson.is_poisson
    assert pnalgebroid.is_poisson is poisson.is_poisson
    assert callable(specio.parse_expr)
