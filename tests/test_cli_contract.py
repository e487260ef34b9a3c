"""The CLI exit-code contract on generated inputs: every command that takes a
spec, run in-process on fixture specs with one to three entries replaced by
sums of small polynomial and exponential terms (overflow-sized ones such as
x^50 and exp(700*x) included), exits 0-3 without an escaping exception, and
its exit code agrees with its JSON report."""

import contextlib
import io
import json
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from pnalgebroid import cli
from pnalgebroid.specio import serialize_document

COMMANDS = [
    ["check-algebroid"],
    ["check-poisson"],
    ["check-pn"],
    ["check-sn"],
    ["hierarchy", "--depth", "2"],
    ["recursion"],
    ["project"],
    ["restrict-leaf", "--bivector", "{P}"],
    ["riesz", "--points", "5", "--seed", "1"],
    ["reduce-fiberwise", "--points", "5", "--seed", "1", "--bivector", "{P}"],
]


# toda:2 with either epimorphism, the toda:2 atiyah block, and aff1
BASES = [json.loads(serialize_document(doc)) for doc in (
    cli._toda_document(2, "canonical", "flaschka"),
    cli._toda_document(2, "canonical", "atiyah"),
    cli._toda_document(2, "atiyah", "flaschka"),
    cli.resolve_input("aff1")[0],
)]


@st.composite
def expressions(draw, variables):
    """A sum of one to three terms, each a small monomial (exponent 50
    among the choices) or an exponential of one variable (rate 700 among
    the choices)."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coeff = draw(st.sampled_from(["1", "-1", "2", "-3", "1/2"]))
        if draw(st.booleans()):
            factors = [f"{v}^{draw(st.sampled_from([1, 2, 3, 50]))}"
                       for v in draw(st.lists(st.sampled_from(variables), max_size=2))]
        else:
            rate = draw(st.sampled_from(["1", "-1", "2", "700"]))
            factors = [f"exp({rate}*{draw(st.sampled_from(variables))})"]
        terms.append("*".join([coeff, *factors]))
    return " + ".join(terms)


@st.composite
def documents(draw):
    """A base spec with one to three of its bivector, endomorphism or fiber
    map entries replaced by generated expressions."""
    obj = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    frame, variables = obj["frame"], obj["base_vars"]
    spots = ["bivector", "endomorphism"] + (["fiber map"] if "epimorphism" in obj else [])
    for _ in range(draw(st.integers(1, 3))):
        spot = draw(st.sampled_from(spots))
        entry = draw(expressions(variables))
        if spot == "bivector":
            name = draw(st.sampled_from(sorted(obj["bivectors"])))
            i, j = sorted(draw(st.lists(st.integers(0, len(frame) - 1), min_size=2,
                                        max_size=2, unique=True)))
            obj["bivectors"][name][f"({frame[i]},{frame[j]})"] = entry
        else:
            rows = (obj["endomorphisms"]["N"] if spot == "endomorphism"
                    else obj["epimorphism"]["fiber_map"])
            row = draw(st.sampled_from(rows))
            row[draw(st.integers(0, len(row) - 1))] = entry
    return obj


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=timedelta(seconds=10), derandomize=True,
          database=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_every_command_keeps_the_exit_code_contract(obj):
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(json.dumps(obj))
        # the first bivector, where a command needs one named
        first = min(obj["bivectors"])
        for command in COMMANDS:
            argv = [command[0], str(spec), *(a.format(P=first) for a in command[1:]),
                    "--format", "json"]
            code, out, err = _run(argv)
            assert code in (0, 1, 2, 3), (argv, code)
            if code == 2:
                assert out == "" and err.startswith("error: "), (argv, err)
                continue
            checks = json.loads(out)["checks"]
            failed = [c for c in checks if c["verdict"] == "fail"]
            if code == 1:
                assert failed and all(c["witness"] for c in failed), (argv, checks)
            else:
                assert not failed, (argv, checks)
                assert any(c["ill_conditioned"] for c in checks) == (code == 3), (argv, checks)
