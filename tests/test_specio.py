"""Spec-file parsing, canonical serialization and error reporting."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from pnalgebroid.specio import (
    SpecDocument, SpecFileError, parse_document, serialize_document,
)
from pnalgebroid.fixtures import build_toda, build_aff1

MINIMAL = """
{
  "base_vars": ["x", "y"],
  "frame": ["e1", "e2"],
  "anchor": [["1", "0"], ["0", "1"]],
  "bivectors": {"P": {"(e1,e2)": "x"}}
}
"""


def test_parse_minimal_document():
    doc = parse_document(MINIMAL)
    assert doc.algebroid.rank == 2
    assert "P" in doc.bivectors
    assert str(doc.bivectors["P"].mat[0][1]) == "x"


def test_omitted_structure_means_zero():
    doc = parse_document(MINIMAL)
    A = doc.algebroid
    for a in range(A.rank):
        for b in range(A.rank):
            for g in range(A.rank):
                assert A.structure[a][b][g].is_zero()


def test_reversed_structure_key_is_antisymmetrized():
    text = json.dumps({
        "base_vars": ["x"],
        "frame": ["e1", "e2"],
        "anchor": [["1"], ["0"]],
        "structure": {"(e2,e1)": {"e2": "x"}},
    })
    A = parse_document(text).algebroid
    assert (A.structure[0][1][1] + A.structure[1][0][1]).is_zero()
    assert str(A.structure[1][0][1]) == "x"


@pytest.mark.parametrize("fixture_doc", ["canonical", "flaschka", "atiyah", "aff1"])
def test_bit_exact_roundtrip(fixture_doc):
    if fixture_doc == "aff1":
        a = build_aff1()
        doc = SpecDocument(a.algebroid, bivectors={"P": a.P},
                           endomorphisms={"N": a.N})
    else:
        t = build_toda(2)
        if fixture_doc == "canonical":
            doc = SpecDocument(t.tangent,
                               bivectors={"lam0": t.lam0, "lam1": t.lam1},
                               endomorphisms={"N": t.N},
                               epimorphism=t.epi_flaschka)
        elif fixture_doc == "flaschka":
            doc = SpecDocument(t.flaschka,
                               bivectors={"lam0": t.lam0_bar, "lam1": t.lam1_bar})
        else:
            doc = SpecDocument(t.atiyah,
                               bivectors={"pi0": t.pi0, "pi1": t.pi1},
                               endomorphisms={"N": t.recursion_atiyah().exact()})
    text = serialize_document(doc)
    again = serialize_document(parse_document(text))
    assert text == again


def test_roundtrip_preserves_epimorphism():
    t = build_toda(2)
    doc = SpecDocument(t.tangent, epimorphism=t.epi_flaschka)
    doc2 = parse_document(serialize_document(doc))
    epi = doc2.epimorphism
    assert epi is not None
    assert epi.name == "flaschka"
    assert epi.target == t.flaschka
    for v, e in t.epi_flaschka.base_map.items():
        assert (epi.base_map[v] - e).is_zero()


@pytest.mark.parametrize("mangle,fragment", [
    (lambda o: o.pop("anchor"), "anchor"),
    (lambda o: o.__setitem__("anchor", [["1", "0"]]), "row"),
    (lambda o: o["bivectors"]["P"].__setitem__("(e1,e9)", "1"), "unknown frame"),
    (lambda o: o["bivectors"]["P"].__setitem__("(e1,e2)", "x +"), "(e1,e2)"),
    (lambda o: o.__setitem__("frame", 5), "algebroid.frame: expected an array"),
    (lambda o: o.__setitem__("frame", ["e1", 2]), "algebroid.frame: expected a string"),
    (lambda o: o.__setitem__("structure", []), "algebroid.structure: expected an object"),
    (lambda o: o.__setitem__("bivectors", []), "bivectors: expected an object"),
    (lambda o: o.__setitem__("endomorphisms", {"N": 5}), "endomorphisms[N]: expected a 2x2"),
])
def test_malformed_documents_are_rejected(mangle, fragment):
    obj = json.loads(MINIMAL)
    mangle(obj)
    with pytest.raises(SpecFileError) as exc:
        parse_document(json.dumps(obj))
    assert fragment in str(exc.value)


def test_invalid_json_is_a_spec_error():
    with pytest.raises(SpecFileError):
        parse_document("{not json")


# every field of the format, each with a well-formed value
FULL = {
    "base_vars": ["x", "y"],
    "frame": ["e1", "e2"],
    "anchor": [["1", "0"], ["0", "x"]],
    "structure": {"(e1,e2)": {"e2": "1"}},
    "bivectors": {"P": {"(e1,e2)": "x"}},
    "endomorphisms": {"N": [["1", "0"], ["0", "2"]]},
    "epimorphism": {
        "name": "proj",
        "target": {"base_vars": ["u"], "frame": ["f"], "anchor": [["1"]]},
        "base_map": {"u": "x"},
        "fiber_map": [["1", "0"]],
    },
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _paths(value, prefix=()):
    """The key path of every value nested in a JSON document."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, inner in items:
        yield prefix + (key,)
        if isinstance(inner, (dict, list)):
            yield from _paths(inner, prefix + (key,))


def _document_or_spec_error(obj):
    try:
        doc = parse_document(json.dumps(obj))
    except SpecFileError:
        return
    assert isinstance(doc, SpecDocument)


@settings(max_examples=150, deadline=None)
@given(json_values)
def test_any_json_value_is_a_document_or_a_spec_error(value):
    _document_or_spec_error(value)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(_paths(FULL))), json_values)
def test_any_field_replaced_is_a_document_or_a_spec_error(path, value):
    obj = json.loads(json.dumps(FULL))
    owner = obj
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    _document_or_spec_error(obj)


def test_full_document_parses_and_ignores_basic_substitutions():
    full = parse_document(json.dumps(FULL))
    assert full.epimorphism.name == "proj" and set(full.endomorphisms) == {"N"}
    obj = json.loads(json.dumps(FULL))
    obj["epimorphism"]["basic_substitutions"] = {"u": "x"}
    assert serialize_document(parse_document(json.dumps(obj))) == serialize_document(full)
