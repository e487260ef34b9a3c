"""Reading and writing algebroid spec files (JSON syntax).

A document holds one algebroid plus optional named bivectors, endomorphisms
and an epimorphism block.  Omitted anchor/structure entries mean zero.
Serialization is canonical, so parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from .expr import Expr, parse as parse_expr, ExprSyntaxError, ZERO
from .algebroid import LieAlgebroid
from .poisson import Bivector
from .nijenhuis import Endo
from .reduction import EpimorphismSpec


class SpecFileError(Exception):
    """Malformed spec file (bad JSON, unknown names, bad shapes)."""


@dataclass
class SpecDocument:
    algebroid: LieAlgebroid
    bivectors: dict[str, Bivector] = field(default_factory=dict)
    endomorphisms: dict[str, Endo] = field(default_factory=dict)
    epimorphism: Optional[EpimorphismSpec] = None


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", type(None): "null"}


def _expect(value: Any, kind: type, where: str) -> Any:
    """``value`` when it is of the JSON kind ``kind`` (dict, list or str)."""
    if not isinstance(value, kind):
        raise SpecFileError(
            f"{where}: expected {_JSON_KINDS[kind]}, got {_JSON_KINDS[type(value)]}"
        )
    return value


def _names(value: Any, where: str) -> list[str]:
    return [_expect(v, str, where) for v in _expect(value, list, where)]


def _matrix(value: Any, rows: int, cols: int, where: str) -> list[list[Expr]]:
    """A rows x cols array of expression strings."""
    if not isinstance(value, list) or len(value) != rows or any(
        not isinstance(row, list) or len(row) != cols for row in value
    ):
        raise SpecFileError(f"{where}: expected a {rows}x{cols} matrix")
    return [[_expr(e, f"{where}[{i}]") for e in row] for i, row in enumerate(value)]


def _expr(text: Any, where: str) -> Expr:
    if not isinstance(text, str):
        raise SpecFileError(f"{where}: expected an expression string, got {text!r}")
    try:
        return parse_expr(text)
    except ExprSyntaxError as e:
        raise SpecFileError(f"{where}: {e}") from e


def _pair_key(key: str, names: list[str], where: str) -> tuple[int, int]:
    s = key.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise SpecFileError(f"{where}: key {key!r} is not of the form '(a,b)'")
    parts = [p.strip() for p in s[1:-1].split(",")]
    if len(parts) != 2:
        raise SpecFileError(f"{where}: key {key!r} is not of the form '(a,b)'")
    try:
        i, j = names.index(parts[0]), names.index(parts[1])
    except ValueError:
        raise SpecFileError(f"{where}: key {key!r} names an unknown frame element")
    if i == j:
        raise SpecFileError(f"{where}: key {key!r} repeats a frame element")
    return i, j


def _algebroid_from_obj(obj: Any, where: str = "algebroid") -> LieAlgebroid:
    _expect(obj, dict, where)
    for req in ("base_vars", "frame", "anchor"):
        if req not in obj:
            raise SpecFileError(f"{where}: missing required field {req!r}")
    base_vars = _names(obj["base_vars"], f"{where}.base_vars")
    frame = _names(obj["frame"], f"{where}.frame")
    anchor_rows = _expect(obj["anchor"], list, f"{where}.anchor")
    if len(anchor_rows) != len(frame):
        raise SpecFileError(f"{where}: anchor must have one row per frame element")
    anchor = []
    for a, row in enumerate(anchor_rows):
        if len(_expect(row, list, f"{where}.anchor[{a}]")) != len(base_vars):
            raise SpecFileError(f"{where}: anchor row {a} has wrong length")
        anchor.append([_expr(e, f"{where}.anchor[{a}]") for e in row])
    structure: dict[tuple[int, int], dict[int, Expr]] = {}
    for key, row in _expect(obj.get("structure", {}), dict, f"{where}.structure").items():
        i, j = _pair_key(key, frame, f"{where}.structure")
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        out: dict[int, Expr] = dict(structure.get((i, j), {}))
        for gname, etext in _expect(row, dict, f"{where}.structure[{key}]").items():
            try:
                g = frame.index(gname)
            except ValueError:
                raise SpecFileError(
                    f"{where}.structure[{key}]: unknown frame element {gname!r}"
                )
            e = _expr(etext, f"{where}.structure[{key}]")
            out[g] = out.get(g, ZERO) + (e if sign > 0 else -e)
        structure[(i, j)] = out
    try:
        return LieAlgebroid.from_tables(base_vars, frame, anchor, structure)
    except (ValueError, TypeError) as e:
        raise SpecFileError(f"{where}: {e}") from e


def parse_document(text: str) -> SpecDocument:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecFileError(f"invalid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise SpecFileError("top level of a spec file must be a JSON object")
    A = _algebroid_from_obj(obj)
    doc = SpecDocument(A)
    for name, entries in _expect(obj.get("bivectors", {}), dict, "bivectors").items():
        mat_entries: dict[tuple[int, int], Expr] = {}
        for key, etext in _expect(entries, dict, f"bivectors[{name}]").items():
            i, j = _pair_key(key, list(A.frame), f"bivectors[{name}]")
            mat_entries[(i, j)] = _expr(etext, f"bivectors[{name}][{key}]")
        try:
            doc.bivectors[name] = Bivector.from_entries(A, mat_entries)
        except ValueError as e:
            raise SpecFileError(f"bivectors[{name}]: {e}") from e
    for name, rows in _expect(obj.get("endomorphisms", {}), dict, "endomorphisms").items():
        mat = _matrix(rows, A.rank, A.rank, f"endomorphisms[{name}]")
        doc.endomorphisms[name] = Endo.from_matrix(A, mat)
    if "epimorphism" in obj:
        epi = obj["epimorphism"]
        if not isinstance(epi, dict) or "target" not in epi:
            raise SpecFileError("epimorphism: missing 'target' block")
        target = _algebroid_from_obj(epi["target"], "epimorphism.target")
        base_map = {
            v: _expr(e, f"epimorphism.base_map[{v}]")
            for v, e in _expect(epi.get("base_map", {}), dict, "epimorphism.base_map").items()
        }
        if set(base_map) != set(target.base_vars):
            raise SpecFileError(
                "epimorphism.base_map: must give one expression per target base variable"
            )
        fiber_map = _matrix(
            epi.get("fiber_map", []), target.rank, A.rank, "epimorphism.fiber_map"
        )
        name = _expect(epi.get("name", "epimorphism"), str, "epimorphism.name")
        doc.epimorphism = EpimorphismSpec(name, A, target, base_map, fiber_map)
    return doc


def _algebroid_obj(A: LieAlgebroid) -> dict:
    obj: dict = {
        "base_vars": list(A.base_vars),
        "frame": list(A.frame),
        "anchor": [[str(e) for e in row] for row in A.anchor],
    }
    structure: dict[str, dict[str, str]] = {}
    for a in range(A.rank):
        for b in range(a + 1, A.rank):
            row = {
                A.frame[g]: str(A.structure[a][b][g])
                for g in range(A.rank)
                if not A.structure[a][b][g].is_zero()
            }
            if row:
                structure[f"({A.frame[a]},{A.frame[b]})"] = row
    if structure:
        obj["structure"] = structure
    return obj


def serialize_document(doc: SpecDocument) -> str:
    A = doc.algebroid
    obj = _algebroid_obj(A)
    if doc.bivectors:
        obj["bivectors"] = {
            name: {
                f"({A.frame[i]},{A.frame[j]})": str(P.mat[i][j])
                for i in range(A.rank)
                for j in range(i + 1, A.rank)
                if not P.mat[i][j].is_zero()
            }
            for name, P in doc.bivectors.items()
        }
    if doc.endomorphisms:
        obj["endomorphisms"] = {
            name: [[str(e) for e in row] for row in N.mat]
            for name, N in doc.endomorphisms.items()
        }
    if doc.epimorphism is not None:
        epi = doc.epimorphism
        obj["epimorphism"] = {
            "name": epi.name,
            "target": _algebroid_obj(epi.target),
            "base_map": {v: str(epi.base_map[v]) for v in epi.target.base_vars},
            "fiber_map": [[str(e) for e in row] for row in epi.fiber_map],
        }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_document(path: str) -> SpecDocument:
    try:
        with open(path) as fh:
            return parse_document(fh.read())
    except OSError as e:
        raise SpecFileError(f"cannot read {path}: {e}") from e
