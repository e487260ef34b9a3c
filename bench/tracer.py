"""Spans around calls into pnalgebroid, installed from outside the package.

`Tracer.install()` replaces each traced function with a wrapper that records
one span (name, start, end, parent) per call.  Module-level functions are
replaced under every name that binds them in every loaded `pnalgebroid`
module, because several modules import them by name (`cli` and `nijenhuis`
hold their own `is_poisson`, `specio` holds `parse` as `parse_expr`).
Methods are replaced on their class.  `uninstall()` puts every original back.

Spans live in flat arrays, about 24 bytes each: a `toda-verdict` pass makes
about 2.5 million of them, too many to keep as Python objects.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

# (module, attribute path, span name).  A span name is "<module>.<function>".
TARGETS = [
    ("expr", "Expr.__mul__", "expr.mul"),
    ("expr", "Expr.__add__", "expr.add"),
    ("expr", "Expr.__sub__", "expr.sub"),
    ("expr", "Expr.__rsub__", "expr.sub"),
    ("expr", "Expr.diff", "expr.diff"),
    ("expr", "Expr.substitute", "expr.substitute"),
    ("expr", "div_exact", "expr.div_exact"),
    ("expr", "Expr.evaluate", "expr.evaluate"),
    ("expr", "parse", "expr.parse"),
    ("expr", "Expr.__str__", "expr.str"),
    ("linalg", "det", "linalg.det"),
    ("linalg", "adjugate", "linalg.adjugate"),
    ("linalg", "row_echelon", "linalg.row_echelon"),
    ("linalg", "numeric_rank", "linalg.numeric_rank"),
    ("algebroid", "LieAlgebroid.anchor_apply", "algebroid.anchor_apply"),
    ("algebroid", "LieAlgebroid.bracket", "algebroid.bracket"),
    ("algebroid", "d_A", "algebroid.d_A"),
    ("algebroid", "lie_derivative", "algebroid.lie_derivative"),
    ("algebroid", "LieAlgebroid.check_algebroid", "algebroid.check_algebroid"),
    ("poisson", "is_poisson", "poisson.is_poisson"),
    ("poisson", "schouten_1r", "poisson.schouten_1r"),
    ("poisson", "koszul_bracket", "poisson.koszul_bracket"),
    ("nijenhuis", "torsion_check", "nijenhuis.torsion_check"),
    ("nijenhuis", "concomitant_check", "nijenhuis.concomitant_check"),
    ("nijenhuis", "Endo.push_bivector", "nijenhuis.push_bivector"),
    ("nijenhuis", "recursion_operator", "nijenhuis.recursion_operator"),
    ("nijenhuis", "hierarchy_check", "nijenhuis.hierarchy_check"),
    ("reduction", "riesz_at_point", "reduction.riesz_at_point"),
    ("reduction", "fiberwise_reduce", "reduction.fiberwise_reduce"),
    ("reduction", "condition_fb_check", "reduction.condition_fb_check"),
    ("reduction", "rewrite_basic", "reduction.rewrite_basic"),
    ("reduction", "symbolic_riesz_index", "reduction.symbolic_riesz_index"),
    ("lifts", "fb_generators", "lifts.fb_generators"),
    ("fixtures", "build_toda", "fixtures.build_toda"),
    ("specio", "parse_document", "specio.parse_document"),
    ("specio", "serialize_document", "specio.serialize_document"),
    ("cli", "resolve_input", "cli.resolve_input"),
]

# Expr operations whose result size is tracked as expr.terms.max.
SIZED = {"expr.mul", "expr.add"}

PACKAGE = "pnalgebroid"


def is_traced(obj) -> bool:
    """Whether `obj` is a wrapper made by Tracer.wrap."""
    return getattr(getattr(obj, "__code__", None), "co_name", None) == "traced"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.max_terms = [0]
        self._stack = [-1]

    def reset(self) -> None:
        """Drop the recorded spans.  The containers are cleared in place,
        because the installed wrappers hold them."""
        for a in (self.name, self.parent, self.start, self.end):
            del a[:]
        self._stack[:] = [-1]
        self.max_terms[0] = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """`fn` with a span around each call, parented to the open span."""
        nid = self._id(name)
        spans, end, stack = self.name, self.end, self._stack
        add_name, add_parent = spans.append, self.parent.append
        add_start, add_end = self.start.append, end.append
        push, pop = stack.append, stack.pop
        clock = time.perf_counter_ns
        max_terms = self.max_terms

        if name in SIZED:
            def traced(*args, **kwargs):
                idx = len(spans)
                add_name(nid)
                add_parent(stack[-1])
                add_end(0)
                push(idx)
                add_start(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    pop()
                if len(result.terms) > max_terms[0]:
                    max_terms[0] = len(result.terms)
                return result
        else:
            def traced(*args, **kwargs):
                idx = len(spans)
                add_name(nid)
                add_parent(stack[-1])
                add_end(0)
                push(idx)
                add_start(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def call(self, name: str, fn):
        """Call `fn` inside a span of its own, such as one whole operation."""
        return self.wrap(fn, name)()

    # -- installing ---------------------------------------------------------

    def _replace(self, owner, key: str, new) -> None:
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, new)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        from pnalgebroid import cli

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self.wrap(original, name)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(holder, key, wrapper)
        for command, fn in list(cli.COMMANDS.items()):
            self._restore.append((cli.COMMANDS, command, fn))
            cli.COMMANDS[command] = self.wrap(fn, f"cli.{command}")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    # -- reading ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time and total time in seconds.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        self_ns = np.bincount(a["name"], weights=dur - child, minlength=k)
        total_ns = np.bincount(a["name"], weights=dur, minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_ns[i]) / 1e9,
                   "total_s": float(total_ns[i]) / 1e9}
            for i, name in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        """Write the recorded spans as a numpy archive."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
