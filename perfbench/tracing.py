"""Per-layer tracing from outside the program.

The traced pass replaces public names of the treecount layers with thin
wrappers that record one span (name, start, end, parent) per call.  A name
is replaced in every treecount module that bound it, so a call through
``treecount.counting.remove_vertices`` is seen as well as one through
``treecount.trees.remove_vertices``.  Spans stay in memory until the job
ends; the layer metrics and self times are then computed from them.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable

# (layer module, public function name).  Generators get a span per step.
FUNCTIONS = (
    ("trees", "enumerate_free_trees"),
    ("trees", "canonical_key"),
    ("trees", "remove_vertices"),
    ("coloring", "canonical_coloring"),
    ("counting", "count_polynomial"),
    ("counting", "census"),
    ("fqoracle", "count_points"),
    ("groupoid", "genericity_check"),
    ("matchings", "maximum_matching"),
)
# (layer module, class, methods, span name)
METHODS = (
    ("trees", "Tree", ("__init__",), "trees.Tree"),
    ("polynomials", "Poly", ("__mul__", "__rmul__"), "polynomials.mul"),
    ("polynomials", "Poly", ("__add__", "__radd__"), "polynomials.add"),
)
COUNTING_SPANS = ("counting.count_polynomial", "counting.census")
ENUMERATE = "trees.enumerate_free_trees"


class Tracer:
    """Span recorder plus the wrappers it installs; single-threaded."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []
        self._stack: list[int] = []
        self._name_ids: dict[str, int] = {}
        self._restore: list[tuple[Any, str, Any]] = []
        self.yields = 0
        self.memo_lookups = 0
        self.memo_keys: set[bytes] = set()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, name_id: int, f: Callable, args: tuple, kwargs: dict) -> Any:
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append((name_id, 0.0, 0.0, stack[-1] if stack else -1))
        stack.append(idx)
        start = time.perf_counter()
        try:
            return f(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (name_id, start, end, spans[idx][3])

    def _wrap(self, name: str, f: Callable) -> Callable:
        name_id = self._name_id(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            return self._span(name_id, f, args, kwargs)

        return traced

    def _wrap_memo_key(self, name: str, f: Callable) -> Callable:
        """canonical_key as the counting layer calls it: one memo lookup."""
        name_id = self._name_id(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            key = self._span(name_id, f, args, kwargs)
            self.memo_lookups += 1
            self.memo_keys.add(key)
            return key

        return traced

    def _wrap_iterator(self, name: str, f: Callable) -> Callable:
        name_id = self._name_id(name)

        def steps(it: Any) -> Any:
            while True:
                try:
                    item = self._span(name_id, next, (it,), {})
                except StopIteration:
                    return
                self.yields += 1
                yield item

        def traced(*args: Any, **kwargs: Any) -> Any:
            return steps(iter(self._span(name_id, f, args, kwargs)))

        return traced

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "treecount"]
        for layer, fname in FUNCTIONS:
            original = getattr(sys.modules.get(f"treecount.{layer}"), fname, None)
            if original is None:
                continue
            span = f"{layer}.{fname}"
            for mod in modules:
                if mod.__dict__.get(fname) is not original:
                    continue
                if fname == "enumerate_free_trees":
                    wrapper = self._wrap_iterator(span, original)
                elif fname == "canonical_key" and mod.__name__ == "treecount.counting":
                    wrapper = self._wrap_memo_key(span, original)
                else:
                    wrapper = self._wrap(span, original)
                self._patch(mod, fname, wrapper)
        for layer, cls_name, methods, span in METHODS:
            cls = getattr(sys.modules.get(f"treecount.{layer}"), cls_name, None)
            for meth in methods:
                if cls is not None and meth in cls.__dict__:
                    self._patch(cls, meth, self._wrap(span, cls.__dict__[meth]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus that of its direct children.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i, (name_id, start, end, _) in enumerate(self.spans):
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def enumeration_key_calls(self) -> int:
        """canonical_key spans that ran inside free-tree enumeration."""
        if ENUMERATE not in self._name_ids or "trees.canonical_key" not in self._name_ids:
            return 0
        enum_id = self._name_ids[ENUMERATE]
        key_id = self._name_ids["trees.canonical_key"]
        calls = 0
        for name_id, _, _, parent in self.spans:
            if name_id != key_id:
                continue
            while parent >= 0 and self.spans[parent][0] != enum_id:
                parent = self.spans[parent][3]
            calls += parent >= 0
        return calls

    def raw_layers(self) -> dict[str, float]:
        """Additive per-pass numbers; ratios are formed after summing."""
        s = self.summary()

        def get(name: str, field: str) -> float:
            return s.get(name, {}).get(field, 0)

        return {
            "trees.enumerate_free_trees_s": get(ENUMERATE, "total_s"),
            "trees.yields": self.yields,
            "trees.enumeration_key_calls": self.enumeration_key_calls(),
            "trees.canonical_key_s": get("trees.canonical_key", "total_s"),
            "trees.canonical_key_calls": get("trees.canonical_key", "calls"),
            "trees.remove_vertices_s": get("trees.remove_vertices", "total_s"),
            "trees.remove_vertices_calls": get("trees.remove_vertices", "calls"),
            "trees.tree_builds": get("trees.Tree", "calls"),
            "coloring.canonical_coloring_s": get("coloring.canonical_coloring", "total_s"),
            "coloring.canonical_coloring_calls": get("coloring.canonical_coloring", "calls"),
            "counting.self_s": sum(get(n, "self_s") for n in COUNTING_SPANS),
            "counting.memo_states": len(self.memo_keys),
            "counting.memo_lookups": self.memo_lookups,
            "polynomials.mul_s": get("polynomials.mul", "total_s"),
            "polynomials.mul_calls": get("polynomials.mul", "calls"),
            "polynomials.add_s": get("polynomials.add", "total_s"),
            "fqoracle.count_points_s": get("fqoracle.count_points", "total_s"),
            "fqoracle.count_points_calls": get("fqoracle.count_points", "calls"),
            "groupoid.genericity_check_s": get("groupoid.genericity_check", "total_s"),
            "groupoid.genericity_check_calls": get("groupoid.genericity_check", "calls"),
            "matchings.maximum_matching_s": get("matchings.maximum_matching", "total_s"),
        }

    def span_rows(self) -> list[list]:
        """Every span as [name, start, end, parent index]."""
        return [[self.names[n], round(a, 9), round(b, 9), p] for n, a, b, p in self.spans]
