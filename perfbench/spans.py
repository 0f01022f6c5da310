"""Spans recorded from the benchmark's own code around calls into hems.

A span is [name, start, end, parent index, household id, attrs]. Spans stay
in memory and are written out once, when the run ends. The split between
branch-and-bound and simplex comes from rebinding two names inside
`hems.milp.branch_bound` to timing wrappers for the traced passes only; if
those names disappear, the metrics that depend on them are reported as
missing and everything else still runs.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter

import hems.milp.branch_bound as branch_bound

_NULL = nullcontext()

# Names inside hems.milp.branch_bound that the wrappers replace, and the
# metrics that cannot be measured without each of them.
WRAPPED = {
    "CompiledLP": ("simplex.compile_s", "bb.self_s"),
    "solve_compiled": (
        "simplex.lp_calls",
        "simplex.iterations",
        "simplex.iters_per_lp",
        "simplex.busy_s",
        "simplex.us_per_iter",
        "bb.lps_per_node",
        "bb.self_s",
    ),
}


def no_span(name: str):
    """Span factory for untraced passes: records nothing."""
    return _NULL


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> dict:
        t = self.tracer
        parent = t.stack[-1] if t.stack else None
        attrs: dict = {}
        t.spans.append([self.name, perf_counter(), 0.0, parent, t.household, attrs])
        self.index = len(t.spans) - 1
        t.stack.append(self.index)
        return attrs

    def __exit__(self, *exc) -> bool:
        self.tracer.spans[self.index][2] = perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.household: str | None = None
        self.missing = sorted({m for name in WRAPPED if not hasattr(branch_bound, name)
                               for m in WRAPPED[name]})
        self._originals = {name: getattr(branch_bound, name) for name in WRAPPED
                           if hasattr(branch_bound, name)}

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def install(self) -> None:
        """Rebind the wrapped names to timing wrappers."""
        if "CompiledLP" in self._originals:
            compiled_lp = self._originals["CompiledLP"]

            def timed_compile(model):
                with self.span("simplex.compile"):
                    return compiled_lp(model)

            branch_bound.CompiledLP = timed_compile
        if "solve_compiled" in self._originals:
            solve_compiled = self._originals["solve_compiled"]

            def timed_solve(*args, **kwargs):
                with self.span("simplex.solve") as attrs:
                    res = solve_compiled(*args, **kwargs)
                    attrs["iterations"] = res.iterations
                return res

            branch_bound.solve_compiled = timed_solve

    def uninstall(self) -> None:
        for name, original in self._originals.items():
            setattr(branch_bound, name, original)

    def totals(self) -> dict:
        """Per-name sums of span time, children time and LP iterations."""
        seconds: dict[str, float] = defaultdict(float)
        child_seconds: dict[str, float] = defaultdict(float)
        count: dict[str, int] = defaultdict(int)
        iterations = 0
        for name, start, end, parent, _, attrs in self.spans:
            seconds[name] += end - start
            count[name] += 1
            iterations += attrs.get("iterations", 0)
            if parent is not None:
                p = self.spans[parent]
                child_seconds[p[0]] += end - start
        return {"seconds": seconds, "children": child_seconds, "count": count,
                "iterations": iterations}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, hid, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "household": hid, **attrs}) + "\n")
