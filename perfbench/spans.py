"""Spans around the calls each `defsets` module makes into another.

The tracer replaces, in every module's namespace, the names that module
imported from another `defsets` module (for example
`defsets.satdefs.count_extensions` or `defsets.cli.min_defining_set`), so a
span marks each layer boundary with its caller.  Calls a module makes to its
own functions are not wrapped.  `defsets.cnf.evaluate` is only counted, also
inside `cnf`: it runs once per search node, too often for a span each.

Spans stay in memory as tuples and are written out when the run ends.
"""

from __future__ import annotations

import gzip
import itertools
import threading
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from workloads import VERIFY_NAMES

MODULES = ("cli", "cnf", "graphs", "satdefs", "colordefs", "satreduce",
           "colorreduce", "oracle")

# (defining module, function) -> metric group of that layer
WRAPPED: Dict[Tuple[str, str], str] = {
    ("cnf", "parse_cnf"): "parse",
    ("cnf", "parse_assignment"): "parse",
    ("cnf", "count_extensions"): "query",
    ("cnf", "enumerate_proper"): "query",
    ("graphs", "parse_graph"): "parse",
    ("graphs", "parse_coloring"): "parse",
    ("graphs", "count_colorings"): "query",
    ("graphs", "enumerate_colorings"): "query",
    ("graphs", "chromatic_number"): "chi",
    ("satdefs", "min_defining_set"): "min",
    ("satdefs", "min_defining_set_family"): "family",
    ("satdefs", "is_defining_set"): "decide",
    ("satdefs", "has_defining_set_within"): "decide",
    ("satdefs", "family_has_defining_set_within"): "decide",
    ("satdefs", "exists_forall_check"): "decide",
    ("satdefs", "exists_uniqueexists_check"): "decide",
    ("colordefs", "min_defining_coloring_set"): "min",
    ("colordefs", "min_defining_coloring_family"): "family",
    ("colordefs", "is_defining_coloring_set"): "decide",
    ("colordefs", "has_defining_coloring_within"): "decide",
    ("colordefs", "family_has_defining_coloring_within"): "decide",
    ("colordefs", "forced_defining_vertices"): "decide",
    ("colordefs", "min_defining_coloring_set_forced"): "decide",
    ("satreduce", "construct_mu"): "build",
    ("satreduce", "split_to_3cnf"): "build",
    ("satreduce", "reduce_unique_to_q2"): "build",
    ("satreduce", "q2_artifact"): "build",
    ("satreduce", "reduce_q2_to_q3"): "build",
    ("colorreduce", "build_g_phi"): "build",
    ("colorreduce", "build_h"): "build",
    ("colorreduce", "synthesize_clause_gadget"): "build",
    ("colorreduce", "verify_clause_gadget"): "build",
    ("oracle", "verify_reduction"): "verify",
}

# name, unit; every name is reported on every workload (zero where unused)
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("cli.self_s", "s/round"), ("cli.hint_s", "s/round"),
    ("cnf.parse_s", "s/round"), ("cnf.queries", "count/round"),
    ("cnf.query_s", "s/round"), ("cnf.models", "count/round"),
    ("cnf.evaluate.calls", "count/round"),
    ("satdefs.min_s", "s/round"), ("satdefs.family_s", "s/round"),
    ("satdefs.decide_s", "s/round"), ("satdefs.queries", "count/round"),
    ("satdefs.useful_ratio", "ratio"),
    ("satreduce.builds", "count/round"), ("satreduce.build_s", "s/round"),
    ("graphs.parse_s", "s/round"), ("graphs.chi.calls", "count/round"),
    ("graphs.chi_s", "s/round"), ("graphs.queries", "count/round"),
    ("graphs.query_s", "s/round"), ("graphs.colorings", "count/round"),
    ("colordefs.min_s", "s/round"), ("colordefs.family_s", "s/round"),
    ("colordefs.decide_s", "s/round"), ("colordefs.queries", "count/round"),
    ("colordefs.useful_ratio", "ratio"),
    ("colorreduce.builds", "count/round"), ("colorreduce.build_s", "s/round"),
    *((f"oracle.verify.{v}_s", "s/round") for v in VERIFY_NAMES),
    ("oracle.self_s", "s/round"),
)

# span tuple fields
ID, NAME, CALLER, START, END, PARENT, CMD, COUNT, LIMIT = range(9)


class Tracer:
    """Records spans (id, name, caller, start, end, parent, command id,
    result count, limit argument) for the calls it wraps."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._main_stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: List[tuple] = []
        self.command = -1
        self._ids = itertools.count(1)
        # next() on itertools.count is atomic under the GIL; `n += 1` from
        # the --jobs worker threads would lose updates
        self._evaluations = itertools.count()

    def evaluate_calls(self) -> int:
        return next(self._evaluations)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is \
                threading.main_thread() else []
            self._local.stack = stack
        return stack

    def wrap(self, fn: Callable, name: str, caller: str) -> Callable:
        tracer = self
        by_arg = name == "oracle.verify_reduction"

        def traced(*args, **kwargs):
            stack = tracer._stack()
            # a worker thread's first span belongs to the span its pool runs in
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else 0)
            sid = next(tracer._ids)
            stack.append(sid)
            count = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                count = result if isinstance(result, int) else (
                    len(result) if isinstance(result, list) else None)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                limit = kwargs.get("limit", args[2] if len(args) > 2 else None)
                tracer.spans.append((
                    sid, f"oracle.verify.{args[0]}" if by_arg else name,
                    caller, start, end, parent, tracer.command, count,
                    limit if isinstance(limit, int) else None))

        return traced

    def install(self, package) -> None:
        """Wrap every cross-module import in the `defsets` package."""
        modules = {m: getattr(package, m) for m in MODULES}
        for caller, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                home = getattr(value, "__module__", "") or ""
                key = (home.rpartition(".")[2], getattr(value, "__name__", ""))
                if key in WRAPPED and key[0] != caller and \
                        home.startswith(package.__name__ + "."):
                    self._patch(mod, attr, self.wrap(value, f"{key[0]}.{key[1]}",
                                                     caller))
        evaluate = modules["cnf"].evaluate
        counter = self

        def counted(*args, **kwargs):
            next(counter._evaluations)
            return evaluate(*args, **kwargs)

        for mod in modules.values():
            if vars(mod).get("evaluate") is evaluate:
                self._patch(mod, "evaluate", counted)

    def _patch(self, mod, attr: str, value) -> None:
        self._restore.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as out:
            out.write("id,name,caller,start,end,parent,command,count,limit\n")
            for s in self.spans:
                out.write(",".join("" if x is None else str(x) for x in s) + "\n")


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_metrics(spans: List[tuple], evaluate_calls: int,
                  rounds: int) -> Dict[str, float]:
    """Per-round layer totals, self times and useful-query ratios."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = {name: 0.0 for name, _ in LAYER_METRICS}
    useful = {"satdefs": 0, "colordefs": 0}

    def add(key: str, value: float) -> None:
        out[key] += value

    for s in spans:
        name, caller = s[NAME], s[CALLER]
        dur = s[END] - s[START]
        layer, _, fn = name.partition(".")
        group = WRAPPED.get((layer, fn))
        if name == "cli.main" or layer == "oracle":
            inside = [(max(a, s[START]), min(b, s[END]))
                      for a, b in children.get(s[ID], ())]
            add(f"{layer}.self_s", dur - _union_length(inside))
            if layer == "oracle":
                add(f"{name}_s", dur)
            continue
        if group == "query":
            unit = "models" if layer == "cnf" else "colorings"
            add(f"{layer}.queries", 1)
            add(f"{layer}.query_s", dur)
            add(f"{layer}.{unit}", s[COUNT] or 0)
            if caller == "cli" and layer == "cnf":
                add("cli.hint_s", dur)
            if caller in useful:
                add(f"{caller}.queries", 1)
                useful[caller] += s[LIMIT] == 2 and s[COUNT] == 1
        elif group == "parse":
            add(f"{layer}.parse_s", dur)
        elif group == "chi":
            add("graphs.chi.calls", 1)
            add("graphs.chi_s", dur)
        elif group == "build":
            add(f"{layer}.builds", 1)
            add(f"{layer}.build_s", dur)
        elif group in ("min", "family", "decide"):
            add(f"{layer}.{group}_s", dur)
    out["cnf.evaluate.calls"] = evaluate_calls
    for layer, hits in useful.items():
        queries = out[f"{layer}.queries"]
        out[f"{layer}.useful_ratio"] = hits / queries if queries else 0.0
    per_round = max(rounds, 1)
    return {name: (out[name] if unit == "ratio" else out[name] / per_round)
            for name, unit in LAYER_METRICS}
