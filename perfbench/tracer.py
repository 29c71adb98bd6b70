"""Outside-in call tracer for the flowdigits modules.

It changes no file of the package. ``Tracer.install`` wraps every public
function defined in the traced modules and puts the wrapper in place of
the function in every ``flowdigits`` module namespace that refers to it,
so calls made from ``cli``, ``detector`` and ``evaluation`` are caught as
well as calls from outside.

Per function it aggregates calls, total time, and self time (total minus
the time of wrapped calls made inside it, kept with a nesting stack), plus
a few work counters; per-window functions such as ``similarity.compute``
add to the same totals, so nothing grows with the call count. ``top_s`` is
the time spent inside outermost wrapped calls. A name that no longer exists
is simply not in the table, which readers report as 0 calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("ingest", "synth", "windowing", "benford", "similarity", "detector", "evaluation", "cli")

_COUNTER_ERRORS = (AttributeError, TypeError, ValueError)


def _count_flows(stat: dict, result) -> None:
    stat["flows"] = stat.get("flows", 0) + len(result)


def _count_windows(stat: dict, result) -> None:
    stat["count"] = stat.get("count", 0) + len(result)


def _count_cells(stat: dict, result) -> None:
    cells = result.cells
    stat["cells"] = stat.get("cells", 0) + len(cells)
    stat["cells_present"] = stat.get("cells_present", 0) + sum(c.value is not None for c in cells)


#: Work counters read from a function's result.
COUNTERS = {
    "ingest.parse_flow_csv": _count_flows,
    "ingest.adapt_kdd": _count_flows,
    "synth.generate": _count_flows,
    "windowing.windows": _count_windows,
    "evaluation.grid_evaluate": _count_cells,
}


class Tracer:
    """Per-function call table of one process; ``install`` once, ``dump`` at exit."""

    def __init__(self) -> None:
        self.stats: dict[str, dict] = {}
        self.top_s = 0.0
        self._stack: list[list[float]] = []  # [child seconds] per active wrapped call

    def install(self) -> None:
        """Wrap the public functions of MODULES wherever flowdigits refers to them."""
        wrappers: dict[int, tuple[object, object]] = {}
        for short in MODULES:
            module = importlib.import_module(f"flowdigits.{short}")
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{name}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "flowdigits" and not mod_name.startswith("flowdigits."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        counter = COUNTERS.get(name)
        counts_pairs = name == "evaluation.roc_auc"
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                if counts_pairs and args:
                    pairs = list(args[0])
                    stat["pairs"] = stat.get("pairs", 0) + len(pairs)
                    args = (pairs,) + args[1:]
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                else:
                    self.top_s += dt
                stat["calls"] += 1
                stat["s"] += dt
                stat["self_s"] += dt - frame[0]
            if counter is not None:
                try:
                    counter(stat, result)
                except _COUNTER_ERRORS:
                    stat["counter_error"] = True
            return result

        return functools.update_wrapper(wrapper, fn)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"stats": self.stats, "top_s": self.top_s}, handle)
