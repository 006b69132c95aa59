"""Run one `cpt-forge` command with a span around every call into a layer.

Usage: ``python3 perfbench/spans.py SPANS.json -- <cpt-forge arguments>``
with ``src`` on PYTHONPATH.  The CLI's output and exit code are those of
the untraced command; SPANS.json receives the aggregated spans and the
counters.

Layers are the cptforge modules.  Before running the command, every
public module-level function of each layer (generator functions aside,
since calling one does no work) and the validation in every dataclass
constructor are replaced, wherever a module or the verify suite list
refers to them, by a wrapper that records one span: the time between
entry and return, and how much of it nested spans covered.  Spans are
aggregated in memory per name into calls, total time and child time, so
a span's self time is total minus child time.  `rng` only constructs
generators and is left unwrapped.  The counters are computed from the
recorded arguments and results after the command has finished, outside
every span.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "network", "finset", "mle", "bayes", "dist", "dirichlet",
          "localsplit", "verify")


class Tracer:
    """Aggregated spans: name -> [calls, total seconds, child seconds]."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.stack: list[float] = []
        self.calls: dict[str, list] = {}  # span name -> what `keep` recorded per call

    def add(self, name: str, seconds: float, child: float) -> None:
        span = self.spans.setdefault(name, [0, 0.0, 0.0])
        span[0] += 1
        span[1] += seconds
        span[2] += child

    def wrap(self, name, fn, keep=None, name_of=None):
        """A wrapper recording one span per call.

        `keep(args, kwargs, result)`, if given, is stored per returning call
        for the counters; `name_of(result)` renames the span of a call that
        returned.  A call that raises keeps its span under `name`.
        """
        stack, clock, add = self.stack, time.perf_counter, self.add
        kept = self.calls.setdefault(name, []) if keep else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                seconds = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += seconds
                add(name_of(result) if returned and name_of else name, seconds, child)
                if returned and kept is not None:
                    kept.append(keep(args, kwargs, result))

        return traced


def install(tracer: Tracer) -> None:
    """Route every call into a layer's public functions through the tracer."""
    modules = {layer: importlib.import_module(f"cptforge.{layer}") for layer in LAYERS}

    def call(args, kwargs, result):
        return args, result

    def check_name(result):  # a verify law's span is named by its result
        return f"verify.{result.suite}.{result.name}"

    keep = {"network.ingest_counts": call, "network.learn_mle": call,
            "network.learn_bayes": call, "network.write_cpts": call,
            "verify.run_suite": call,
            "dirichlet.simplex_cells": lambda a, k, r: len(r[0]),
            "dirichlet.dirichlet_sample_many": lambda a, k, r: len(r)}
    replaced = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__ or attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                name = f"{layer}.{attr}"
                name_of = check_name if layer == "verify" and attr.startswith("check_") else None
                replaced[obj] = tracer.wrap(name, obj, keep.get(name), name_of)
            elif inspect.isclass(obj) and dataclasses.is_dataclass(obj):
                if "__post_init__" in vars(obj):
                    obj.__post_init__ = tracer.wrap(f"{layer}.{attr}", obj.__post_init__)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])
    for checks in getattr(modules["verify"], "SUITES", {}).values():
        checks[:] = [replaced.get(c, c) for c in checks]
    # Methods are looked up, not assumed, so that renaming one empties its span
    # rather than breaking the traced run.
    table = getattr(modules["network"], "CountTable", None)
    if hasattr(table, "marginal_counts"):
        table.marginal_counts = tracer.wrap("network.CountTable.marginal_counts",
                                            table.marginal_counts, keep=call)
    graph = getattr(modules["network"], "GraphSpec", None)
    if hasattr(graph, "load"):
        graph.load = staticmethod(tracer.wrap("network.GraphSpec.load", graph.load))


def counters(tracer: Tracer) -> dict[str, float]:
    """Work counts taken from the recorded calls at the layer boundaries."""
    calls = tracer.calls
    out = {"network.rows_read": 0, "network.distinct_tuples": 0, "network.total_count": 0,
           "network.family_cells": 0, "network.zero_configs": 0,
           "network.bytes_written": 0}
    for (path, *_), table in calls.get("network.ingest_counts", []):
        with open(path, encoding="utf-8") as fh:
            lines = [s for s in fh if s.strip() and not s.lstrip().startswith("#")]
        out["network.rows_read"] += len(lines) - 1  # the header
        records = getattr(table, "records", None)  # absent once CountTable changes shape
        if records is not None:
            out["network.distinct_tuples"] += len(records)
            out["network.total_count"] += sum(records.values())
    for (table, names), counts in calls.get("network.CountTable.marginal_counts", []):
        m = table.arities[table.variables.index(names[-1])]
        rows = [counts.counts[i:i + m] for i in range(0, counts.n, m)]
        out["network.zero_configs"] += sum(1 for r in rows if not any(r))
    for mode in ("network.learn_mle", "network.learn_bayes"):
        for _, cpts in calls.get(mode, []):
            out["network.family_cells"] += sum(len(c.dists) * c.arity for c in cpts)
    for _, paths in calls.get("network.write_cpts", []):
        out["network.bytes_written"] += sum(p.stat().st_size for p in paths)
    out["dirichlet.cells_points"] = sum(calls.get("dirichlet.simplex_cells", []))
    out["dirichlet.draws"] = sum(calls.get("dirichlet.dirichlet_sample_many", []))
    out["verify.checks_failed"] = sum(1 for _, results in calls.get("verify.run_suite", [])
                                      for r in results if not r.passed)
    return out


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = Tracer()
    start = time.perf_counter()
    import cptforge.cli

    import_s = time.perf_counter() - start
    tracer.add("cli.import", import_s, 0.0)
    install(tracer)
    code = cptforge.cli.main(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counters": counters(tracer)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
