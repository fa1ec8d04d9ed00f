"""Run one lupi command with every layer boundary wrapped in a timing span.

    python perfbench/trace_shim.py TRACE_OUT.json -- solve --n 5 --model exact

The shim imports the package, wraps the public functions of each layer
module and the kernel entry points, patches every lupi module namespace
that holds a reference to one of them, then calls ``lupi.cli.main`` with
the given arguments. Spans are aggregated in memory as they close and
written to TRACE_OUT.json when the command ends; the shim exits with the
command's own status. Nothing inside the package is edited.

Kernel spans are named by route (common, distinct, sampler), so the names
stay put when a route's implementation is replaced. An entry point that
does not exist is listed under "absent" and its numbers are left out.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types

LAYERS = ("cli", "profiles", "solve", "model", "game", "analysis", "simulate")
KERNEL_ROUTES = {
    "common": "win_probs_common",
    "distinct": "win_probs_distinct",
    "sampler": "simulate_rounds",
}


def _distinct_states(args, result):
    rows = args[0]
    # one fold of the 3**n capped-count states per opponent: (n - 1) * 3**n
    return {"kernel.distinct.states": len(rows) * 3 ** len(rows[0])}


def _sampler_draws(args, result):
    rows, rounds = args[0], args[1]
    return {"kernel.sampler.draws": rounds * len(rows)}


def _solve_outcome(args, result):
    return {
        "solve.results": 1,
        "solve.converged": int(bool(result.converged)),
        "solve.iterations": int(result.iterations),
    }


OBSERVERS = {
    "kernel.distinct": _distinct_states,
    "kernel.sampler": _sampler_draws,
    "solve.solve_symmetric": _solve_outcome,
}


class Tracer:
    """Nested spans, aggregated per span name and per layer as they close.

    A layer's busy time counts only its outermost spans; its self time is
    each span's duration minus the time its direct child spans cover.
    """

    def __init__(self):
        self.stack = []  # open spans: [start, time covered by direct children]
        self.depth = {}  # open span count per layer and per span name
        self.names = {}
        self.layers = {}
        self.counters = {}

    def _count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, layer, func):
        def traced(*args, **kwargs):
            outer_layer = self.depth.get(layer, 0) == 0
            outer_name = self.depth.get(name, 0) == 0
            if name.startswith("kernel.") or name == "model.closed_form_gradient":
                if self.depth.get("solve", 0):
                    self._count("solve.residual_evals")
            if name == "game.win_probabilities" and self.depth.get("analysis.verify_profile", 0):
                self._count("analysis.folds")
            self.depth[layer] = self.depth.get(layer, 0) + 1
            self.depth[name] = self.depth.get(name, 0) + 1
            span = [time.perf_counter(), 0.0]
            self.stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                duration = time.perf_counter() - span[0]
                self.stack.pop()
                self.depth[layer] -= 1
                self.depth[name] -= 1
                if self.stack:
                    self.stack[-1][1] += duration
                own = duration - span[1]
                for table, key, outer in ((self.names, name, outer_name), (self.layers, layer, outer_layer)):
                    entry = table.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
                    entry["self_s"] += own
                    if outer:
                        entry["calls"] += 1
                        entry["busy_s"] += duration
            observer = OBSERVERS.get(name)
            if observer is not None:
                try:
                    counts = observer(args, result)
                except (AttributeError, IndexError, TypeError):
                    counts = {}  # an entry point whose signature changed: no count
                for key, amount in counts.items():
                    self._count(key, amount)
            return result

        return traced

    def record(self):
        return {"names": self.names, "layers": self.layers, "counters": self.counters}


def install(tracer):
    """Wrap layer functions and kernel routes; returns the absent entry points."""
    import lupi.cli  # noqa: F401  (loads every layer module)

    replacements = {}
    for layer in LAYERS:
        module = importlib.import_module(f"lupi.{layer}")
        for attr, value in vars(module).items():
            if (
                isinstance(value, types.FunctionType)
                and not attr.startswith("_")
                and value.__module__ == module.__name__
            ):
                replacements[id(value)] = (value, tracer.wrap(f"{layer}.{attr}", layer, value))
    absent = []
    try:
        kernels = importlib.import_module("lupi._backend").kernels
    except (ImportError, AttributeError):
        kernels = None
    for route, attr in KERNEL_ROUTES.items():
        func = getattr(kernels, attr, None)
        if not callable(func):
            absent.append(f"kernel.{route}")
            continue
        wrapped = tracer.wrap(f"kernel.{route}", "kernel", func)
        setattr(kernels, attr, wrapped)
        replacements[id(func)] = (func, wrapped)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "lupi" or name.startswith("lupi.")):
            continue
        for attr, value in list(vars(module).items()):
            entry = replacements.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
    return absent


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_shim.py TRACE_OUT.json -- <lupi arguments>", file=sys.stderr)
        return 1
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    absent = install(tracer)
    import lupi.cli

    status = 1
    try:
        status = lupi.cli.main(cli_args)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        record = tracer.record()
        record["absent"] = absent
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
