"""Spans and counts at the boundaries of ccsim's modules.

The tracer wraps every public function of each layer module at every binding
that calls it: ``transient`` is bound as ``solver.transient``,
``cli.transient`` and ``experiments.transient``, and all three get the same
wrapper. Internal calls look names up in module globals, so
``solver.lu_factor`` catches the factorizations inside ``transient`` too.
A function that no longer exists is listed in ``absent`` and reads zero.

Each call records (id, name, start, end, parent id, op id) in memory; self
time is a span's duration minus the time its wrapped children cover.
Functions called thousands of times per op (``HOT``) are counted and timed
in aggregate only, so the span log stays small; their time is still
subtracted from the enclosing span.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import sys
import time

PACKAGE = "ccsim"
LAYERS = ("netlist", "devices", "solver", "measure", "experiments", "cli")
ALIASES = {"netlist.parse_netlist": "netlist.parse"}
# Names the per-layer metrics refer to; reported as absent when missing.
EXPECTED = ("netlist.parse", "netlist.validate", "devices.eval_clamp", "solver.transient",
            "solver.newton_solve", "solver.lu_factor", "solver.lu_apply", "cli.main")
HOT = frozenset({"devices.eval_clamp", "solver.source_value", "netlist.parse_value"})


class Tracer:
    def __init__(self):
        self.originals: dict[str, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    self.originals[ALIASES.get(name, name)] = obj
        self.absent = [name for name in EXPECTED if name not in self.originals]
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = dict.fromkeys(self.originals, 0)
        self.self_s: dict[str, float] = dict.fromkeys(self.originals, 0.0)
        self.entries: dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.timepoints = 0
        self.op_id = -1
        self._stack: list[list] = []  # open spans: [id, name, child seconds]
        self._next_id = 0
        self.wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.originals.items()}
        # The originals stay referenced, so their ids cannot be reused.
        self.bindings = [
            (module, attr, obj)
            for mod_name, module in list(sys.modules.items())
            if mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
            for attr, obj in list(vars(module).items())
            if id(obj) in self.wrappers
        ]

    def install(self) -> None:
        for module, attr, original in self.bindings:
            setattr(module, attr, self.wrappers[id(original)])

    def uninstall(self) -> None:
        for module, attr, original in self.bindings:
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        layer = name.partition(".")[0]
        hot = name in HOT
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if parent is None or parent[1].partition(".")[0] != layer:
                    self.entries[layer] += 1
                if not hot:
                    self.spans.append((span_id, name, start, end,
                                       None if parent is None else parent[0], self.op_id))
            if name == "solver.transient":
                self.timepoints += len(result.times)
            elif name == "solver.newton_solve" and not any(
                    f[1] == "solver.transient" for f in stack):
                self.timepoints += 1
            return result

        return wrapper

    def layer_self_s(self, layer: str) -> float:
        return sum(s for name, s in self.self_s.items() if name.partition(".")[0] == layer)

    def write_spans(self, path) -> None:
        """CSV of every span, in completion order; parent is empty at the top."""
        with open(path, "w", newline="") as out:
            writer = csv.writer(out)
            writer.writerow(("id", "name", "start", "end", "parent", "op"))
            writer.writerows(("" if v is None else v for v in span) for span in self.spans)
