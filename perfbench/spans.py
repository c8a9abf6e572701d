"""Spans recorded from outside the program, by wrapping module attributes.

``Tracer.install`` replaces each traced function wherever a ``taskalloc``
module binds it (callers look functions up as module globals, so every
call site is covered) and ``uninstall`` puts the originals back.  A span
is (name, start, end, parent, op id); spans stay in memory and are written
out at the end.  The innermost curve inversions are far too many to keep
one span each (an n=1024 threshold table makes ~0.5 million), so they are
leaves: a count and a total time added to the enclosing span.

A span's self time is its duration minus the time its children cover
(child spans plus leaves).
"""

from __future__ import annotations

import csv
import sys
import time

SPANS = {
    "cli.main": ("taskalloc.cli", "main"),
    "scenario_io.load": ("taskalloc.scenario_io", "load_scenario_file"),
    "solver.solve_optimal": ("taskalloc.solver", "solve_optimal"),
    "solver.solve_nep": ("taskalloc.solver", "solve_nep"),
    "solver.thresholds": ("taskalloc.solver", "activation_thresholds"),
    "poa.poa_at": ("taskalloc.poa", "poa_at"),
    "poa.sweep": ("taskalloc.poa", "poa_sweep"),
    "poa.worst": ("taskalloc.poa", "worst_case_poa"),
    "delay_modes.transform": ("taskalloc.delay_modes", "transformed_scenarios"),
    "delay_modes.solve_under_mode": ("taskalloc.delay_modes", "solve_under_mode"),
    "delay_modes.poa_under_mode": ("taskalloc.delay_modes", "poa_under_mode"),
    "simulator.simulate": ("taskalloc.simulator", "simulate"),
    "simulator.validate": ("taskalloc.simulator", "validate"),
}
LEAVES = (("taskalloc.latency", "invert_latency"), ("taskalloc.latency", "invert_marginal"))
SOLVES = ("solver.solve_optimal", "solver.solve_nep")

NAME, START, END, PARENT, OP, LEAF_N, LEAF_S = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _span(self, name, fn):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, 0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    def _leaf(self, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def counted(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                if stack:
                    rec = spans[stack[-1]]
                    rec[LEAF_N] += 1
                    rec[LEAF_S] += clock() - t0

        return counted

    def install(self) -> None:
        wrappers = {}
        for name, (module, attr) in SPANS.items():
            fn = getattr(sys.modules[module], attr)
            wrappers[id(fn)] = self._span(name, fn)
        for module, attr in LEAVES:
            fn = getattr(sys.modules[module], attr)
            wrappers[id(fn)] = self._leaf(fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "taskalloc" or mod_name.startswith("taskalloc.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start_s", "end_s", "parent", "op", "leaf_calls", "leaf_s"])
            out.writerows(self.spans)


class Summary:
    """Aggregates over a tracer's spans, for the per-layer metrics."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        n = len(spans)
        self.dur = [s[END] - s[START] for s in spans]
        child = [s[LEAF_S] for s in spans]
        self.sub_leaf_n = [s[LEAF_N] for s in spans]
        self.sub_leaf_s = [s[LEAF_S] for s in spans]
        for i in range(n - 1, -1, -1):  # children come after their parent
            parent = spans[i][PARENT]
            if parent >= 0:
                child[parent] += self.dur[i]
                self.sub_leaf_n[parent] += self.sub_leaf_n[i]
                self.sub_leaf_s[parent] += self.sub_leaf_s[i]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def index(self, *names: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[NAME] in names]

    def count(self, *names: str) -> int:
        return len(self.index(*names))

    def has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def under(self, names: tuple, ancestor: str) -> list[int]:
        return [i for i in self.index(*names) if self.has_ancestor(i, ancestor)]

    def child_of(self, names: tuple, parents: tuple) -> list[int]:
        return [i for i in self.index(*names)
                if self.spans[i][PARENT] >= 0 and self.spans[self.spans[i][PARENT]][NAME] in parents]

    def mean_self(self, name: str) -> float | None:
        idx = self.index(name)
        return sum(self.self_time[i] for i in idx) / len(idx) if idx else None

    def mean_dur(self, name: str) -> float | None:
        idx = self.index(name)
        return sum(self.dur[i] for i in idx) / len(idx) if idx else None

    def total(self, idx: list[int]) -> float:
        return sum(self.dur[i] for i in idx)
