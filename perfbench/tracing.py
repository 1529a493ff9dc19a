"""Span tracing of the program's layers, installed from outside the program.

The tracer wraps public functions and engine methods for the length of a
``with tracer.installed():`` block.  A function is replaced under every name
a ``qsann`` module binds it to, so a name imported with ``from .sim import
...`` is wrapped where its caller looks it up.  Engine methods are wrapped on
every ``*Engine`` class of ``qsann.attention``.  A target missing at some
commit is skipped: it yields no span and no metric.

Each call records a span (name, start, end, parent) in memory; self time is
a span's duration minus that of its direct children.  ``call_cost_s``
measures what the wrapper adds to one call, so that the tracing overhead of
a run is its traced call count times that cost.
"""

from __future__ import annotations

import array
import contextlib
import functools
import statistics
import sys
import time

import numpy as np

PACKAGE = "qsann"
FUNCTIONS = (
    ("training", "train"),
    ("training", "evaluate"),
    ("training", "adam_step"),
    ("gradients", "backward"),
    ("gradients", "layer_backward"),
    ("model", "forward"),
    ("model", "regularization"),
    ("attention", "layer_forward"),
    ("ansatz", "run_ansatz_batch"),
    ("sim", "apply_rotation_batch"),
    ("sim", "apply_cnot_batch"),
    ("sim", "apply_hadamard_layer_batch"),
    ("sim", "expectation_batch"),
    ("sim", "apply_rotation_dm_batch"),
    ("sim", "apply_gate_dm_batch"),
    ("sim", "apply_channel_batch"),
    ("sim", "expectation_dm_batch"),
    ("data", "load_tsv"),
    ("data", "build_splits"),
)
ENGINE_METHODS = {
    "prepare": "attention.engine_prepare",
    "apply": "attention.engine_apply",
    "expect": "attention.engine_expect",
    "expect_set": "attention.engine_expect",
}


def _rows(args, pos: int) -> int:
    return args[pos].shape[0]


# span -> (counter, work of one call); gate counters count state rows x gates
COUNTERS = {
    "ansatz.run_ansatz_batch": ("ansatz.run_ansatz_batch.rows", lambda a: _rows(a, 0)),
    "attention.engine_prepare": ("attention.engine_rows", lambda a: _rows(a, 1)),
    "attention.engine_apply": ("attention.engine_rows", lambda a: _rows(a, 1)),
    "sim.apply_rotation_batch": ("sim.gate_rows", lambda a: _rows(a, 0)),
    "sim.apply_cnot_batch": ("sim.gate_rows", lambda a: _rows(a, 0)),
    "sim.apply_hadamard_layer_batch": ("sim.gate_rows", lambda a: _rows(a, 0) * a[1]),
    "sim.apply_rotation_dm_batch": ("sim.dm_gate_rows", lambda a: _rows(a, 0)),
    "sim.apply_gate_dm_batch": ("sim.dm_gate_rows", lambda a: _rows(a, 0)),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def _id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def _count(self, counter, args) -> None:
        name, work = counter
        try:
            rows = int(work(args))
        except (AttributeError, IndexError, TypeError):
            return  # a changed signature loses the count, not the run
        self.counts[name] = self.counts.get(name, 0) + rows

    def wrap(self, fn, span: str):
        sid = self._id(span)
        counter = COUNTERS.get(span)
        if counter is not None:
            self.counts.setdefault(counter[0], 0)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                self._count(counter, args)
            idx = len(names)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        patches = []
        for mod_name, fn_name in FUNCTIONS:
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, fn_name, None)
            if not callable(original):
                continue
            wrapper = self.wrap(original, f"{mod_name}.{fn_name}")
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        attention = sys.modules.get(f"{PACKAGE}.attention")
        engines = [
            cls
            for cls in (vars(attention).values() if attention else ())
            if isinstance(cls, type)
            and cls.__module__ == attention.__name__
            and cls.__name__.endswith("Engine")
        ]
        for cls in engines:
            for method, span in ENGINE_METHODS.items():
                original = cls.__dict__.get(method)
                if callable(original):
                    patches.append((cls, method, original))
                    setattr(cls, method, self.wrap(original, span))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(patches):
                setattr(owner, attr, value)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def self_times(self) -> np.ndarray:
        """Per span: duration minus the summed duration of its direct children."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        child = spans["parent"] >= 0
        covered = np.bincount(
            spans["parent"][child], weights=duration[child], minlength=duration.size
        )
        return duration - covered

    def summary(self) -> dict[str, tuple[float, int]]:
        """span name -> (total self seconds, calls)."""
        names = np.frombuffer(self.name, dtype=np.int32)
        self_s = np.bincount(names, weights=self.self_times(), minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        return {n: (float(self_s[i]), int(calls[i])) for i, n in enumerate(self.names)}

    def calls_within(self, span: str) -> int:
        """Spans recorded inside every span of that name, those spans excluded.

        Spans are numbered in call order, so the spans inside span ``i`` are
        ``i + 1`` up to the first span that started after ``i`` ended.
        """
        if span not in self._ids:
            return 0
        spans = self.arrays()
        outer = np.flatnonzero(spans["name"] == self._ids[span])
        after = np.searchsorted(spans["start"], spans["end"][outer], side="left")
        return int((after - outer - 1).sum())

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def call_cost_s(calls: int = 20000, repeats: int = 7) -> float:
    """Median wall time that tracing adds to one call, row counter included."""

    def noop(*args):
        return None

    state = np.zeros((1, 2))
    traced = Tracer().wrap(noop, "sim.apply_rotation_batch")  # a counted span
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            noop(state)
        t1 = clock()
        for _ in range(calls):
            traced(state)
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)
