"""Span tracer that wraps the public entry points of each pace module.

The wrappers patch the names the callers actually resolve: the controller
calls ``fitness`` and ``shift_score`` through ``pace.controller``'s globals,
the bank calls ``fitness`` through ``pace.bank``'s, the projector calls
``fwht`` through ``pace.projection``'s, and ``cmaes.*`` is looked up on the
``pace.cmaes`` module at call time.  Patching ``pace.fitness.fitness`` would
miss every call.

Each span records its name, start, end, parent span and trace id (one trace
per root call, i.e. per served batch).  Spans stay in memory; ``save`` writes
them out once the benchmark is done.  A span's self time is its duration
minus its child spans, which never overlap because the program is
single-threaded.
"""
from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

import numpy as np


def _transform_rows(tracer, args, result, token):
    tracer.count("projection.transform.rows", len(args[1]))


def _cmaes_condition(tracer, args, result, token):
    eig_sqrt = result[0].eig_sqrt
    tracer.maximum("cmaes.cond_max", float((eig_sqrt.max() / eig_sqrt.min()) ** 2))


def _retrieval(tracer, args, result, token):
    tracer.count("bank.retrieve.candidates", result.forward_passes)
    tracer.count("bank.retrieve.hits", int(np.any(result.vector != 0)))


def _bank_size(args):
    return args[0].count


def _eviction(tracer, args, result, size_before):
    tracer.count("bank.evictions", int(result.count <= size_before))


# (module, attribute path, span name, hook run after the call, pre-call probe)
SERVING_TARGETS = (
    ("pace.controller", "PaceController.process_batch", "controller.process_batch", None, None),
    ("pace.projection", "FastfoodProjector.transform", "projection.transform", _transform_rows, None),
    ("pace.projection", "fwht", "projection.fwht", None, None),
    ("pace.model", "AdaptableModel.forward", "model.forward", None, None),
    ("pace.controller", "fitness", "fitness", None, None),
    ("pace.bank", "fitness", "fitness", None, None),
    ("pace.controller", "shift_score", "controller.shift_score", None, None),
    ("pace.cmaes", "sample_population", "cmaes.sample", None, None),
    ("pace.cmaes", "update", "cmaes.update", _cmaes_condition, None),
    ("pace.cmaes", "reinitialized", "cmaes.reinit", None, None),
    ("pace.bank", "VectorBank.retrieve_init", "bank.retrieve", _retrieval, None),
    ("pace.bank", "VectorBank.archive", "bank.archive", _eviction, _bank_size),
)

SETUP_TARGETS = (
    ("pace.bench.run", "prepare_assets", "bench.prepare", None, None),
    ("pace.bench.run", "pretrain", "model.pretrain", None, None),
    ("pace.bench.run", "compute_source_stats", "bench.source_stats", None, None),
    ("pace.bench.run", "calibrate_gamma_for_config", "bench.calibrate_gamma", None, None),
)


class Tracer:
    """In-memory span recorder plus counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.traces: list[int] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._next_trace = 0

    def count(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def wrap(self, name, fn, hook=None, probe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.names)
            if self._stack:
                parent = self._stack[-1]
                trace = self.traces[parent]
            else:
                parent, trace = -1, self._next_trace
                self._next_trace += 1
            self.names.append(name)
            self.parents.append(parent)
            self.traces.append(trace)
            self.starts.append(0)
            self.ends.append(0)
            token = probe(args) if probe else None
            self._stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.starts[index] = start
                self.ends[index] = end
            if hook:
                hook(self, args, result, token)
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Install wrappers for ``targets``; restore the originals on exit."""
        restore = []
        try:
            for module_name, path, span, hook, probe in targets:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                restore.append((owner, attr, original))
                setattr(owner, attr, self.wrap(span, original, hook, probe))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def spans(self) -> "Spans":
        return Spans(self.names, self.starts, self.ends, self.parents, self.traces)


class Spans:
    """Column view of recorded spans with durations and self times in ms."""

    def __init__(self, names, starts, ends, parents, traces):
        self.names = np.asarray(names, dtype=object)
        self.starts = np.asarray(starts, dtype=np.int64)
        self.ends = np.asarray(ends, dtype=np.int64)
        self.parents = np.asarray(parents, dtype=np.int64)
        self.traces = np.asarray(traces, dtype=np.int64)
        self.ms = (self.ends - self.starts) / 1e6
        has_parent = self.parents >= 0
        self.child_ms = np.zeros(len(self.ms))
        np.add.at(self.child_ms, self.parents[has_parent], self.ms[has_parent])
        self.self_ms = self.ms - self.child_ms

    def named(self, name: str) -> np.ndarray:
        return self.names == name

    def parent_named(self, name: str) -> np.ndarray:
        parent_names = np.where(self.parents >= 0, self.names[self.parents], None)
        return parent_names == name

    def save(self, path) -> None:
        vocabulary, codes = np.unique(self.names.astype(str), return_inverse=True)
        np.savez_compressed(
            path,
            names=vocabulary,
            name_code=codes.astype(np.int16),
            start_ns=self.starts,
            end_ns=self.ends,
            parent=self.parents,
            trace=self.traces,
        )
