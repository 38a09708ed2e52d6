"""In-memory span tracing of shuffleopt's public functions, applied from
outside by patching each function wherever a caller looks it up.

A span is (name, start, end, parent); spans under one root span share its
trace id, and each root is one experiment.  Self time is a span's duration
minus the durations of its direct children (calls are strictly nested in one
thread, so children never overlap).
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from shuffleopt import objectives, optimizers

# layer name -> (module, attribute) of the function's definition; methods are
# given as (class, attribute) and patched on every Objective class that
# defines them.
LAYERS = {
    "cli.main": ("shuffleopt.cli", "main"),
    "harness.run_experiment": ("shuffleopt.harness", "run_experiment"),
    "harness.build_objective": ("shuffleopt.harness", "build_objective"),
    "optimizers.run": ("shuffleopt.optimizers", "run"),
    "objectives.batch_mean_gradient": (objectives.Objective, "batch_mean_gradient"),
    "objectives.full_gradient": (objectives.Objective, "full_gradient"),
    "objectives.full_value": (objectives.Objective, "full_value"),
    "objectives.accuracy": (objectives.Objective, "accuracy"),
    "objectives.solve_reference": ("shuffleopt.objectives", "solve_reference"),
    "objectives.variance_at_point": ("shuffleopt.objectives", "variance_at_point"),
    "objectives.make_quadratic": ("shuffleopt.objectives", "make_quadratic"),
    "shuffling.generate_permutation": ("shuffleopt.shuffling", "generate_permutation"),
    "shuffling.uniform_indices": ("shuffleopt.shuffling", "uniform_indices"),
    "prng.words": ("shuffleopt.prng", "words"),
    "prng.standard_normals": ("shuffleopt.prng", "standard_normals"),
    "data.load_libsvm": ("shuffleopt.data", "load_libsvm"),
    "schedules.epoch_step_size": ("shuffleopt.schedules", "epoch_step_size"),
    "diagnostics.convergence_bound": ("shuffleopt.diagnostics", "convergence_bound"),
    "diagnostics.fit_rate": ("shuffleopt.diagnostics", "fit_rate"),
}


def _objective_classes():
    seen, todo = [], [objectives.Objective]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


def _sites(owner, attr):
    """Every (holder, attribute) through which callers reach the function."""
    if isinstance(owner, type):
        return [(cls, attr) for cls in _objective_classes() if attr in vars(cls)]
    try:
        module = importlib.import_module(owner)
    except ModuleNotFoundError:
        return []
    target = getattr(module, attr, None)
    if target is None:
        return []
    return [(mod, name) for mod_name, mod in list(sys.modules.items())
            if mod_name == "shuffleopt" or mod_name.startswith("shuffleopt.")
            for name, value in vars(mod).items() if value is target]


class Tracer:
    """Spans kept in flat arrays, indexed by span id; parent -1 marks a root."""

    def __init__(self):
        self.names = list(LAYERS)
        self.name = array("H")
        self.parent = array("l")
        self.trace = array("l")
        self.start = array("d")
        self.end = array("d")
        self.component_grads = 0
        self.absent: list[str] = []
        self._stack = [-1]

    def _wrap(self, layer: str, fn):
        name_id = self.names.index(layer)
        stack, clock = self._stack, time.perf_counter
        names, parents, traces, starts, ends = (self.name, self.parent, self.trace,
                                                self.start, self.end)
        counts_ids = layer == "objectives.batch_mean_gradient"

        def traced(*args, **kwargs):
            parent = stack[-1]
            span = len(names)
            names.append(name_id)
            parents.append(parent)
            traces.append(span if parent < 0 else traces[parent])
            ends.append(0.0)
            stack.append(span)
            if counts_ids:
                self.component_grads += len(args[2])
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patches every layer's call sites for the duration of the block."""
        patched = []
        self.absent = []
        try:
            for layer, (owner, attr) in LAYERS.items():
                sites = _sites(owner, attr)
                if not sites:
                    self.absent.append(layer)
                wrappers = {}  # one wrapper per function keeps the sites identical
                for holder, name in sites:
                    original = vars(holder)[name]
                    patched.append((holder, name, original))
                    if id(original) not in wrappers:
                        wrappers[id(original)] = self._wrap(layer, original)
                    setattr(holder, name, wrappers[id(original)])
            yield self
        finally:
            for holder, name, original in reversed(patched):
                setattr(holder, name, original)

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Layer -> (self seconds, calls)."""
        start = np.frombuffer(self.start, dtype=np.float64)
        duration = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.array(self.parent, dtype=np.int64)
        name = np.array(self.name, dtype=np.int64)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested],
                               minlength=duration.size)
        own = duration - children
        self_s = np.bincount(name, weights=own, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        return {layer: (float(self_s[i]), int(calls[i])) for i, layer in enumerate(self.names)}

    def write(self, path: Path):
        """Writes the spans as arrays (.npz) plus the layer names (.json)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path.with_suffix(".npz"),
                            name=np.array(self.name, dtype=np.int16),
                            parent=np.array(self.parent, dtype=np.int64),
                            trace=np.array(self.trace, dtype=np.int64),
                            start=np.array(self.start), end=np.array(self.end))
        path.with_suffix(".json").write_text(json.dumps({"layers": self.names}) + "\n")


class StepCounter:
    """Component-gradient steps completed: n times the epochs each
    optimizers.run call finished, counted wherever a caller looks it up."""

    def __init__(self):
        self.steps = 0

    def _wrap(self, run):
        def counted(optimizer, objective, *args, **kwargs):
            try:
                result = run(optimizer, objective, *args, **kwargs)
            except optimizers.DivergenceError as err:
                self.steps += objective.n * (err.epoch - 1)
                raise
            self.steps += objective.n * len(result.trace)
            return result
        return counted

    @contextlib.contextmanager
    def installed(self):
        sites = _sites("shuffleopt.optimizers", "run")
        originals = [(holder, name, vars(holder)[name]) for holder, name in sites]
        try:
            for holder, name, original in originals:
                setattr(holder, name, self._wrap(original))
            yield self
        finally:
            for holder, name, original in originals:
                setattr(holder, name, original)
