"""Spans around calls into voteguard, recorded from outside the package.

The benchmark replaces each traced public function or method with a
wrapper for the length of a traced operation and puts the original back
afterwards, so untraced operations run the program unchanged. A function
is replaced in every voteguard module that holds it: ``fit`` is both
``voteguard.ensemble.fit`` and the ``fit`` that ``voteguard.harness``
imported, and both must be wrapped for the harness's calls to show.

A span records its name, start, end, parent span and operation id. Spans
are kept in flat arrays in memory (a traced gate stream makes about 30 per
call) and written out when the run ends.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.op_kinds: list[str] = []
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = -1

    def begin_op(self, kind: str) -> int:
        """Start a new operation; spans and counts until the next call
        belong to it."""
        self.op_kinds.append(kind)
        self._op = len(self.op_kinds) - 1
        return self._op

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def count(self, name: str, value: float) -> None:
        self.counters[(self._op, name)] += value

    def wrap(self, fn, name, on_result=None):
        """``fn`` inside a span. ``name`` is a string or a function of the
        call's arguments; ``on_result(tracer, args, kwargs, result)`` records
        counts from the call."""
        tracer = self

        def traced(*args, **kwargs):
            i = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def save(self, path) -> None:
        np.savez(path, start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32),
                 names=np.array(self.names), op_kinds=np.array(self.op_kinds))


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    Children may overlap one another or stick out of their parent; only the
    union of their intervals inside the parent counts as covered.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(start.size)
    kids = np.nonzero(parent >= 0)[0]
    order = kids[np.lexsort((start[kids], parent[kids]))]
    starts, ends, parents = start.tolist(), end.tolist(), parent.tolist()
    current, reach = -1, 0.0
    for i in order.tolist():
        p = parents[i]
        if p != current:
            current, reach = p, starts[p]
        lo = max(starts[i], reach)
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return end - start - covered


# ---------------------------------------------------------------------------
# What is traced in voteguard
# ---------------------------------------------------------------------------

def _train_name(args, kwargs):
    config = args[0] if args else kwargs["config"]
    return f"learners.train.{config.kind}"


def _count_rows(tracer, args, kwargs, result):
    tracer.count("data.load_csv.rows", len(result))


def _count_model_bytes(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("persist.model_bytes", os.path.getsize(path))


def _count_member(tracer, args, kwargs, result):
    tracer.count("learners.members", 1)
    tracer.count("learners.converged", 1 if result.converged else 0)
    nodes = getattr(result, "nodes", None)
    if nodes is not None:
        tracer.count("learners.tree_nodes", len(nodes))
    curve = getattr(result, "loss_curve", None)
    if curve:
        # loss_curve holds the start loss plus one loss per accepted step
        tracer.count("learners.linear_iters", len(curve) - 1)


# (module, attribute, span name, counter callback)
FUNCTIONS = (
    ("voteguard.data", "load_csv", "data.load_csv", _count_rows),
    ("voteguard.data", "write_csv", "data.write_csv", None),
    ("voteguard.core", "compute_metrics", "core.compute_metrics", None),
    ("voteguard.ensemble", "fit", "ensemble.fit", None),
    ("voteguard.ensemble", "bootstrap_indices", "ensemble.bootstrap_indices", None),
    ("voteguard.ensemble", "gate", "ensemble.gate", None),
    ("voteguard.ensemble", "predict", "ensemble.predict", None),
    ("voteguard.ensemble", "entropy_of", "ensemble.entropy_of", None),
    ("voteguard.learners", "train", _train_name, _count_member),
    ("voteguard.learners", "best_split", "learners.best_split", None),
    ("voteguard.persist", "save_model", "persist.save_model", _count_model_bytes),
    ("voteguard.persist", "load_model", "persist.load_model", None),
    ("voteguard.harness", "run_threshold_sweep", "harness.run_threshold_sweep", None),
)

# (module, class, method, span name); a method is wrapped on the class and
# on every subclass in the module that defines its own.
METHODS = (
    ("voteguard.core", "Dataset", "subset", "core.Dataset.subset"),
    ("voteguard.learners", "TrainedLearner", "predict_label", "learners.predict_label"),
)


class Instrumentation:
    """Installs the wrappers on the voteguard modules loaded now, and puts
    the originals back."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._restore)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "voteguard" or name.startswith("voteguard.")]
        for module_name, attr, span_name, on_result in FUNCTIONS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            wrapper = self.tracer.wrap(original, span_name, on_result)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        for module_name, cls_name, method, span_name in METHODS:
            module = sys.modules.get(module_name)
            base = getattr(module, cls_name, None)
            if base is None:
                self.missing.add(f"{module_name}.{cls_name}.{method}")
                continue
            for cls in vars(module).values():
                if (isinstance(cls, type) and issubclass(cls, base)
                        and method in vars(cls)):
                    self._set(cls, method,
                              self.tracer.wrap(vars(cls)[method], span_name))

    def _set(self, owner, key, value) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans
# ---------------------------------------------------------------------------

def per_op_totals(tracer: Tracer):
    """For each operation: the summed inclusive and self seconds and the
    call count of every span name, and its counters.

    Returns ``{op_id: {key: value}}`` where keys are ``<span>.s``,
    ``<span>.self_s``, ``<span>.calls`` and the counter names.
    """
    totals: dict[int, dict[str, float]] = {
        op: defaultdict(float) for op in range(len(tracer.op_kinds))}
    if len(tracer.start):
        start = np.frombuffer(tracer.start)
        end = np.frombuffer(tracer.end)
        parent = np.frombuffer(tracer.parent, dtype=np.int32)
        name = np.frombuffer(tracer.name, dtype=np.int32)
        op = np.frombuffer(tracer.op, dtype=np.int32)
        selfs = self_times(start, end, parent)
        n_names = len(tracer.names)
        key = op * n_names + name
        size = len(tracer.op_kinds) * n_names
        incl = np.bincount(key, weights=end - start, minlength=size)
        excl = np.bincount(key, weights=selfs, minlength=size)
        calls = np.bincount(key, minlength=size)
        for k in np.nonzero(calls)[0].tolist():
            o, n = divmod(k, n_names)
            span = tracer.names[n]
            totals[o][f"{span}.s"] += float(incl[k])
            totals[o][f"{span}.self_s"] += float(excl[k])
            totals[o][f"{span}.calls"] += float(calls[k])
    for (o, counter), value in tracer.counters.items():
        totals[o][counter] += value
    return totals


def span_summary(tracer: Tracer) -> dict[str, dict]:
    """Per span name over the whole run: calls, total seconds, and the
    median and largest single call."""
    names = np.frombuffer(tracer.name, dtype=np.int32)
    durations = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    summary = {}
    for i, name in enumerate(tracer.names):
        d = durations[names == i]
        summary[name] = {"calls": int(d.size), "total_s": float(d.sum()),
                         "median_call_s": float(np.median(d)),
                         "max_call_s": float(d.max())}
    return summary


def per_round(tracer: Tracer) -> dict[str, float]:
    """What one round of the workload spends on each key of
    ``per_op_totals``: for each kind of operation, the median over its
    operations, summed over the kinds. A round is one operation of each kind
    (for instance one set-up and one pass)."""
    totals = per_op_totals(tracer)
    keys = set().union(*totals.values()) if totals else set()
    rounds = {}
    for key in keys:
        by_kind: dict[str, list[float]] = defaultdict(list)
        for op, kind in enumerate(tracer.op_kinds):
            by_kind[kind].append(totals[op].get(key, 0.0))
        rounds[key] = float(sum(np.median(v) for v in by_kind.values()))
    return rounds
