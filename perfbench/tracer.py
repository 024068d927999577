"""Op clock and span recorder for the benchmark.

Every op of a workload runs through :meth:`Recorder.op`, which records its
latency.  With tracing on, the op also opens a root span named ``op``, and
the layer functions listed in :data:`LAYERS` are replaced, in every
``xcorr`` module namespace that binds them, by wrappers that record one
span per call: name, start, end, parent span and op id.  Spans stay in
memory; :meth:`Recorder.summary` turns them into per-op call counts and
self times, and :meth:`Recorder.save` writes them out when the run ends.

A span's self time is its duration minus the durations of its direct
children.  Calls are synchronous and single-threaded, so children never
overlap each other and lie inside their parent: the self times of the
spans of one op add up to the duration of its root span exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter_ns

import numpy as np

#: Wrapped layers, named by the xcorr module that defines them.  The
#: metric prefix is the same name, with ``_kernels`` spelled ``kernels``
#: because metric names must start with a letter.
LAYERS = (
    "core_family_search.predict_core_family",
    "core_family_search.AdFamily.from_placement",
    "core_family_search.detect_targeting",
    "core_family_search.agglomerative_core_search",
    "core_family_search.removal_core_search",
    "core_family_search.contains_core_test",
    "core_family_search.conditional_family",
    "core_family_search.find_x_intersecting_subset",
    "_kernels.pack_bitsets",
    "_kernels.find_witness",
    "bayes.bayes_predict",
    "bayes.learn_params",
    "simulator.simulate_behavioral",
    "experiment.config.build_specs",
    "simulator.simulate_contextual",
    "input_matching.build_signatures",
    "input_matching.cluster_inputs",
    "placement.grouped_placement",
    "placement.bernoulli_placement",
    "experiment.store.CorrelationStore.append",
    "experiment.store.CorrelationStore.read",
    "placement.PlacementMatrix.to_json",
    "placement.PlacementMatrix.from_json",
    "simulator.ObservationSet.to_json",
    "simulator.ObservationSet.from_json",
    "experiment.runner.run_trial",
    "experiment.runner.run_scenario",
    "experiment.scoring.precision_recall",
    "set_intersection.predict_set_intersection",
)

ROOT = "op"


def metric_prefix(layer: str) -> str:
    return layer.removeprefix("_")


def _resolve(layer: str):
    """(owner, attribute, kind, function) for a dotted layer name.

    ``owner`` is the module or class holding the attribute and ``kind``
    is ``"function"`` or ``"classmethod"``.
    """
    parts = layer.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module("xcorr." + ".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        attr = parts[-1]
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            return owner, attr, "classmethod", raw.__func__
        return owner, attr, "function", raw
    raise LookupError(f"no xcorr module defines {layer}")


class Recorder:
    """Op latencies, and spans while tracing is installed."""

    def __init__(self):
        self.latencies_ns: list[int] = []
        self.names: list[str] = [ROOT]
        self.tracing = False
        self._patches: list[tuple[object, str, object]] = []
        self._hooks: dict[str, object] = {}
        self.clear_spans()

    # ----------------------------------------------------------- op clock

    def op(self, fn, *args, **kwargs):
        """Run one op, recording its latency (and root span when tracing)."""
        if not self.tracing:
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.latencies_ns.append(perf_counter_ns() - t0)
        self.op_id = self.n_ops
        self.n_ops += 1
        idx = self._open(0)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)
            self.latencies_ns.append(self.ends[idx] - self.starts[idx])
            self.op_id = -1

    # -------------------------------------------------------------- spans

    def clear_spans(self) -> None:
        self.span_name: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.span_op: list[int] = []
        self._stack = [-1]
        self.op_id = -1
        self.n_ops = 0

    def _open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.span_name.append(name_id)
        self.parents.append(self._stack[-1])
        self.span_op.append(self.op_id)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name_id: int, fn, hook):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(idx)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def on_return(self, layer: str, hook) -> None:
        """Call ``hook(args, kwargs, result)`` after each traced call of
        ``layer``; used to collect counts at the layer boundary."""
        self._hooks[layer] = hook

    def install(self) -> None:
        """Wrap every layer in every xcorr namespace that binds it."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "xcorr" or name.startswith("xcorr."))
        ]
        for layer in LAYERS:
            owner, attr, kind, fn = _resolve(layer)
            if layer not in self.names:
                self.names.append(layer)
            wrapped = self._wrap(self.names.index(layer), fn, self._hooks.get(layer))
            if kind == "classmethod":
                self._patch(owner, attr, classmethod(wrapped))
                continue
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, name, wrapped)
        self.tracing = True

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.tracing = False

    # ------------------------------------------------------------ results

    def _arrays(self):
        starts = np.asarray(self.starts, dtype=np.int64)
        dur = np.asarray(self.ends, dtype=np.int64) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        child = parents >= 0
        covered = np.zeros(len(dur), dtype=np.int64)
        np.add.at(covered, parents[child], dur[child])
        return starts, dur, parents, dur - covered

    def summary(self) -> dict:
        """Per-op calls and self ms for each layer and the root, plus the
        largest gap between an op's summed self times and its root span's
        duration (0 when the accounting is exact)."""
        _, dur, _, self_ns = self._arrays()
        names = np.asarray(self.span_name, dtype=np.int64)
        ops = np.asarray(self.span_op, dtype=np.int64)
        n_ops = max(self.n_ops, 1)
        calls = np.bincount(names, minlength=len(self.names))
        self_total = np.zeros(len(self.names), dtype=np.int64)
        np.add.at(self_total, names, self_ns)
        out = {}
        for k, name in enumerate(self.names):
            prefix = metric_prefix(name)
            out[f"{prefix}.calls"] = int(calls[k]) / n_ops
            out[f"{prefix}.self_ms"] = int(self_total[k]) / n_ops / 1e6
        in_op = ops >= 0
        per_op_self = np.bincount(ops[in_op], weights=self_ns[in_op], minlength=self.n_ops)
        roots = (names == 0) & in_op
        root_dur = np.zeros(self.n_ops, dtype=np.int64)
        root_dur[ops[roots]] = dur[roots]
        gap = int(np.max(np.abs(per_op_self - root_dur), initial=0))
        return {"layers": out, "self_sum_gap_ns": gap}

    def save(self, path, meta: dict) -> None:
        starts, dur, parents, self_ns = self._arrays()
        t0 = starts.min() if len(starts) else 0
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.asarray(self.span_name, dtype=np.int32),
            start_ns=starts - t0,
            dur_ns=dur,
            self_ns=self_ns,
            parent=parents,
            op=np.asarray(self.span_op, dtype=np.int64),
            meta=np.asarray(json.dumps(meta, sort_keys=True)),
        )
