"""Host-time spans around the program's layers, recorded from outside it.

:class:`SpanRecorder` replaces the public methods listed in :data:`LAYERS`
on their classes with thin wrappers for the duration of a traced pass, and
puts the originals back in a ``finally``.  Each wrapper records one span:
method, start and end (``perf_counter_ns``), parent span and the id of the
timed call it belongs to.  Spans are kept in flat integer arrays and reduced
after the pass: a span's *self time* is its duration minus the durations of
its direct children (calls nest strictly on one thread, so children never
overlap).  Wrappers also read the :class:`KernelStats` of the answers the
core indexes return, so per-layer counts come from the same pass.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from array import array
from typing import Callable, Dict, List, Tuple

import numpy as np

#: Spans written to the Chrome trace file (the aggregates use every span).
MAX_EXPORTED_SPANS = 100_000

#: Key + rowID bytes of one returned entry (64-bit keys, 32-bit rowIDs).
ENTRY_BYTES = 12


#: ``(layer, module, class, public methods)`` wrapped by a traced pass.
LAYERS = (
    ("serve.sharded", "repro.serve.sharded", "ShardedIndex",
     ("serve_stream", "range_lookup_batch", "update_batch")),
    ("serve.cache", "repro.serve.cache", "ResultCache",
     ("get", "fill_batch", "invalidate_keys")),
    ("serve.batching", "repro.serve.batching", "BatchScheduler",
     ("offer", "poll", "drain")),
    ("serve.router", "repro.serve.router", "ShardRouter",
     ("range_lookup_batch", "update_batch")),
    ("serve.metrics", "repro.serve.metrics", "MetricsRegistry",
     ("record_request", "record_client", "bump", "record_shard_batch",
      "record_tenant_request")),
    ("gpu.cost_model", "repro.gpu.cost_model", "CostModel",
     ("kernel_time_ms", "total_time_ms")),
    ("core.updatable", "repro.core.updatable", "CgRXuIndex",
     ("point_lookup_batch", "range_lookup_batch", "update_batch")),
    ("core.index", "repro.core.index", "CgRXIndex", ("point_lookup_batch",)),
    ("serve.maintenance", "repro.serve.maintenance", "MaintenanceWorker",
     ("run_cycle",)),
)


def resolve_layers() -> Tuple[List[Tuple[str, type, str]], List[str]]:
    """Wrappable ``(layer, class, method)`` triples, plus the ones not found.

    A layer the program no longer has (a class renamed or merged away) is
    skipped and reported instead of failing the run; its metrics read 0.
    """
    found, missing = [], []
    for layer, module_name, class_name, methods in LAYERS:
        try:
            cls = getattr(importlib.import_module(module_name), class_name)
        except (ImportError, AttributeError):
            missing.extend(f"{class_name}.{method}" for method in methods)
            continue
        for method in methods:
            if callable(cls.__dict__.get(method)):
                found.append((layer, cls, method))
            else:
                missing.append(f"{class_name}.{method}")
    return found, missing


def _items(method: str, args: tuple, kwargs: dict) -> int:
    """Keys (or ranges, or requests) a wrapped call was handed."""
    if method == "update_batch":
        total = 0
        for position, name in ((0, "insert_keys"), (2, "delete_keys")):
            batch = kwargs.get(name, args[position] if len(args) > position else None)
            total += 0 if batch is None else len(batch)
        return total
    if args and not isinstance(args[0], str) and hasattr(args[0], "__len__"):
        return len(args[0])
    return 0


class KernelCounts:
    """KernelStats counters summed over the answers of the core indexes."""

    def __init__(self) -> None:
        self.rays = 0
        self.node_visits = 0
        self.triangle_tests = 0
        self.bytes_read = 0
        self.returned_bytes = 0

    def add(self, result) -> None:
        stats = result.stats
        self.rays += stats.rays_cast
        self.node_visits += stats.bvh_node_visits
        self.triangle_tests += stats.triangle_tests
        self.bytes_read += stats.bytes_read
        if hasattr(result, "match_counts"):
            entries = int(np.asarray(result.match_counts).sum())
        else:
            entries = sum(len(rows) for rows in result.row_ids)
        self.returned_bytes += entries * ENTRY_BYTES


class SpanRecorder:
    """Records spans while :attr:`enabled`; see the module docstring."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.call = array("q")
        self.items = array("q")
        self._stack: List[int] = []
        #: Timed call the next spans belong to.
        self.call_id = -1
        #: Spans are recorded only while set (the runner clears it around
        #: its own oracle checks and calibration).
        self.enabled = False
        self.kernel_counts = KernelCounts()
        self._originals: List[Tuple[type, str, Callable]] = []

    # ------------------------------------------------------------- install

    def install(self) -> List[str]:
        """Wrap every layer method; returns the methods that were not found."""
        if self._originals:
            raise RuntimeError("wrappers are already installed")
        found, missing = resolve_layers()
        for layer, cls, method in found:
            original = cls.__dict__[method]
            self._originals.append((cls, method, original))
            setattr(cls, method, self._wrap(layer, cls, method, original))
        return missing

    def uninstall(self) -> None:
        while self._originals:
            cls, method, original = self._originals.pop()
            setattr(cls, method, original)

    def _wrap(self, layer: str, cls: type, method: str, original: Callable) -> Callable:
        name_id = len(self.names)
        self.names.append(f"{cls.__name__}.{method}")
        self.layer_of.append(layer)
        counts_kernels = layer.startswith("core.") and method != "update_batch"
        recorder = self
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            stack = recorder._stack
            span = len(recorder.start)
            recorder.name_id.append(name_id)
            recorder.parent.append(stack[-1] if stack else -1)
            recorder.call.append(recorder.call_id)
            recorder.items.append(_items(method, args[1:], kwargs))
            recorder.end.append(0)
            stack.append(span)
            recorder.start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.end[span] = clock()
                stack.pop()
            if counts_kernels:
                recorder.kernel_counts.add(result)
            return result

        return wrapper

    # ------------------------------------------------------------ reduction

    def durations_ns(self) -> np.ndarray:
        return np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)

    def self_times_ns(self) -> np.ndarray:
        """Per span: its duration minus its direct children's durations."""
        duration = self.durations_ns()
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nested = parent >= 0
        covered = np.bincount(
            parent[nested], weights=duration[nested], minlength=duration.shape[0]
        )
        return duration - covered

    def by_method(self) -> Dict[str, Dict[str, float]]:
        """Per wrapped method: span count, self ns, total ns and items."""
        names = np.frombuffer(self.name_id, dtype=np.int64)
        width = len(self.names)
        count = np.bincount(names, minlength=width)
        self_ns = np.bincount(names, weights=self.self_times_ns(), minlength=width)
        total_ns = np.bincount(names, weights=self.durations_ns(), minlength=width)
        items = np.bincount(
            names, weights=np.frombuffer(self.items, dtype=np.int64), minlength=width
        )
        return {
            name: {
                "spans": int(count[i]),
                "self_ns": float(self_ns[i]),
                "total_ns": float(total_ns[i]),
                "items": int(items[i]),
            }
            for i, name in enumerate(self.names)
        }

    def layer_self_ns(self, methods: Dict[str, Dict[str, float]]) -> Dict[str, float]:
        """Self time summed per layer, from a :meth:`by_method` summary."""
        totals: Dict[str, float] = {}
        for name, layer in zip(self.names, self.layer_of):
            totals[layer] = totals.get(layer, 0.0) + methods[name]["self_ns"]
        return totals

    # --------------------------------------------------------------- export

    def write_chrome_trace(self, path: str) -> None:
        """Write the first :data:`MAX_EXPORTED_SPANS` spans as Chrome trace-event JSON."""
        count = min(len(self.start), MAX_EXPORTED_SPANS)
        origin = self.start[0] if count else 0
        events = [
            {
                "name": self.names[self.name_id[i]],
                "cat": self.layer_of[self.name_id[i]],
                "ph": "X",
                "ts": (self.start[i] - origin) / 1e3,
                "dur": (self.end[i] - self.start[i]) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"span": i, "parent": self.parent[i], "call": self.call[i]},
            }
            for i in range(count)
        ]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
