"""Measure one workload: set-up, timed calls, oracle checks and metrics.

A *pass* builds the deployment, warms it up, then issues the workload's
calls in a closed loop: each call starts when the previous one has returned
and been checked.  The calibration kernel runs before the first call and
after every call, so every call time can be normalized to reference host
speed (:mod:`benchmark.calibration`).  Oracle checks and calibration run outside
the timed region.

The plain run makes one pass with :data:`SETUP_BUILDS` set-ups and reports
the end-to-end metrics.  The traced run makes an untraced pass and then a
traced one (:class:`benchmark.tracing.SpanRecorder`) on a fresh deployment
with the same inputs, and reports the per-layer metrics; the two passes must
return byte-identical answers.
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from benchmark.calibration import calibration_kernel, normalize
from benchmark.tracing import SpanRecorder
from benchmark.workloads import WORKLOADS, Call, Workload, device_bytes

#: Set-ups per plain run; ``setup_s`` is their median.
SETUP_BUILDS = 3

#: ``(name, unit)`` of the end-to-end metrics, reported with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("read_ms_p50", "ms"),
    ("read_ms_p90", "ms"),
    ("sim_latency_ms", "ms"),
    ("sim_ops_per_s", "ops/s"),
    ("tput_per_byte", "ops/s/B"),
    ("bytes_per_key", "B"),
    ("host_rss_mib", "MiB"),
)

#: ``(name, unit)`` of the per-layer metrics, reported with ``--trace 1``.
PER_LAYER = (
    ("serve.sharded.self_us_per_req", "us/req"),
    ("serve.cache.self_us_per_req", "us/req"),
    ("serve.cache.hit_ratio", "fraction"),
    ("serve.batching.self_us_per_req", "us/req"),
    ("serve.batching.keys_per_batch", "keys/batch"),
    ("serve.router.self_ms_per_call", "ms/call"),
    ("serve.router.shards_per_range", "shards/range"),
    ("serve.metrics.self_us_per_req", "us/req"),
    ("serve.metrics.share", "fraction"),
    ("gpu.cost_model.self_us_per_req", "us/req"),
    ("core.updatable.point_calls_per_kreq", "calls/kreq"),
    ("core.updatable.point_us_per_call", "us/call"),
    ("core.updatable.point_ns_per_key", "ns/key"),
    ("core.updatable.range_ms_per_call", "ms/call"),
    ("core.updatable.update_us_per_key", "us/key"),
    ("core.updatable.chain_nodes_mean", "nodes"),
    ("core.index.point_ns_per_key", "ns/key"),
    ("rtx.node_visits_per_op", "count/op"),
    ("rtx.triangle_tests_per_op", "count/op"),
    ("rtx.rays_per_op", "count/op"),
    ("core.useful_read_ratio", "fraction"),
    ("serve.maintenance.cycle_ms_per_update", "ms/call"),
    ("serve.maintenance.compactions", "count"),
    ("serve.maintenance.rebuilds", "count"),
    ("serve.maintenance.sim_ms", "ms"),
    ("write_ms_p50", "ms"),
    ("write_ms_p90", "ms"),
    ("sim_ms_p50", "ms"),
    ("sim_ms_p99", "ms"),
    ("host.calib_ms", "ms"),
    ("host.trace_overhead", "fraction"),
)


@dataclass
class Pass:
    """Everything one pass measured, before reduction to metrics."""

    setup_s: List[float] = field(default_factory=list)
    setup_raw_s: List[float] = field(default_factory=list)
    raw_s: List[float] = field(default_factory=list)
    calib_s: List[float] = field(default_factory=list)
    kinds: List[str] = field(default_factory=list)
    ops: List[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digest: str = ""
    sim: Dict[str, float] = field(default_factory=dict)
    footprint_bytes: int = 0
    live_entries: int = 0
    maintenance: Dict[str, float] = field(default_factory=dict)
    chain_nodes_mean: float = 0.0

    def normalized_s(self) -> np.ndarray:
        return normalize(self.raw_s, self.calib_s)

    def ops_per_s(self, raw: bool = False) -> float:
        seconds = np.sum(self.raw_s) if raw else float(self.normalized_s().sum())
        return float(np.sum(self.ops) / seconds)

    def call_ms(self, kind: str, raw: bool = False) -> np.ndarray:
        times = np.asarray(self.raw_s) if raw else self.normalized_s()
        return times[np.asarray(self.kinds) == kind] * 1e3


def _checked(workload: Workload, deployment, call: Call, output) -> int:
    """Failed ops of a call: oracle mismatches, or all of them on an error."""
    if isinstance(output, Exception):
        traceback.print_exception(type(output), output, output.__traceback__, file=sys.stderr)
        return call.ops
    try:
        return min(call.ops, workload.check(deployment, call, output))
    except Exception:  # a malformed answer counts as failed, not as a crash
        traceback.print_exc(file=sys.stderr)
        return call.ops


def _calibration_median(runs: int = 5) -> float:
    return statistics.median(calibration_kernel() for _ in range(runs))


def _chain_nodes_mean(deployment) -> float:
    """Mean cgRXu chain length over every shard's buckets (0 without chains)."""
    shards = getattr(getattr(deployment, "router", None), "shards", ())
    stats = [
        shard.index.chain_statistics()
        for shard in shards
        if shard.index is not None and hasattr(shard.index, "chain_statistics")
    ]
    chains = sum(entry["num_chains"] for entry in stats)
    if not chains:
        return 0.0
    return sum(entry["mean_chain_nodes"] * entry["num_chains"] for entry in stats) / chains


def measure(
    workload: Workload, builds: int, recorder: Optional[SpanRecorder] = None
) -> Pass:
    """One pass: ``builds`` timed set-ups (the last one is kept), then the calls."""
    result = Pass()
    deployment = None
    for _ in range(builds):
        deployment = None
        gc.collect()
        before = _calibration_median()
        start = time.perf_counter()
        deployment = workload.build()
        warm = workload.execute(deployment, workload.warmup.payload)
        elapsed = time.perf_counter() - start
        result.setup_raw_s.append(elapsed)
        result.setup_s.append(float(normalize([elapsed], [before, _calibration_median()])[0]))
        result.attempted += workload.warmup.ops
        result.failed += _checked(workload, deployment, workload.warmup, warm)

    workload.begin(deployment)
    digest = hashlib.sha256()
    gc.collect()
    missing = recorder.install() if recorder is not None else []
    if missing:
        print(f"benchmark: not traced (not found): {', '.join(missing)}", file=sys.stderr)
    result.calib_s.append(calibration_kernel())
    try:
        for call_id, call in enumerate(workload.calls):
            if recorder is not None:
                recorder.call_id = call_id
                recorder.enabled = True
            start = time.perf_counter()
            try:
                output = workload.execute(deployment, call.payload)
            except Exception as error:  # reported and counted below
                output = error
            elapsed = time.perf_counter() - start
            if recorder is not None:
                recorder.enabled = False
            result.raw_s.append(elapsed)
            result.calib_s.append(calibration_kernel())
            result.kinds.append(call.kind)
            result.ops.append(call.ops)
            result.attempted += call.ops
            result.failed += _checked(workload, deployment, call, output)
            if not isinstance(output, Exception):
                digest.update(workload.answer_bytes(output))
    finally:
        if recorder is not None:
            recorder.enabled = False
            recorder.uninstall()

    result.digest = digest.hexdigest()
    result.problems = workload.end_checks(deployment)
    result.sim = workload.simulated(deployment)
    result.footprint_bytes = device_bytes(deployment)
    result.live_entries = len(deployment)
    if hasattr(workload, "maintenance_delta"):
        result.maintenance = workload.maintenance_delta(deployment)
    result.chain_nodes_mean = _chain_nodes_mean(deployment)
    return result


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def end_to_end(result: Pass) -> Dict[str, float]:
    reads = result.call_ms("read")
    return {
        "setup_s": statistics.median(result.setup_s),
        "ops_per_s": result.ops_per_s(),
        "read_ms_p50": float(np.percentile(reads, 50)),
        "read_ms_p90": float(np.percentile(reads, 90)),
        "sim_latency_ms": result.sim["latency_ms"],
        "sim_ops_per_s": result.sim["ops_per_s"],
        "tput_per_byte": result.sim["ops_per_s"] / result.footprint_bytes,
        "bytes_per_key": result.footprint_bytes / result.live_entries,
        "host_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def host_diagnostics(result: Pass) -> Dict[str, float]:
    """Raw (unnormalized) host numbers printed next to the normalized ones."""
    reads = result.call_ms("read", raw=True)
    return {
        "raw.setup_s": statistics.median(result.setup_raw_s),
        "raw.ops_per_s": result.ops_per_s(raw=True),
        "raw.read_ms_p50": float(np.percentile(reads, 50)),
        "raw.read_ms_p90": float(np.percentile(reads, 90)),
        "host.calib_ms": statistics.median(result.calib_s) * 1e3,
        "failed_frac": _ratio(result.failed, result.attempted),
    }


def per_layer(untraced: Pass, traced: Pass, recorder: SpanRecorder) -> Dict[str, float]:
    methods = recorder.by_method()
    layer_ns = recorder.layer_self_ns(methods)
    empty = {"spans": 0, "self_ns": 0.0, "total_ns": 0.0, "items": 0}

    def method(name: str) -> Dict[str, float]:
        return methods.get(name, empty)

    ops = sum(traced.ops)
    requests = traced.sim.get("requests", 0)

    def per_request_us(layer: str) -> float:
        return _ratio(layer_ns.get(layer, 0.0) / 1e3, requests)

    router_range = method("ShardRouter.range_lookup_batch")
    router_update = method("ShardRouter.update_batch")
    shard_point = method("CgRXuIndex.point_lookup_batch")
    shard_range = method("CgRXuIndex.range_lookup_batch")
    shard_update = method("CgRXuIndex.update_batch")
    bare_point = method("CgRXIndex.point_lookup_batch")
    counts = recorder.kernel_counts
    writes = untraced.call_ms("write")
    traced_ns = float(np.sum(traced.raw_s)) * 1e9
    return {
        "serve.sharded.self_us_per_req": per_request_us("serve.sharded"),
        "serve.cache.self_us_per_req": per_request_us("serve.cache"),
        "serve.cache.hit_ratio": traced.sim.get("cache_hit_ratio", 0.0),
        "serve.batching.self_us_per_req": per_request_us("serve.batching"),
        "serve.batching.keys_per_batch": _ratio(
            traced.sim.get("batched", 0), traced.sim.get("batches", 0)
        ),
        "serve.router.self_ms_per_call": _ratio(
            (router_range["self_ns"] + router_update["self_ns"]) / 1e6,
            router_range["spans"] + router_update["spans"],
        ),
        "serve.router.shards_per_range": _ratio(shard_range["items"], router_range["items"]),
        "serve.metrics.self_us_per_req": per_request_us("serve.metrics"),
        "serve.metrics.share": _ratio(layer_ns.get("serve.metrics", 0.0), traced_ns),
        "gpu.cost_model.self_us_per_req": per_request_us("gpu.cost_model"),
        "core.updatable.point_calls_per_kreq": _ratio(shard_point["spans"], requests / 1e3),
        "core.updatable.point_us_per_call": _ratio(
            shard_point["self_ns"] / 1e3, shard_point["spans"]
        ),
        "core.updatable.point_ns_per_key": _ratio(shard_point["self_ns"], shard_point["items"]),
        "core.updatable.range_ms_per_call": _ratio(
            shard_range["self_ns"] / 1e6, shard_range["spans"]
        ),
        "core.updatable.update_us_per_key": _ratio(
            shard_update["self_ns"] / 1e3, shard_update["items"]
        ),
        "core.updatable.chain_nodes_mean": traced.chain_nodes_mean,
        "core.index.point_ns_per_key": _ratio(bare_point["self_ns"], bare_point["items"]),
        "rtx.node_visits_per_op": _ratio(counts.node_visits, ops),
        "rtx.triangle_tests_per_op": _ratio(counts.triangle_tests, ops),
        "rtx.rays_per_op": _ratio(counts.rays, ops),
        "core.useful_read_ratio": _ratio(counts.returned_bytes, counts.bytes_read),
        "serve.maintenance.cycle_ms_per_update": _ratio(
            method("MaintenanceWorker.run_cycle")["total_ns"] / 1e6,
            method("ShardedIndex.update_batch")["spans"],
        ),
        "serve.maintenance.compactions": traced.maintenance.get("compactions_performed", 0),
        "serve.maintenance.rebuilds": traced.maintenance.get("rebuilds_performed", 0),
        "serve.maintenance.sim_ms": traced.maintenance.get("maintenance_time_ms", 0.0),
        "write_ms_p50": float(np.percentile(writes, 50)) if writes.size else 0.0,
        "write_ms_p90": float(np.percentile(writes, 90)) if writes.size else 0.0,
        "sim_ms_p50": untraced.sim["p50_ms"],
        "sim_ms_p99": untraced.sim["p99_ms"],
        "host.calib_ms": statistics.median(untraced.calib_s) * 1e3,
        "host.trace_overhead": 1.0 - traced.ops_per_s() / untraced.ops_per_s(),
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    trace_dir: str = ".bench_trace",
    sizes: Optional[Dict[str, int]] = None,
) -> dict:
    """Run one workload; returns the result the command prints."""
    workload = WORKLOADS[name](seed, seconds, sizes)
    if not trace:
        result = measure(workload, SETUP_BUILDS)
        values, units = end_to_end(result), dict(END_TO_END)
        extras = host_diagnostics(result)
        passes = [result]
    else:
        untraced = measure(workload, 1)
        recorder = SpanRecorder()
        traced = measure(workload, 1, recorder)
        values, units = per_layer(untraced, traced, recorder), dict(PER_LAYER)
        path = os.path.join(trace_dir, f"trace-{name}.json")
        extras = {"trace.spans": float(len(recorder.start))}
        recorder.write_chrome_trace(path)
        passes = [untraced, traced]
        if untraced.digest != traced.digest:
            traced.problems.append("traced answers differ from the untraced pass")
    problems = [problem for one in passes for problem in one.problems]
    failed = sum(one.failed for one in passes)
    return {
        "workload": name,
        "correct": failed == 0 and not problems,
        "attempted": sum(one.attempted for one in passes),
        "failed": failed,
        "problems": problems,
        "digest": passes[-1].digest,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
        "extras": extras,
    }
