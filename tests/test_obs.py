"""Tests for the observability layer: telemetry, tracing, attribution, profiling."""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from repro.bench.experiments import observability
from repro.bench.harness import ExperimentResult, cgrxu_factory
from repro.obs import (
    Counter,
    LogBucketHistogram,
    PERCENTILE_RELATIVE_ERROR,
    Span,
    Tracer,
    TelemetryRegistry,
    critical_path_breakdown,
    default_boundaries,
    disable_profiling,
    enable_profiling,
    format_breakdown,
    profiler,
)
from repro.serve.metrics import LatencyHistogram, MetricsRegistry
from repro.serve.sharded import ServeConfig, ShardedIndex
from repro.workloads.keygen import generate_keys
from repro.workloads.requests import zipf_request_stream


@pytest.fixture(scope="module")
def keyset():
    return generate_keys(num_keys=2048, uniformity=0.5, key_bits=32, seed=47)


def _strict_loads(text: str):
    """Parse rejecting NaN/Infinity literals (spec-compliant JSON only)."""

    def reject(constant):
        raise ValueError(f"non-strict JSON constant: {constant}")

    return json.loads(text, parse_constant=reject)


# --------------------------------------------------------------------------
# Telemetry instruments
# --------------------------------------------------------------------------


def test_counter_integer_increments_stay_int():
    counter = Counter()
    counter.inc()
    counter.inc(41)
    assert counter.value == 42 and isinstance(counter.value, int)
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_histogram_percentile_tracks_exact_oracle():
    rng = np.random.default_rng(7)
    samples = rng.lognormal(mean=0.0, sigma=1.5, size=5000)
    bucketed = LogBucketHistogram()
    oracle = LatencyHistogram()
    bucketed.record_many(samples)
    oracle.record_many(samples)
    for q in (50.0, 90.0, 99.0):
        exact = oracle.percentile(q)
        approx = bucketed.percentile(q)
        # Geometric-midpoint representative: bounded relative error (the 2x
        # slack covers rank interpolation straddling a bucket edge).
        assert abs(approx - exact) / exact <= 2.0 * PERCENTILE_RELATIVE_ERROR
    # Exact side scalars are not approximated at all.
    assert bucketed.mean == pytest.approx(float(samples.mean()))
    assert bucketed.maximum == float(samples.max())
    assert bucketed.minimum == float(samples.min())


def test_histogram_record_many_matches_scalar_loop():
    rng = np.random.default_rng(11)
    samples = np.concatenate(
        [rng.lognormal(size=500), [0.0, -1.0, 1e12]]  # under/overflow buckets
    )
    bulk = LogBucketHistogram()
    looped = LogBucketHistogram()
    bulk.record_many(samples)
    for value in samples:
        looped.record(value)
    assert np.array_equal(bulk.bucket_counts, looped.bucket_counts)
    assert bulk.count == looped.count
    assert bulk.total == pytest.approx(looped.total)
    assert bulk.min == looped.min and bulk.max == looped.max
    bulk.record_many([])  # empty batch is a no-op
    assert bulk.count == looped.count


@pytest.mark.parametrize("custom_edges", [None, [1.0, 2.0, 4.0]], ids=["default", "custom"])
def test_histogram_record_places_values_like_searchsorted(custom_edges):
    edges = default_boundaries() if custom_edges is None else np.asarray(custom_edges)
    rng = np.random.default_rng(17)
    values = [
        *edges[:3], *edges[-3:], *edges[rng.integers(0, edges.size, size=20)],
        np.nextafter(edges[1], -math.inf), np.nextafter(edges[1], math.inf),
        0.0, -0.0, -1.0, -1e300, 1e300, 1.5, math.inf, -math.inf, math.nan,
        *rng.lognormal(sigma=4.0, size=50),
    ]
    for value in values:
        histogram = LogBucketHistogram(edges=None if custom_edges is None else edges)
        histogram.record(value)
        expected = np.zeros(edges.size + 1, dtype=np.int64)
        expected[np.searchsorted(edges, value, side="left")] = 1
        assert np.array_equal(histogram.bucket_counts, expected), value


def test_default_histograms_share_one_read_only_bounds_list():
    first, second = LogBucketHistogram(), LogBucketHistogram()
    assert first._bounds is second._bounds and isinstance(first._bounds, tuple)
    assert list(first._bounds) == default_boundaries().tolist()
    for value in (0.0, 1e-6, 3.5, 1e12, math.inf, -math.inf, math.nan):
        first.record(value)
    assert list(first._bounds) == default_boundaries().tolist()
    assert second.count == 0 and not second.bucket_counts.any()
    assert np.array_equal(second.edges, default_boundaries())


def test_histogram_merge_equals_bulk_and_rejects_mismatched_edges():
    rng = np.random.default_rng(13)
    left_samples = rng.lognormal(size=400)
    right_samples = rng.lognormal(size=600)
    left = LogBucketHistogram()
    right = LogBucketHistogram()
    both = LogBucketHistogram()
    left.record_many(left_samples)
    right.record_many(right_samples)
    both.record_many(np.concatenate([left_samples, right_samples]))
    left.merge(right)
    assert np.array_equal(left.bucket_counts, both.bucket_counts)
    assert left.count == both.count
    assert left.total == pytest.approx(both.total)
    for q in (50.0, 99.0):
        assert left.percentile(q) == both.percentile(q)
    other_layout = LogBucketHistogram(edges=np.array([1.0, 2.0, 4.0]))
    with pytest.raises(ValueError):
        left.merge(other_layout)


def test_empty_histogram_reduces_to_nan():
    histogram = LogBucketHistogram()
    assert math.isnan(histogram.percentile(50.0))
    assert math.isnan(histogram.mean)
    assert math.isnan(histogram.maximum)
    assert len(histogram) == 0


def test_registry_exposition_format():
    registry = TelemetryRegistry()
    registry.counter("reads_total", shard="0").inc(5)
    registry.gauge("cache_size").set(17.0)
    registry.histogram("latency_ms").record_many([0.5, 0.5, 2.0])
    text = registry.exposition()
    lines = text.strip().split("\n")
    assert "# TYPE reads_total counter" in lines
    assert "# TYPE cache_size gauge" in lines
    assert "# TYPE latency_ms histogram" in lines
    assert 'reads_total{shard="0"} 5' in lines
    assert "cache_size 17.0" in lines
    # Sparse cumulative buckets plus the mandatory +Inf/_sum/_count series.
    bucket_lines = [l for l in lines if l.startswith("latency_ms_bucket")]
    assert bucket_lines[-1] == 'latency_ms_bucket{le="+Inf"} 3'
    assert any('le="+Inf"' not in l for l in bucket_lines)
    assert "latency_ms_sum 3" in lines
    assert "latency_ms_count 3" in lines


def test_registry_maybe_sample_is_interval_gated():
    registry = TelemetryRegistry(sample_interval_ms=10.0)
    registry.counter("events").inc(3)
    assert registry.maybe_sample(0.0) is True
    assert registry.maybe_sample(4.0) is False
    registry.counter("events").inc(2)
    assert registry.maybe_sample(10.0) is True
    assert [point["t_ms"] for point in registry.series] == [0.0, 10.0]
    assert registry.series[0]["values"]["events"] == 3
    assert registry.series[1]["values"]["events"] == 5
    # Unarmed registries never sample through maybe_sample.
    assert TelemetryRegistry().maybe_sample(100.0) is False


# --------------------------------------------------------------------------
# MetricsRegistry façade over the labeled registry
# --------------------------------------------------------------------------


def test_metrics_snapshot_key_set_is_pinned():
    """The façade must preserve the historical snapshot schema exactly."""
    metrics = MetricsRegistry(num_shards=2)
    metrics.record_request(0.8, arrival_ms=0.5, completion_ms=1.3)
    metrics.record_request(1.2, arrival_ms=1.0, completion_ms=2.2)
    metrics.record_client(0)
    metrics.record_client(3)
    metrics.record_shard_batch(0, batch_size=1, busy_ms=0.4)
    metrics.record_shard_batch(1, batch_size=1, busy_ms=0.6)
    metrics.record_replica_request(0, 1)
    metrics.record_failover(0.25)
    metrics.record_unavailability(0.0, 0.5)
    metrics.record_maintenance("compaction", 0.0, 2.0)
    metrics.bump("cache_hits", 3)
    snapshot = metrics.snapshot()
    assert list(snapshot) == [
        "requests",
        "batches",
        "span_ms",
        "throughput_per_s",
        "latency_p50_ms",
        "latency_p99_ms",
        "latency_mean_ms",
        "latency_max_ms",
        "request_skew",
        "busy_skew",
        "unique_clients",
        "client_skew",
        "replica_skew",
        "failover_latency_mean_ms",
        "failover_latency_p99_ms",
        "unavailable_ms",
        "availability",
        "maintenance_windows",
        "maintenance_ms_compaction",
        "latency_p99_during_maintenance_ms",
        "cache_hits",
        "failovers",
    ]
    assert snapshot["requests"] == 2 and isinstance(snapshot["requests"], int)
    assert snapshot["cache_hits"] == 3
    assert snapshot["failovers"] == 1
    assert snapshot["span_ms"] == pytest.approx(1.7)
    assert snapshot["maintenance_ms_compaction"] == pytest.approx(2.0)


def test_metrics_dict_views_materialize_from_labeled_instruments():
    metrics = MetricsRegistry(num_shards=4)
    metrics.record_shard_batch(2, batch_size=7, busy_ms=1.5)
    metrics.record_shard_batch(2, batch_size=3, busy_ms=0.5)
    metrics.record_client(9)
    metrics.record_replica_request(1, 0, amount=4)
    metrics.record_maintenance("rebuild", 10.0, 14.0)
    assert metrics.shard_requests == {2: 10}
    assert metrics.shard_busy_ms == {2: 2.0}
    assert metrics.client_requests == {9: 1}
    assert metrics.replica_requests == {"1:0": 4}
    assert metrics.maintenance_device_ms == {"rebuild": 4.0}
    assert metrics.counters["batches"] == 2
    # The same series are visible in the Prometheus exposition.
    text = metrics.telemetry.exposition()
    assert 'serve_shard_requests_total{shard="2"} 10' in text
    assert 'serve_replica_requests_total{replica="1:0"} 4' in text


# --------------------------------------------------------------------------
# Tracing: propagation, request spans, neutrality, export
# --------------------------------------------------------------------------


def test_trace_context_propagates_through_bulk_lookup(keyset):
    config = ServeConfig(
        num_shards=2,
        partitioner="hash",
        key_bits=32,
        cache_capacity=0,
        replication_factor=2,
        tracing=True,
    )
    index = ShardedIndex(keyset.keys, keyset.row_ids, config=config)
    index.point_lookup_batch(keyset.keys[:64])
    tracer = index.tracer
    scatters = tracer.spans_named("router.scatter")
    assert len(scatters) == 1
    scatter = scatters[0]
    reads = tracer.spans_named("replica.read")
    lookups = tracer.spans_named("engine.lookup")
    assert reads and lookups
    # Lower layers attach to the router span via the context stack: one
    # replica.read per shard call, each with a child engine.lookup, all in
    # the scatter's trace without any explicit handle passing.
    for read in reads:
        assert read.parent_id == scatter.span_id
        assert read.trace_id == scatter.trace_id
    for lookup in lookups:
        assert lookup.parent_id in {read.span_id for read in reads}
        assert lookup.trace_id == scatter.trace_id


def test_serve_stream_emits_one_trace_per_request(keyset):
    config = ServeConfig(
        num_shards=2,
        partitioner="hash",
        key_bits=32,
        cache_capacity=256,
        max_batch_size=32,
        max_wait_ms=0.5,
        tracing=True,
    )
    index = ShardedIndex(keyset.keys, keyset.row_ids, config=config)
    stream = zipf_request_stream(
        keyset, 512, zipf_coefficient=1.2, requests_per_ms=32.0, seed=5
    )
    index.serve_stream(stream)
    tracer = index.tracer
    roots = tracer.spans_named("request")
    assert len(roots) == 512
    assert {root.trace_id for root in roots} == {
        root.trace_id for root in roots
    } and len({root.trace_id for root in roots}) == 512
    hits = [r for r in roots if r.attributes.get("cache_hit")]
    misses = [r for r in roots if not r.attributes.get("cache_hit")]
    assert index.cache.stats.hits == len(hits) > 0
    for root in misses[:32]:
        children = {span.name for span in tracer.children_of(root)}
        assert {"queue.wait", "device.execute"} <= children
    for root in hits[:32]:
        children = tracer.children_of(root)
        assert [span.name for span in children] == ["cache.probe"]
        assert children[0].attributes["hit"] is True
    # Stage spans never extend beyond their root request interval.
    for root in roots[:64]:
        for span in tracer.children_of(root):
            assert span.start_ms >= root.start_ms - 1e-9
            assert span.end_ms <= root.end_ms + 1e-9


def test_traced_spans_carry_the_engine_that_ran(keyset):
    """The shards' engine comes from the inner index configuration, and the
    batch, engine and per-request spans report the engine that ran."""
    config = ServeConfig(
        num_shards=2,
        key_bits=32,
        cache_capacity=0,
        replication_factor=2,
        tracing=True,
    )
    index = ShardedIndex(
        keyset.keys, keyset.row_ids, factory=cgrxu_factory(engine="scalar"), config=config
    )
    index.serve_stream(zipf_request_stream(keyset, 128, zipf_coefficient=1.1, seed=7))
    tracer = index.tracer
    for name in ("batch.execute", "engine.lookup", "request", "device.execute"):
        spans = tracer.spans_named(name)
        assert spans and {span.attributes["engine"] for span in spans} == {"scalar"}, name
    index.point_lookup_batch(keyset.keys[:16])
    index.range_lookup_batch(keyset.keys[:4], keyset.keys[:4])
    scatters = tracer.spans_named("router.scatter")
    assert len(scatters) == 2 and all("engine" not in span.attributes for span in scatters)
    assert index.metrics.snapshot()["engine_batches_scalar"] > 0


def test_disabled_tracer_is_behavior_neutral(keyset):
    def run(traced):
        config = ServeConfig(
            num_shards=2,
            partitioner="hash",
            key_bits=32,
            cache_capacity=128,
            max_batch_size=32,
            tracing=traced,
        )
        index = ShardedIndex(keyset.keys, keyset.row_ids, config=config)
        stream = zipf_request_stream(keyset, 256, zipf_coefficient=1.0, seed=9)
        index.serve_stream(stream, record_answers=True)
        return index

    traced, untraced = run(True), run(False)
    assert traced.tracer.spans and not untraced.tracer.spans
    rows_t, counts_t = traced.last_answers
    rows_u, counts_u = untraced.last_answers
    assert np.array_equal(rows_t, rows_u)
    assert np.array_equal(counts_t, counts_u)
    assert traced.metrics.counters == untraced.metrics.counters
    assert repr(traced.metrics.snapshot()) == repr(untraced.metrics.snapshot())


def test_chrome_trace_export_schema(tmp_path, keyset):
    config = ServeConfig(
        num_shards=2, partitioner="hash", key_bits=32, cache_capacity=64,
        tracing=True,
    )
    index = ShardedIndex(keyset.keys, keyset.row_ids, config=config)
    stream = zipf_request_stream(keyset, 128, zipf_coefficient=1.0, seed=3)
    index.serve_stream(stream)
    document = index.tracer.to_chrome_trace()
    assert set(document) == {"traceEvents", "displayTimeUnit"}
    assert document["displayTimeUnit"] == "ms"
    lanes = set()
    for event in document["traceEvents"]:
        assert event["ph"] in ("X", "M")
        if event["ph"] == "M":
            assert event["name"] == "thread_name"
            lanes.add(event["args"]["name"])
        else:
            assert math.isfinite(event["ts"]) and event["dur"] >= 0.0
            assert "trace_id" in event["args"] and "span_id" in event["args"]
    assert "requests" in lanes
    path = index.tracer.save_chrome_trace(str(tmp_path / "trace.json"))
    with open(path, encoding="utf-8") as handle:
        parsed = _strict_loads(handle.read())
    assert len(parsed["traceEvents"]) == len(document["traceEvents"])


# --------------------------------------------------------------------------
# Critical-path attribution
# --------------------------------------------------------------------------


def _span(name, start, duration, trace_id, category="serve", parent=None):
    return Span(name, category, trace_id, 0, parent, start, duration, "test", None)


def test_critical_path_breakdown_on_synthetic_spans():
    spans = []
    # Ten requests; request 9 is the 1ms tail, dominated by queue wait.
    for trace_id in range(10):
        duration = 10.0 if trace_id == 9 else 1.0
        spans.append(_span("request", 0.0, duration, trace_id))
        spans.append(_span("queue.wait", 0.0, duration * 0.7, trace_id))
        spans.append(_span("device.execute", duration * 0.7, duration * 0.3, trace_id))
    spans.append(_span("maintenance.compaction", 2.0, 4.0, 99, category="maintenance"))
    breakdown = critical_path_breakdown(spans, percentile=90.0)
    assert breakdown["num_requests"] == 10
    assert breakdown["tail_requests"] == 1
    assert breakdown["latency_at_percentile_ms"] == pytest.approx(1.9)
    fractions = {row["stage"]: row["fraction"] for row in breakdown["stages"]}
    assert fractions["queue.wait"] == pytest.approx(0.7)
    assert fractions["device.execute"] == pytest.approx(0.3)
    assert sum(fractions.values()) == pytest.approx(1.0)
    # Rows are sorted by attributed time, descending.
    totals = [row["total_ms"] for row in breakdown["stages"]]
    assert totals == sorted(totals, reverse=True)
    # The tail request [0, 10] overlaps the maintenance window [2, 6] fully.
    assert breakdown["maintenance_overlap_ms"] == pytest.approx(4.0)
    assert breakdown["maintenance_overlap_fraction"] == pytest.approx(0.4)
    summary = format_breakdown(breakdown)
    assert summary.startswith("p90 = 70% queue.wait + 30% device.execute")


def test_critical_path_breakdown_without_requests():
    breakdown = critical_path_breakdown([])
    assert breakdown["num_requests"] == 0
    assert breakdown["stages"] == []
    assert math.isnan(breakdown["latency_at_percentile_ms"])
    assert format_breakdown(breakdown) == "p99 = (no attributed stages)"


# --------------------------------------------------------------------------
# Kernel profiling hooks
# --------------------------------------------------------------------------


def test_profiler_observes_kernels_and_disables_cleanly(keyset):
    assert profiler() is None
    prof = enable_profiling()
    try:
        index = cgrxu_factory(128)(keyset)
        rng = np.random.default_rng(3)
        index.update_batch(
            insert_keys=rng.integers(0, 1 << 32, size=2048, dtype=np.uint64).astype(
                np.uint32
            )
        )
        engine = index.point_lookup_batch(keyset.keys[:256]).engine
        index.compact_buckets(range(index.num_buckets))
        registry = prof.registry
        values = registry.labeled_values("core_chain_lookups_total")
        assert sum(values.values()) >= 256
        assert registry.counter("core_chain_lookups_total", engine=engine).value >= 256
        assert sum(registry.labeled_values("core_chain_nodes_visited_total").values()) > 0
        assert registry.counter("core_compaction_chains_total").value > 0
        if engine == "compiled":
            # Traversal kernels feed the rtx_wavefront_* series; the scalar
            # fallback traces ray by ray and feeds none.
            launches = registry.labeled_values("rtx_wavefront_launches_total")
            assert sum(launches.values()) > 0
            for _, _, occupancy in registry.instruments("rtx_wavefront_occupancy"):
                assert 0.0 < occupancy.percentile(99.0) <= 1.0
    finally:
        disable_profiling()
    assert profiler() is None
    # Hooks are no-ops again: a fresh lookup adds nothing anywhere.
    before = registry.counter("core_chain_lookups_total", engine=engine).value
    index.point_lookup_batch(keyset.keys[:16])
    assert registry.counter("core_chain_lookups_total", engine=engine).value == before


def test_profiled_run_leaves_answers_bit_identical(keyset):
    index = cgrxu_factory(128)(keyset)
    baseline = index.point_lookup_batch(keyset.keys[:512])
    enable_profiling()
    try:
        profiled = index.point_lookup_batch(keyset.keys[:512])
    finally:
        disable_profiling()
    assert np.array_equal(baseline.row_ids, profiled.row_ids)
    assert np.array_equal(baseline.match_counts, profiled.match_counts)


# --------------------------------------------------------------------------
# Bench JSON hardening and the obs experiment
# --------------------------------------------------------------------------


def test_bench_json_replaces_non_finite_with_null():
    result = ExperimentResult(
        name="strictness",
        description="non-finite floats must not leak into artifacts",
        parameters={"nan": float("nan"), "nested": {"inf": math.inf}},
    )
    result.add(
        value=float("nan"),
        ninf=-math.inf,
        np_nan=np.float64("nan"),
        arr=np.array([1.0, np.nan]),
        mixed=[1.5, float("inf"), "text"],
        count=np.int64(3),
        flag=np.bool_(True),
    )
    parsed = _strict_loads(result.to_json())
    assert parsed["parameters"]["nan"] is None
    assert parsed["parameters"]["nested"]["inf"] is None
    row = parsed["rows"][0]
    assert row["value"] is None and row["ninf"] is None and row["np_nan"] is None
    assert row["arr"] == [1.0, None]
    assert row["mixed"] == [1.5, None, "text"]
    assert row["count"] == 3 and row["flag"] is True


def test_committed_bench_artifacts_are_strict_json():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    paths = sorted(
        entry for entry in os.listdir(root)
        if entry.startswith("BENCH_") and entry.endswith(".json")
    )
    assert paths, "no committed BENCH_*.json artifacts found"
    for entry in paths:
        with open(os.path.join(root, entry), encoding="utf-8") as handle:
            parsed = _strict_loads(handle.read())
        assert parsed["rows"], f"{entry} has no rows"


def test_observability_experiment_quick(tmp_path):
    result = observability(quick=True, timing_repeats=1, trace_dir=str(tmp_path))
    panels = {row["panel"] for row in result.rows}
    assert panels == {"a_stage_breakdown", "b_overhead", "c_timeseries"}
    stages = [
        row["stage"] for row in result.rows if row["panel"] == "a_stage_breakdown"
    ]
    assert "queue.wait" in stages and "(maintenance interference)" in stages
    overhead = next(row for row in result.rows if row["panel"] == "b_overhead")
    assert overhead["answers_identical"] is True
    assert overhead["metrics_identical"] is True
    assert overhead["num_spans"] > 0
    assert "p" in result.parameters["attribution"]
    trace_path = os.path.join(str(tmp_path), "TRACE_obs.json")
    assert os.path.exists(trace_path)
    with open(trace_path, encoding="utf-8") as handle:
        trace = _strict_loads(handle.read())
    assert trace["traceEvents"]
    _strict_loads(result.to_json())
