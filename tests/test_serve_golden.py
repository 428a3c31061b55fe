"""Golden digests of the served path.

Two traced deployments serve fixed streams through ``serve_stream``:

* ``degraded`` — two shards of two replicas with tenant QoS (rate-limit and
  queue-depth shedding), a result cache, a signed stream with negative and
  absent keys, request deadlines, stale reads from a durable store, and a
  whole-fleet outage over part of the stream;
* ``adaptive`` — an unreplicated, cached deployment that splits shards
  under a shifting hotspot.

For each the test pins the sha256 of the per-request answers, of the
per-request outcome codes, of the metrics snapshot and of the span
sequence.  The digests were recorded before the serving loop was
restructured into stages; any change to what a request is answered, how it
is counted or how it is traced shows here.  Two values are host wall time
and are left out: the ``recovery_*_ms`` snapshot keys and the durations of
``store.*`` spans.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.serve import (
    FailureEvent,
    ReliabilityConfig,
    ServeConfig,
    ShardedIndex,
    TenantQoS,
)
from repro.workloads.adversarial import (
    TenantSpec,
    multi_tenant_stream,
    shifting_hotspot_stream,
)
from repro.workloads.keygen import generate_keys
from repro.workloads.requests import RequestStream

GOLDEN = {
    "degraded": {
        "outcome_counts": [130, 56, 83, 0, 24],
        "answers": "8fa62827465d8e99ab5262c45fb4c1dadc315937ff6c3183946ab035c6caf555",
        "outcomes": "b8762a2f247925c47110db3717f5aafbb210d7a060c1ddb4b894176f8e330dae",
        "snapshot": "d9a59575d080ec58fb179684b46204d693afde00bb682c6ed2192d3abbece576",
        "spans": "e08b66a511ceec144dcda1f4c65606f6e3abe3eda950fa5d25390794a7d9c4ca",
    },
    "adaptive": {
        "outcome_counts": [1200, 0, 0, 0, 0],
        "answers": "0e23d6599603d73b49072aa0efe50495bd79bd5a5afc22d072021ef2c6547eb7",
        "outcomes": "655a3ef0465a9f30fddf25f4dde0c19a05c6f9069b83961800c1944165955273",
        "snapshot": "24f4de2ecbfd3eb7517cea9cadf7c15a7062be92fedd22312e4d9c1b3a6b2308",
        "spans": "e41a1074731a117fa2208aede2b7d1cdedef29a7be0d56bc8541689d279b0b04",
    },
}

#: Snapshot keys timed on the host's wall clock.
WALL_SNAPSHOT_KEYS = ("recovery_mean_ms", "recovery_max_ms")


def _degraded(tmp_path):
    keyset = generate_keys(num_keys=2048, uniformity=0.5, key_bits=32, seed=61)
    tenants = multi_tenant_stream(
        keyset,
        [
            TenantSpec(1, 24.0, burst_on_ms=2.0, burst_off_ms=2.0),
            TenantSpec(2, 12.0),
        ],
        duration_ms=12.0,
        seed=4,
    )
    rng = np.random.default_rng(9)
    keys = tenants.keys.astype(np.int64)
    negative = rng.random(keys.shape[0]) < 0.06
    keys[negative] = -rng.integers(1, 2**31, size=int(negative.sum()))
    absent = ~negative & (rng.random(keys.shape[0]) < 0.05)
    keys[absent] = rng.integers(2**31, 2**32 - 1, size=int(absent.sum()))
    stream = RequestStream(
        arrival_ms=tenants.arrival_ms,
        keys=keys,
        client_ids=tenants.client_ids,
        tenant_ids=tenants.tenant_ids,
    )
    config = ServeConfig(
        num_shards=2,
        key_bits=32,
        cache_capacity=128,
        replication_factor=2,
        max_wait_ms=0.3,
        tenants=(
            TenantQoS(
                tenant=1, priority=0, rate_limit_per_ms=16.0, burst=8.0, cache_share=0.25
            ),
            TenantQoS(tenant=2, priority=2, cache_share=0.25),
        ),
        max_queue_depth=6,
        store_dir=str(tmp_path / "store"),
        store_fsync=False,
        tracing=True,
        reliability=ReliabilityConfig(deadline_ms=0.25, stale_reads=True),
    )
    deployment = ShardedIndex(keyset.keys, keyset.row_ids, config=config)
    deployment.inject_failures(
        [
            FailureEvent(
                at_ms=4.0, kind="crash", shard_id=shard, replica_id=replica, duration_ms=3.0
            )
            for shard in range(2)
            for replica in range(2)
        ]
    )
    return deployment, stream


def _adaptive(tmp_path):
    keyset = generate_keys(num_keys=4096, uniformity=0.5, key_bits=64, seed=62)
    stream = shifting_hotspot_stream(
        keyset, count=1200, num_phases=3, requests_per_ms=300.0, seed=5
    )
    config = ServeConfig(
        num_shards=4,
        cache_capacity=64,
        max_batch_size=64,
        max_wait_ms=0.05,
        reshard=True,
        reshard_interval_ms=0.5,
        reshard_max_shards=12,
        reshard_min_split_entries=64,
        tracing=True,
    )
    return ShardedIndex(keyset.keys, keyset.row_ids, config=config), stream


def _plain(value):
    """Numpy scalars as Python scalars, so digests do not depend on reprs."""
    return value.item() if isinstance(value, np.generic) else value


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(deployment, metrics) -> dict:
    rows, counts = deployment.last_answers
    outcomes = deployment.last_outcomes
    snapshot = {
        key: _plain(value)
        for key, value in metrics.snapshot().items()
        if key not in WALL_SNAPSHOT_KEYS
    }
    spans = [
        (
            span.name,
            span.category,
            span.trace_id,
            span.span_id,
            span.parent_id,
            _plain(span.start_ms),
            None if span.name.startswith("store.") else _plain(span.duration_ms),
            span.lane,
            tuple(
                (key, _plain(value)) for key, value in (span.attributes or {}).items()
            ),
        )
        for span in deployment.tracer.spans
    ]
    return {
        "outcome_counts": np.bincount(outcomes, minlength=5).tolist(),
        "answers": hashlib.sha256(rows.tobytes() + counts.tobytes()).hexdigest(),
        "outcomes": hashlib.sha256(outcomes.tobytes()).hexdigest(),
        "snapshot": _sha(repr(snapshot)),
        "spans": _sha(repr(spans)),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_served_path_matches_its_golden_digests(name, tmp_path):
    deployment, stream = {"degraded": _degraded, "adaptive": _adaptive}[name](tmp_path)
    metrics = deployment.serve_stream(stream, record_answers=True)
    assert _digests(deployment, metrics) == GOLDEN[name]
