"""Index serving: sharding, request batching, caching, background maintenance.

The paper's indexes are single-instance, bulk-call structures; this package
turns any of them into a served deployment:

* :mod:`repro.serve.partition` — range/hash key-space partitioning,
* :mod:`repro.serve.router` — scatter/gather over per-shard index instances,
* :mod:`repro.serve.batching` — coalescing client requests into device-sized
  batches (the paper's lookups only amortise at large batch sizes),
* :mod:`repro.serve.cache` — LRU result + negative cache with accounting,
* :mod:`repro.serve.maintenance` — queueable background tasks that rebuild
  degraded shards and resync recovered replicas off the request path, plus
  the load-skew-driven shard split/merge policy,
* :mod:`repro.serve.qos` — per-tenant admission control and load shedding
  (token-bucket rate limits, saturation/overload backlog thresholds),
* :mod:`repro.serve.replication` — per-shard replica groups: load-balanced
  reads, quorum-acknowledged write fan-out with apply logs, failure
  injection (crash/slow/transient) with automatic failover, and catch-up of
  recovered replicas, and
* :mod:`repro.serve.metrics` — p50/p99 latency, throughput, hit-rate,
  shard-skew and availability/failover telemetry (a façade over the labeled
  :class:`repro.obs.TelemetryRegistry` substrate).

:class:`~repro.serve.sharded.ShardedIndex` composes all of it behind the
:class:`~repro.baselines.base.GpuIndex` interface.  Arm
``ServeConfig(tracing=True)`` for per-request tracing via
:mod:`repro.obs` (spans on the simulated clock, Chrome trace export) and
``ServeConfig(telemetry_sample_interval_ms=...)`` for periodic
time-series sampling of every labeled instrument.
"""

from repro.serve.batching import Batch, BatchPolicy, BatchScheduler
from repro.serve.cache import CacheStats, ResultCache
from repro.serve.maintenance import (
    MaintenancePolicy,
    MaintenanceQueue,
    MaintenanceTask,
    MaintenanceWorker,
    ReshardPolicy,
    queueable,
)
from repro.serve.metrics import LatencyHistogram, MetricsRegistry, shard_skew
from repro.serve.qos import (
    UNLABELED_TENANT,
    AdmissionController,
    ShedDecision,
    TenantQoS,
)
from repro.serve.reliability import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    ReliabilityConfig,
    ReliabilityState,
)
from repro.serve.partition import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    make_partitioner,
)
from repro.serve.replication import (
    DOWN,
    HEALTHY,
    RECOVERING,
    FailureEvent,
    FailureInjector,
    Replica,
    ReplicaGroup,
    ReplicatedShardRouter,
    ReplicationConfig,
    SimulatedClock,
)
from repro.serve.router import ShardRouter
from repro.serve.sharded import (
    ANSWERED,
    DEADLINE_EXCEEDED,
    SHED,
    STALE,
    UNAVAILABLE,
    ServeConfig,
    ShardedIndex,
)

__all__ = [
    "ANSWERED",
    "AdmissionController",
    "Batch",
    "BatchPolicy",
    "BatchScheduler",
    "CacheStats",
    "DEADLINE_EXCEEDED",
    "DOWN",
    "FailureEvent",
    "FailureInjector",
    "HEALTHY",
    "HashPartitioner",
    "LatencyHistogram",
    "MaintenancePolicy",
    "MaintenanceQueue",
    "MaintenanceTask",
    "MaintenanceWorker",
    "MetricsRegistry",
    "Partitioner",
    "RECOVERING",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "RangePartitioner",
    "ReliabilityConfig",
    "ReliabilityState",
    "Replica",
    "ReplicaGroup",
    "ReplicatedShardRouter",
    "ReplicationConfig",
    "ReshardPolicy",
    "ResultCache",
    "ServeConfig",
    "ShardRouter",
    "SHED",
    "STALE",
    "ShardedIndex",
    "ShedDecision",
    "SimulatedClock",
    "TenantQoS",
    "UNAVAILABLE",
    "UNLABELED_TENANT",
    "make_partitioner",
    "queueable",
    "shard_skew",
]
