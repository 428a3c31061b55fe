"""`ShardedIndex`: a served, sharded deployment behind the `GpuIndex` interface.

The facade composes the serving layers — shard router, LRU result/negative
cache, request batch scheduler, background maintenance worker and telemetry
registry — while still *being* a :class:`~repro.baselines.base.GpuIndex`:
bulk-call benchmarks (and the contract tests) drive it exactly like any
single-instance baseline, and :meth:`serve_stream` additionally serves a
timed client request stream the way a deployment would.

Simulated-time accounting: shards execute concurrently, so the deployment's
bulk-load time is the slowest shard's build (makespan), foreground lookup
stats aggregate all shard kernels, and maintenance work is accounted on the
worker (off the request path) rather than in the foreground results.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from repro.baselines.base import (
    GpuIndex,
    LookupResult,
    RangeLookupResult,
    UpdateResult,
)
from repro.baselines.sorted_array import SortedArrayIndex
from repro.gpu.device import RTX_4090, GpuDevice
from repro.gpu.kernels import KernelStats, combine
from repro.gpu.memory import MemoryFootprint
from repro.obs.trace import Tracer
from repro.serve.batching import BatchPolicy, BatchScheduler
from repro.serve.cache import ResultCache
from repro.serve.maintenance import MaintenancePolicy, MaintenanceWorker, ReshardPolicy
from repro.serve.metrics import MetricsRegistry
from repro.serve.qos import UNLABELED_TENANT, AdmissionController, TenantQoS
from repro.serve.reliability import ReliabilityConfig, ReliabilityState
from repro.serve.replication import (
    FailureInjector,
    ReplicatedShardRouter,
    ReplicationConfig,
    SimulatedClock,
)
from repro.serve.router import ShardFactory, ShardRouter
from repro.store import DeploymentStore, LocalDirBackend
from repro.workloads.keygen import KeySet
from repro.workloads.requests import RequestStream

#: Outcome codes of :attr:`ShardedIndex.last_outcomes`, one per request.
#: A degraded answer that also missed its deadline is ``DEADLINE_EXCEEDED``.
ANSWERED = 0  # answered in time; the only outcome compared with an oracle
SHED = 1  # refused by admission control, never served
DEADLINE_EXCEEDED = 2  # the client stopped waiting at its deadline
UNAVAILABLE = 3  # no replica answered: an explicit miss-shaped partial result
STALE = 4  # answered from the last durable state instead of a live replica

#: Host-side latency charged to a request answered without the device: a
#: cache hit or a negative key.
CACHE_LATENCY_MS = 0.01


@dataclass(frozen=True)
class ServeConfig:
    """Configuration of a served deployment.

    A stream's batches follow :attr:`max_batch_size` and :attr:`max_wait_ms`,
    a request answered without the device costs :data:`CACHE_LATENCY_MS`, and
    a replicated shard acknowledges writes at a majority of its replicas.
    """

    #: Number of index shards.
    num_shards: int = 4
    #: Key-space partitioning strategy: ``"range"`` or ``"hash"``.
    partitioner: str = "range"
    #: Key width of the deployment.
    key_bits: int = 64
    #: Result-cache entries (0 disables the cache).
    cache_capacity: int = 4096
    #: Dispatch a shard batch at this size.
    max_batch_size: int = 4096
    #: ... or after the oldest queued request waited this long.
    max_wait_ms: float = 1.0
    #: Degradation score at which the maintenance worker rebuilds a shard.
    rebuild_threshold: float = 0.5
    #: Degradation score at which the maintenance worker starts compacting
    #: a shard's hottest-chained buckets (the cheap first tier; set it at or
    #: above ``rebuild_threshold`` to disable incremental compaction).
    compact_threshold: float = 0.2
    #: How full shard rebuilds swap in: ``"double_buffered"`` (background
    #: build + atomic swap, zero unavailability) or ``"stop_the_world"``
    #: (unreplicated deployments only).
    rebuild_mode: str = "double_buffered"
    #: Replicas per shard (1 = unreplicated, the plain shard router).
    replication_factor: int = 1
    #: Read-balancing policy across a shard's replicas.
    read_policy: str = "round_robin"
    #: Apply-log records retained per shard for replica catch-up.
    log_capacity: int = 64
    #: Arm the request tracer: every served request, batch execution,
    #: replica read/failover and maintenance window records a span on the
    #: simulated clock (exportable as Chrome trace-event JSON).  Tracing is
    #: behavior-neutral: answers and metrics are byte-identical either way.
    tracing: bool = False
    #: Period (simulated ms) of time-series telemetry snapshots during
    #: serving; 0 disables sampling.
    telemetry_sample_interval_ms: float = 0.0
    #: Per-tenant QoS contracts (priorities, rate limits, reserved cache
    #: shares); ``None`` serves every request unconditionally.
    tenants: Optional[Tuple[TenantQoS, ...]] = None
    #: Deployment-wide queued backlog at which low-priority tenants are shed
    #: (0 disables saturation shedding; rate limits still apply).
    max_queue_depth: int = 0
    #: Backlog multiple of ``max_queue_depth`` past which *every* request is
    #: shed.
    hard_limit_factor: float = 2.0
    #: Enable dynamic shard split/merge driven by observed load skew
    #: (range-partitioned, unreplicated deployments only).
    reshard: bool = False
    #: How often (simulated ms) the serving loop re-evaluates the topology.
    reshard_interval_ms: float = 50.0
    #: Split the hottest shard once its windowed load exceeds this multiple
    #: of the mean per-shard load.
    reshard_split_skew: float = 2.0
    #: Topology ceiling for splits.
    reshard_max_shards: int = 64
    #: Never split a shard storing fewer entries than this.
    reshard_min_split_entries: int = 128
    #: Durable-tier directory: when set, the deployment attaches a
    #: :class:`repro.store.DeploymentStore` over a
    #: :class:`repro.store.LocalDirBackend` rooted here — every acknowledged
    #: write batch is WAL-logged before its ack, the maintenance worker takes
    #: periodic checkpoints, and :meth:`ShardedIndex.cold_start` can rebuild
    #: the deployment from the directory after a process exit.
    store_dir: Optional[str] = None
    #: Whether every durable put carries an fsync barrier (the overhead knob
    #: the durability experiment measures).
    store_fsync: bool = True
    #: WAL records accumulated behind a checkpoint before the maintenance
    #: worker takes the next one.
    checkpoint_wal_records: int = 32
    #: Tail-tolerance layer (:class:`repro.serve.reliability.ReliabilityConfig`):
    #: request deadlines, per-shard retry budgets, hedged reads, per-replica
    #: circuit breakers and explicit partial results.  ``None`` keeps the
    #: classic never-give-up read semantics.
    reliability: Optional[ReliabilityConfig] = None

    def describe(self) -> str:
        cache = f"cache={self.cache_capacity}" if self.cache_capacity else "no-cache"
        label = f"sharded({self.partitioner}x{self.num_shards}, {cache})"
        if self.replication_factor > 1:
            label = (
                f"replicated({self.partitioner}x{self.num_shards}"
                f"x{self.replication_factor}, {self.read_policy}, {cache})"
            )
        if self.reshard:
            label = f"adaptive-{label}"
        if self.tenants:
            label = f"{label}+qos"
        if self.reliability is not None:
            label = f"{label}+rel"
        return label

    def replication(self) -> "ReplicationConfig":
        """The per-shard replica-group configuration this config implies."""
        return ReplicationConfig(
            replication_factor=self.replication_factor,
            read_policy=self.read_policy,
            log_capacity=self.log_capacity,
        )


def _default_factory(keyset: KeySet, device: GpuDevice) -> GpuIndex:
    return SortedArrayIndex(
        keyset.keys, keyset.row_ids, key_bits=keyset.key_bits, device=device
    )


class ShardedIndex(GpuIndex):
    """Sharded, cached, batch-served deployment of any `GpuIndex` type."""

    name = "sharded"
    supports_point = True
    supports_range = True
    supports_64bit = True
    supports_updates = True
    supports_bulk_load = True
    memory_class = "med"

    def __init__(
        self,
        keys: np.ndarray,
        row_ids: Optional[np.ndarray] = None,
        factory: Optional[ShardFactory] = None,
        config: Optional[ServeConfig] = None,
        device: GpuDevice = RTX_4090,
    ) -> None:
        super().__init__(device)
        self.config = config or ServeConfig()
        self.name = self.config.describe()
        self._key_dtype = np.uint32 if self.config.key_bits == 32 else np.uint64
        if self.config.reshard:
            if self.config.partitioner != "range":
                raise ValueError(
                    "dynamic resharding needs the range partitioner "
                    "(hash placement has no boundaries to move)"
                )
            if self.config.replication_factor > 1:
                raise ValueError(
                    "dynamic resharding is not supported on replicated "
                    "deployments"
                )
        replicated = self.config.replication_factor > 1
        if replicated and self.config.rebuild_mode == "stop_the_world":
            raise ValueError("replica groups rebuild rolling (double_buffered) only")

        keys = np.asarray(keys, dtype=self._key_dtype)
        if row_ids is None:
            row_ids = np.arange(keys.shape[0], dtype=np.uint32)
        row_ids = np.asarray(row_ids, dtype=np.uint32)

        #: Simulated clock driving failure injection and replica recovery.
        self.clock = SimulatedClock()
        layout = dict(
            factory=factory or _default_factory,
            num_shards=self.config.num_shards,
            partitioner=self.config.partitioner,
            key_bits=self.config.key_bits,
            device=device,
        )
        if self.config.replication_factor > 1:
            self.router: ShardRouter = ReplicatedShardRouter(
                keys,
                row_ids,
                replication=self.config.replication(),
                clock=self.clock,
                **layout,
            )
        else:
            self.router = ShardRouter(keys, row_ids, **layout)
        #: Tail-tolerance machinery shared by every replica group (``None``
        #: when :attr:`ServeConfig.reliability` is unset): retry budgets,
        #: hedging quantiles, circuit breakers and their counters.
        self.reliability: Optional[ReliabilityState] = None
        if self.config.reliability is not None:
            self.reliability = ReliabilityState(self.config.reliability, self.clock)
        #: Failure-schedule replayer (armed by :meth:`inject_failures`).
        self.failures: Optional[FailureInjector] = None
        #: Per-tenant admission control (None = serve everything).
        self.admission: Optional[AdmissionController] = None
        if self.config.tenants or self.config.max_queue_depth:
            self.admission = AdmissionController(
                tenants=self.config.tenants or (),
                max_queue_depth=self.config.max_queue_depth,
                hard_limit_factor=self.config.hard_limit_factor,
            )
        cache_partitions = (
            self.admission.cache_partitions() if self.admission is not None else {}
        )
        self.cache: Optional[ResultCache] = (
            ResultCache(self.config.cache_capacity, partitions=cache_partitions or None)
            if self.config.cache_capacity
            else None
        )
        self.maintenance = MaintenanceWorker(
            self.router,
            policy=MaintenancePolicy(
                rebuild_threshold=self.config.rebuild_threshold,
                compact_threshold=self.config.compact_threshold,
                rebuild_mode=self.config.rebuild_mode,
                checkpoint_wal_records=self.config.checkpoint_wal_records,
            ),
            cache=self.cache,
            reshard_policy=ReshardPolicy(
                enabled=self.config.reshard,
                interval_ms=self.config.reshard_interval_ms,
                split_skew=self.config.reshard_split_skew,
                min_split_entries=self.config.reshard_min_split_entries,
                max_shards=self.config.reshard_max_shards,
            ),
        )
        #: Durable tier (armed via ``ServeConfig.store_dir`` or
        #: :meth:`attach_store`); ``None`` keeps the deployment memory-only.
        self.store: Optional[DeploymentStore] = None
        #: Per-shard recovery reports of the last :meth:`cold_start`.
        self.last_recovery: Optional[dict] = None
        #: Request tracer on the simulated clock (spans only when armed via
        #: ``ServeConfig.tracing`` or by flipping ``tracer.enabled``).
        self.tracer = Tracer(clock=self.clock, enabled=self.config.tracing)
        self.router.tracer = self.tracer
        #: Cumulative telemetry over every served stream (serve_stream default).
        self.metrics = MetricsRegistry(num_shards=self.config.num_shards)
        if self.config.telemetry_sample_interval_ms > 0.0:
            self.metrics.telemetry.sample_interval_ms = (
                self.config.telemetry_sample_interval_ms
            )
        self.router.partitioner.route_counter = self.metrics.telemetry.counter(
            "serve_partition_keys_routed_total", kind=self.router.partitioner.kind
        )
        self._bind_group_metrics(self.metrics)
        #: Per-request answers of the last ``serve_stream(record_answers=True)``,
        #: as ``(row_ids, match_counts)`` arrays indexed by request id
        #: (``None`` after a stream served without recording).
        self.last_answers = None
        #: The outcome code of every request of that stream (int8, see
        #: :data:`ANSWERED`); oracle checks compare ``ANSWERED`` requests only.
        self.last_outcomes = None
        self.build_stats = [
            stats
            for shard in self.router.shards
            if shard.index is not None
            for stats in shard.index.build_stats
        ]
        if self.config.store_dir:
            self.attach_store(
                DeploymentStore(
                    LocalDirBackend(self.config.store_dir, fsync=self.config.store_fsync),
                    key_bits=self.config.key_bits,
                )
            )

    # ------------------------------------------------------------- durability

    def attach_store(self, store: DeploymentStore) -> DeploymentStore:
        """Arm the durable tier: WAL-before-ack plus periodic checkpoints.

        Attaching *rebases* the store on the deployment's current state —
        every shard gets a fresh checkpoint at its current LSN and stale WAL
        records are dropped — so attach is also how a recovered deployment
        re-arms durability after :meth:`cold_start`.
        """
        store.metrics = self.metrics
        store.tracer = self.tracer
        store.clock = self.clock
        store.key_bits = self.config.key_bits
        self.store = store
        self.router.store = store
        self.maintenance.store = store
        for group in self.router.groups.values():
            group.store = store
        store.checkpoint_deployment(self.router)
        return store

    @classmethod
    def cold_start(
        cls,
        store: DeploymentStore,
        factory: Optional[ShardFactory] = None,
        config: Optional[ServeConfig] = None,
        device: GpuDevice = RTX_4090,
    ) -> "ShardedIndex":
        """Rebuild a deployment from its durable store after a process exit.

        Every shard is recovered to the latest valid checkpoint plus its WAL
        tail (torn tail records truncated, corrupt ones skipped and counted),
        the deployment is bulk-loaded from the recovered entries, and the
        store is re-attached (rebased) so serving continues durably.  The
        per-shard recovery reports land in :attr:`last_recovery`.
        """
        manifest = store.read_manifest()
        config = config or ServeConfig()
        # The passed store is re-attached below; store_dir=None keeps the
        # constructor from arming a second one over the same directory.
        config = replace(
            config,
            num_shards=int(manifest["num_shards"]),
            partitioner=str(manifest["partitioner"]),
            key_bits=int(manifest["key_bits"]),
            store_dir=None,
        )
        recoveries = [
            store.recover_shard(shard_id)
            for shard_id in range(int(manifest["num_shards"]))
        ]
        key_dtype = np.uint32 if config.key_bits == 32 else np.uint64
        keys = np.concatenate(
            [recovery.keys for recovery in recoveries]
            or [np.empty(0, dtype=key_dtype)]
        ).astype(key_dtype)
        row_ids = np.concatenate(
            [recovery.row_ids for recovery in recoveries]
            or [np.empty(0, dtype=np.uint32)]
        ).astype(np.uint32)
        deployment = cls(
            keys, row_ids, factory=factory, config=config, device=device
        )
        deployment.attach_store(store)
        deployment.last_recovery = {
            "num_shards": len(recoveries),
            "entries_recovered": int(sum(r.num_entries for r in recoveries)),
            "records_replayed": int(sum(r.replayed for r in recoveries)),
            "torn_truncated": int(sum(r.torn_truncated for r in recoveries)),
            "corrupt_skipped": int(sum(r.corrupt_skipped for r in recoveries)),
            "recovery_wall_ms": float(sum(r.wall_ms for r in recoveries)),
            "shards": [
                {
                    "shard_id": r.shard_id,
                    "entries": r.num_entries,
                    "checkpoint_lsn": r.checkpoint_lsn,
                    "lsn": r.lsn,
                    "replayed": r.replayed,
                    "wall_ms": r.wall_ms,
                }
                for r in recoveries
            ],
        }
        return deployment

    # ------------------------------------------------------------------ build

    @property
    def build_time_ms(self) -> float:
        """Shards bulk-load concurrently: the deployment is ready at the makespan."""
        return self.router.build_time_ms()

    # ---------------------------------------------------------------- lookups

    def point_lookup_batch(self, keys: np.ndarray) -> LookupResult:
        # Signed batches keep their dtype: the router clamps negative keys
        # below the unsigned keyspace, and an eager uint cast here would wrap
        # them onto stored keys instead (and poison the cache with aliases).
        keys = np.asarray(keys)
        if not np.issubdtype(keys.dtype, np.signedinteger):
            keys = keys.astype(self._key_dtype)
        num = int(keys.shape[0])
        if self.cache is None:
            return self.router.point_lookup_batch(keys)

        cached, row_agg, counts = self.cache.probe_batch(keys)
        # The cache is a host-side hash map in front of the device: pure
        # compute, no kernel launch.
        parts = [KernelStats(name="serve.cache_probe", compute_ops=num, launches=0)]
        uncached = np.where(~cached)[0]
        if uncached.shape[0]:
            served = self.router.point_lookup_batch(keys[uncached])
            row_agg[uncached] = served.row_ids
            counts[uncached] = served.match_counts
            # Miss-shaped answers of unavailable shards never enter the cache:
            # they would poison later fresh reads.
            fill = ~np.isin(
                self.router.last_shard_ids, self.router.last_unavailable_shards
            )
            self.cache.fill_batch(
                keys[uncached][fill], served.row_ids[fill], served.match_counts[fill]
            )
            parts.append(served.stats)
        stats = combine("serve.point_lookup", parts)
        return LookupResult(row_ids=row_agg, match_counts=counts, stats=stats)

    def range_lookup_batch(self, lows: np.ndarray, highs: np.ndarray) -> RangeLookupResult:
        # Range results are not cached: their result sets are unbounded and
        # update invalidation would have to track interval overlaps.  The
        # raw (possibly signed) endpoints go straight to the router, whose
        # span computation clamps negatives instead of wrapping them.
        return self.router.range_lookup_batch(np.asarray(lows), np.asarray(highs))

    # ---------------------------------------------------------------- updates

    def update_batch(
        self,
        insert_keys: Optional[np.ndarray] = None,
        insert_row_ids: Optional[np.ndarray] = None,
        delete_keys: Optional[np.ndarray] = None,
    ) -> UpdateResult:
        """Route the update, invalidate the cache, kick background maintenance."""
        if self.cache is not None:
            # Exact-key invalidation is sufficient for correctness: a cached
            # entry (positive or negative) is only stale if its own key was
            # inserted or deleted.  Blanket negative trimming is left to the
            # maintenance worker.
            if insert_keys is not None:
                self.cache.invalidate_keys(np.asarray(insert_keys))
            if delete_keys is not None:
                self.cache.invalidate_keys(np.asarray(delete_keys))
        result = self.router.update_batch(
            insert_keys=insert_keys,
            insert_row_ids=insert_row_ids,
            delete_keys=delete_keys,
        )
        # Maintenance runs off the request path: degraded shards are queued
        # and healed here, but the time is accounted on the worker, not on
        # the foreground update result.
        self.maintenance.run_cycle(self.clock.now_ms)
        return result

    # ------------------------------------------------------------ replication

    def inject_failures(self, events) -> FailureInjector:
        """Arm a failure schedule (crash/slow/transient events) for serving.

        The events replay on the simulated clock as requests arrive; only
        replicated deployments (``replication_factor > 1``) can be armed.
        """
        if self.config.replication_factor < 2:
            raise ValueError(
                "failure injection needs a replicated deployment "
                "(ServeConfig.replication_factor > 1)"
            )
        injector = FailureInjector(self.router, list(events))
        if self.failures is not None:
            # Faults the previous schedule already applied must still expire.
            injector.adopt_pending_ends(self.failures)
        injector.telemetry = self.metrics.telemetry
        self.failures = injector
        return self.failures

    def _bind_group_metrics(self, metrics: MetricsRegistry) -> None:
        """Point the replica groups' and the maintenance worker's telemetry
        at the active registry, so a stream served into a caller-provided
        registry gets the failover, availability and maintenance-window
        records too (not just request latency)."""
        self.maintenance.metrics = metrics
        self.maintenance.tracer = self.tracer
        if self.store is not None:
            self.store.metrics = metrics
            self.store.tracer = self.tracer
        if self.failures is not None:
            self.failures.telemetry = metrics.telemetry
        for group in self.router.groups.values():
            group.metrics = metrics
            group.tracer = self.tracer
            group.reliability = self.reliability

    def _poll_failures(self, now_ms: float) -> None:
        """Advance the clock; apply due failure transitions; heal off-path."""
        self.clock.advance(now_ms)
        if self.failures is None:
            return
        if self.failures.poll(now_ms):
            # Recovered replicas re-enter via the maintenance worker: scan
            # spots the RECOVERING state and runs the resync task off-path.
            self.maintenance.run_cycle(now_ms)

    def replication_snapshot(self) -> Optional[dict]:
        """Replica/availability report (None for unreplicated deployments)."""
        return self.router.replication_snapshot()

    # ----------------------------------------------------------------- memory

    def memory_footprint(self) -> MemoryFootprint:
        footprint = MemoryFootprint()
        for shard in self.router.shards:
            if shard.index is not None:
                footprint.add(
                    f"shard_{shard.shard_id}",
                    shard.index.memory_footprint().total_bytes,
                )
        # The compiled tier's arenas and batch buffers are host memory, not
        # simulated device memory: the maintenance snapshot reports them
        # (``compiled_arena_bytes``), so this footprint stays independent of
        # the engine and of the query history.
        if self.cache is not None:
            # Host-side entry: key + aggregate + count + LRU links.
            footprint.add("result_cache", len(self.cache) * (self.config.key_bits // 8 + 24))
        return footprint

    def degradation_score(self) -> float:
        """Worst degradation over all shards."""
        scores = [
            shard.index.degradation_score()
            for shard in self.router.shards
            if shard.index is not None
        ]
        return max(scores) if scores else 0.0

    def __len__(self) -> int:
        return self.router.num_entries

    # ---------------------------------------------------------------- serving

    def serve_stream(
        self,
        stream: RequestStream,
        metrics: Optional[MetricsRegistry] = None,
        record_answers: bool = False,
    ) -> MetricsRegistry:
        """Serve a timed client request stream through the batching layer.

        Each request passes the stages admit → negative-key → cache →
        schedule → execute → complete: admission control may shed it, a
        negative key or a cache hit is answered at host latency, and every
        other request rides a batch of its shard, dispatched at
        ``ServeConfig.max_batch_size`` requests or ``max_wait_ms`` after the
        oldest arrived, so its latency is its queueing delay plus the batch's
        device time.  An armed failure schedule (:meth:`inject_failures`)
        replays on the same clock.
        Returns the registry the stream recorded into: :attr:`metrics` unless
        a separate one is passed.  With ``record_answers=True``,
        :attr:`last_answers` holds the ``(row_ids, match_counts)`` answers by
        request id and :attr:`last_outcomes` their outcome codes; otherwise
        both are ``None``.
        """
        metrics = metrics or self.metrics
        self._bind_group_metrics(metrics)
        run = _Stream(self, stream, metrics, record_answers)
        arrivals = stream.arrival_ms.tolist()
        for request_id, (arrival_ms, key, tenant) in enumerate(
            zip(arrivals, run.keys.tolist(), run.tenants)
        ):
            self._advance(run, arrival_ms)
            if self.admission is not None and not self._admit(
                run, request_id, arrival_ms, tenant
            ):
                continue
            if key < 0:
                self._answer_negative_key(run, request_id, arrival_ms)
            elif not self._probe_cache(run, request_id, arrival_ms, key, tenant):
                self._schedule(run, request_id, arrival_ms, key, tenant)
        self._close_stream(run, arrivals[-1] if arrivals else 0.0)
        return metrics

    def _close_stream(self, run: "_Stream", last_arrival_ms: float) -> None:
        """Drain the queues, then publish the stream's telemetry and record."""
        end_ms = last_arrival_ms + run.scheduler.policy.max_wait_ms
        self._poll_failures(end_ms)
        self._execute(run, run.scheduler.drain(end_ms))
        self._commit_fills(run, float("inf"))
        telemetry = run.metrics.telemetry
        if self.cache is not None:
            self.cache.publish_telemetry(telemetry)
        if telemetry.sample_interval_ms:
            telemetry.sample(self.clock.now_ms)
        # Outages still in progress count against this stream's availability
        # up to the point serving stopped.
        for group in self.router.groups.values():
            group.flush_unavailability(self.clock.now_ms)
        # The caller's registry was only bound for this stream; maintenance
        # and group telemetry afterwards report to the deployment's own again.
        self._bind_group_metrics(self.metrics)
        self.last_answers = None if run.outcomes is None else (run.rows, run.counts)
        self.last_outcomes = run.outcomes

    def _advance(self, run: "_Stream", now_ms: float) -> None:
        """Move the stream to ``now_ms``: replay due failures, execute the
        batches whose wait expired and make their completed results visible
        to the cache — even when the next request is answered from cache."""
        telemetry = run.metrics.telemetry
        if telemetry.sample_interval_ms:
            telemetry.maybe_sample(now_ms)
        self._poll_failures(now_ms)
        due = run.scheduler.poll(now_ms)
        if due:
            self._execute(run, due)
        if run.pending_fills:
            self._commit_fills(run, now_ms)

    def _admit(
        self, run: "_Stream", request_id: int, arrival_ms: float, tenant: int
    ) -> bool:
        """Admit stage: shed the request when admission control refuses it.

        The backlog it sheds against is the requests still queued plus those
        inside dispatched batches that have not completed yet.
        """
        inflight = run.inflight
        while inflight and inflight[0][0] <= arrival_ms:
            run.inflight_count -= heapq.heappop(inflight)[1]
        decision = self.admission.admit(
            tenant, arrival_ms, run.scheduler.total_pending + run.inflight_count
        )
        if decision.admitted:
            return True
        run.metrics.record_shed(tenant, decision.reason)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                "admission.shed",
                arrival_ms,
                0.0,
                "serve",
                "requests",
                tracer.new_trace_id(),
                None,
                {"request_id": request_id, "tenant": tenant, "reason": decision.reason},
            )
        self._complete(run, request_id, SHED)
        return False

    def _answer_negative_key(self, run: "_Stream", request_id: int, arrival_ms: float) -> None:
        """Negative-key stage: signed keys below the unsigned keyspace are
        definitional misses, answered host-side at cache latency; they never
        enter a batch (batch keys are unsigned)."""
        run.metrics.bump("negative_key_misses")
        latency_ms = CACHE_LATENCY_MS
        self._complete(
            run, request_id, ANSWERED, arrival_ms, latency_ms, arrival_ms + latency_ms
        )

    def _probe_cache(
        self, run: "_Stream", request_id: int, arrival_ms: float, key: int, tenant: int
    ) -> bool:
        """Cache stage: answer a hit at host latency; returns whether it hit."""
        if self.cache is None:
            return False
        entry = self.cache.get(key, tenant=tenant if tenant >= 0 else None)
        tracer = self.tracer
        if entry is None:
            run.metrics.bump("cache_misses")
            if tracer.enabled:
                # The miss probe joins the request's trace; the root span
                # is recorded when the batch carrying it completes.
                trace_id = run.trace_ids[request_id] = tracer.new_trace_id()
                tracer.emit(
                    "cache.probe",
                    arrival_ms,
                    0.0,
                    "cache",
                    "cache",
                    trace_id,
                    None,
                    {"request_id": request_id, "hit": False},
                )
            return False
        negative = entry.match_count == 0
        run.metrics.bump("cache_negative_hits" if negative else "cache_hits")
        latency_ms = CACHE_LATENCY_MS
        if tracer.enabled:
            trace_id = tracer.new_trace_id()
            root = tracer.emit(
                "request",
                arrival_ms,
                latency_ms,
                "request",
                "requests",
                trace_id,
                None,
                {"request_id": request_id, "cache_hit": True},
            )
            tracer.emit(
                "cache.probe",
                arrival_ms,
                latency_ms,
                "cache",
                "cache",
                trace_id,
                root.span_id,
                {"hit": True, "negative": negative},
            )
        self._complete(
            run,
            request_id,
            ANSWERED,
            arrival_ms,
            latency_ms,
            arrival_ms + latency_ms,
            entry.row_agg,
            entry.match_count,
        )
        return True

    def _schedule(
        self, run: "_Stream", request_id: int, arrival_ms: float, key: int, tenant: int
    ) -> None:
        """Schedule stage: queue the request on its shard, execute the
        batches that fell due, and re-evaluate the topology every reshard
        interval."""
        shard_id = run.shard_of[request_id]
        due = run.scheduler.offer(shard_id, request_id, key, arrival_ms, tenant_id=tenant)
        if due:
            self._execute(run, due)
        if run.reshard_at_ms is not None:
            run.window_shards.append(shard_id)
            run.window_keys.append(key)
            if arrival_ms >= run.reshard_at_ms:
                self._reshard(run, arrival_ms)

    def _reshard(self, run: "_Stream", now_ms: float) -> None:
        """Evaluate the reshard policy at an interval boundary.

        In-flight batches are flushed first so no queued request crosses a
        topology change with a stale shard id; with the queues empty the
        split or merge builds and swaps in its replacements in one call
        between two requests, so no request or write is lost or misrouted
        (zero-downtime by construction).
        """
        self._execute(run, run.scheduler.drain(now_ms))
        self._commit_fills(run, now_ms)
        ops = self.maintenance.run_reshard(
            now_ms,
            np.asarray(run.window_shards, dtype=np.int64),
            np.asarray(run.window_keys, dtype=np.int64),
        )
        run.window_shards.clear()
        run.window_keys.clear()
        run.reshard_at_ms = now_ms + self.maintenance.reshard_policy.interval_ms
        if not ops:
            return
        # Shard ids renumber across a topology change, and split/merge swaps
        # in freshly built index generations — stale device horizons would
        # charge the new shards for batches the old ones ran.
        run.busy_until.clear()
        run.metrics.num_shards = self.router.num_shards
        if self.store is not None:
            # Shard ids (and their LSN sequences) renumbered: rebase the
            # durable namespaces on the committed topology.
            self.store.checkpoint_deployment(self.router)
        run.shard_of = self.router.partitioner.shard_of(run.keys).tolist()

    def _commit_fills(self, run: "_Stream", now_ms: float) -> None:
        """Move completed batch results into the cache (simulated-time ordering)."""
        remaining = []
        for fill in run.pending_fills:
            completion_ms, fill_keys, row_agg, counts, fill_tenants = fill
            if completion_ms <= now_ms:
                self.cache.fill_batch(fill_keys, row_agg, counts, tenants=fill_tenants)
            else:
                remaining.append(fill)
        run.pending_fills = remaining

    def _execute(self, run: "_Stream", batches) -> None:
        """Execute stage: run each due batch on its shard, then complete its
        riders.

        A read the reliability layer abandoned comes back miss-shaped: its
        riders complete ``UNAVAILABLE``, or ``STALE`` when the durable store
        answers instead.  Neither answer enters the result cache: it would
        poison later fresh reads.
        """
        tracer = self.tracer
        metrics = run.metrics
        for batch in batches:
            shard_id = batch.shard_id
            index = self.router.shards[shard_id].index
            keys = batch.keys.astype(self._key_dtype)
            start_ms = max(batch.dispatch_ms, run.busy_until.get(shard_id, 0.0))
            engine = None
            exec_ms = overhead_ms = 0.0
            if index is None:
                rows = np.full(batch.size, -1, dtype=np.int64)
                counts = np.zeros(batch.size, dtype=np.int64)
            else:
                if self.reliability is not None and hasattr(index, "begin_read"):
                    # The batch's deadline is the laxest of its riders':
                    # requests coalesce, so the read is only abandoned once
                    # *every* rider is past its budget.
                    index.begin_read(
                        start_ms,
                        float(batch.arrival_ms.max()) + run.deadline_ms
                        if run.deadline_ms > 0
                        else None,
                    )
                span = None
                if tracer.enabled:
                    # The batch span is the propagation context: replica
                    # reads and engine kernels recorded below it become its
                    # children.  Its engine is known once the call returns.
                    span = tracer.push_span(
                        "batch.execute",
                        start_ms,
                        category="router",
                        lane=f"shard-{shard_id}",
                        shard=shard_id,
                        batch_size=batch.size,
                        reason=batch.reason,
                        engine=None,
                        epoch=getattr(index, "epoch", None),
                    )
                try:
                    result = index.point_lookup_batch(keys)
                finally:
                    if span is not None:
                        tracer.pop()
                rows, counts, engine = result.row_ids, result.match_counts, result.engine
                exec_ms = index.lookup_time_ms(result)
                overhead_ms = float(getattr(index, "last_overhead_ms", 0.0))
                if span is not None:
                    span.duration_ms = exec_ms
                    span.attributes["engine"] = engine
            outcome = ANSWERED
            if getattr(index, "last_read_unavailable", False):
                metrics.bump("requests_unavailable", batch.size)
                outcome = UNAVAILABLE
                stale = self._stale_lookup(run, shard_id, keys)
                if stale is not None:
                    rows, counts = stale
                    outcome = STALE
                    metrics.bump("stale_reads_served", batch.size)
                    self.reliability.bump("stale_reads_served", batch.size)
            done_ms = start_ms + exec_ms
            run.busy_until[shard_id] = done_ms
            heapq.heappush(run.inflight, (done_ms, batch.size))
            run.inflight_count += batch.size
            for request_id, arrival_ms, row, count in zip(
                batch.request_ids.tolist(),
                batch.arrival_ms.tolist(),
                rows.tolist(),
                counts.tolist(),
            ):
                self._complete(
                    run,
                    request_id,
                    outcome,
                    arrival_ms,
                    done_ms - arrival_ms,
                    done_ms,
                    row,
                    count,
                )
            if tracer.enabled:
                self._trace_riders(
                    run, batch, start_ms, done_ms, exec_ms - overhead_ms, overhead_ms, engine
                )
            metrics.record_shard_batch(shard_id, batch.size, exec_ms)
            metrics.bump(f"batches_{batch.reason}")
            if engine is not None:
                # Which batch engine actually ran (a compiled request may
                # have degraded to scalar).
                metrics.bump(f"engine_batches_{engine}")
            if self.cache is not None and outcome == ANSWERED:
                run.pending_fills.append((done_ms, keys, rows, counts, batch.tenant_ids))

    def _complete(
        self,
        run: "_Stream",
        request_id: int,
        outcome: int,
        arrival_ms: float = 0.0,
        latency_ms: float = 0.0,
        done_ms: float = 0.0,
        row: int = -1,
        count: int = 0,
    ) -> None:
        """Complete stage, the only place a request finishes.

        A served request records its latency, client and tenant; with
        recording on, every request stores its answer and its one outcome
        code.  A request still unanswered at its deadline completes there,
        ``DEADLINE_EXCEEDED`` whatever its answer: the client stopped
        waiting, so its latency is the deadline and its late answer is not
        compared with the oracle.  A shed request records its outcome only.
        """
        if outcome != SHED:
            metrics = run.metrics
            if run.deadline_ms > 0 and latency_ms > run.deadline_ms:
                latency_ms = run.deadline_ms
                done_ms = arrival_ms + latency_ms
                outcome = DEADLINE_EXCEEDED
                metrics.bump("deadline_exceeded")
            metrics.record_request(latency_ms, arrival_ms, done_ms)
            tenant = run.tenants[request_id]
            if tenant != UNLABELED_TENANT:
                metrics.record_tenant_request(tenant, latency_ms)
            metrics.record_client(run.client_ids[request_id])
        if run.outcomes is not None:
            run.rows[request_id] = row
            run.counts[request_id] = count
            run.outcomes[request_id] = outcome

    def _stale_lookup(self, run: "_Stream", shard_id: int, keys: np.ndarray):
        """Answer a batch from the shard's last durable state (checkpoint +
        WAL tail) when every live replica is out of reach.  Returns ``(row_agg,
        match_counts)`` mirroring the live duplicate-aware aggregate
        semantics, or ``None`` when stale reads are off or the store has
        nothing for the shard."""
        if self.store is None or not self.reliability.config.stale_reads:
            return None
        table = run.stale_tables.get(shard_id)
        if table is None:
            try:
                recovery = self.store.recover_shard(shard_id)
            except (KeyError, FileNotFoundError, ValueError):
                return None
            table = run.stale_tables[shard_id] = SortedArrayIndex(
                recovery.keys, recovery.row_ids, key_bits=self.config.key_bits
            )
        answer = table.point_lookup_batch(keys)
        return answer.row_ids, answer.match_counts

    def _trace_riders(
        self, run, batch, exec_start, completion_ms, device_ms, overhead_ms, engine
    ) -> None:
        """Emit the per-request stage spans of one completed batch, tagged
        with the ``engine`` that executed it.

        Stage attribute dicts are built once per batch and shared across its
        requests (spans never mutate attributes after emission), and spans go
        through :meth:`Tracer.emit` directly — this loop runs once per served
        request and dominates the traced path's cost.
        """
        tracer = self.tracer
        emit = tracer.emit
        new_trace_id = tracer.new_trace_id
        pending = run.trace_ids
        shard_id = batch.shard_id
        size = batch.size
        dispatch_ms = batch.dispatch_ms
        wait_attrs = {"shard": shard_id, "reason": batch.reason}
        device_attrs = {"shard": shard_id, "batch_size": size, "engine": engine}
        failover_attrs = {"shard": shard_id}
        device_queue_ms = exec_start - dispatch_ms
        failover_start = exec_start + device_ms
        for request_id, arrival in zip(
            batch.request_ids.tolist(), batch.arrival_ms.tolist()
        ):
            trace_id = pending.pop(request_id, None)
            if trace_id is None:
                trace_id = new_trace_id()
            root = emit(
                "request",
                arrival,
                completion_ms - arrival,
                "request",
                "requests",
                trace_id,
                None,
                {
                    "request_id": request_id,
                    "shard": shard_id,
                    "batch_size": size,
                    "engine": engine,
                },
            )
            root_id = root.span_id
            emit(
                "queue.wait", arrival, dispatch_ms - arrival,
                "serve", "requests", trace_id, root_id, wait_attrs,
            )
            if device_queue_ms > 0.0:
                emit(
                    "device.queue", dispatch_ms, device_queue_ms,
                    "device", "requests", trace_id, root_id, device_attrs,
                )
            emit(
                "device.execute", exec_start, device_ms,
                "device", "requests", trace_id, root_id, device_attrs,
            )
            if overhead_ms > 0.0:
                emit(
                    "replica.failover", failover_start, overhead_ms,
                    "replication", "requests", trace_id, root_id, failover_attrs,
                )


class _Stream:
    """State of one :meth:`ShardedIndex.serve_stream` call; none of it
    outlives the stream."""

    def __init__(
        self,
        index: ShardedIndex,
        stream: RequestStream,
        metrics: MetricsRegistry,
        record_answers: bool,
    ) -> None:
        self.metrics = metrics
        self.scheduler = BatchScheduler(
            BatchPolicy(
                max_batch_size=index.config.max_batch_size,
                max_wait_ms=index.config.max_wait_ms,
            ),
            telemetry=metrics.telemetry,
        )
        #: Labels of every request, by request id.
        self.client_ids = stream.client_ids.tolist()
        self.tenants = (
            stream.tenant_ids.tolist()
            if stream.tenant_ids is not None
            else [UNLABELED_TENANT] * len(stream)
        )
        #: Raw stream keys: the partitioner clamps signed keys below the
        #: unsigned keyspace, where a uint cast would wrap them.
        self.keys = np.asarray(stream.keys)
        self.shard_of = index.router.partitioner.shard_of(self.keys).tolist()
        self.deadline_ms = (
            index.reliability.config.deadline_ms if index.reliability is not None else 0.0
        )
        #: Next topology check (``None`` = never) and the shards and keys
        #: scheduled since the last one.
        reshard = index.maintenance.reshard_policy
        self.reshard_at_ms = (
            reshard.interval_ms
            if reshard.enabled and index.router.supports_resharding
            else None
        )
        self.window_shards = []
        self.window_keys = []
        #: The per-request record (``None`` unless answers are recorded).
        self.rows = self.counts = self.outcomes = None
        if record_answers:
            self.rows = np.full(len(stream), -1, dtype=np.int64)
            self.counts = np.zeros(len(stream), dtype=np.int64)
            self.outcomes = np.full(len(stream), ANSWERED, dtype=np.int8)
        #: Trace ids of cache misses, ended by the batch that answers them.
        self.trace_ids = {}
        #: Batch results, cacheable once their simulated completion passed.
        self.pending_fills = []
        #: Per-shard device horizon: a shard runs one batch at a time, which
        #: makes a saturated hot shard *visible* as latency.
        self.busy_until = {}
        #: Heap of ``(completion_ms, size)`` of dispatched, unfinished batches
        #: and their request total: with the queues, the backlog admission
        #: control sheds against.
        self.inflight = []
        self.inflight_count = 0
        #: Per-shard durable-state tables for stale reads.
        self.stale_tables = {}
