"""Serving telemetry: latency percentiles, throughput, cache and shard health.

A :class:`MetricsRegistry` is attached to every served deployment.  The hot
path records one latency sample per request (queueing delay plus the share of
the device batch the request rode in) and bumps counters; :meth:`snapshot`
reduces everything into the flat dict the serving experiment reports —
p50/p99 latency, request throughput, cache hit rate and shard skew.

Since the observability PR the registry is a façade over a labeled
:class:`repro.obs.TelemetryRegistry`: every counter, per-shard load and
latency distribution lives as a labeled instrument there (so the whole
deployment exports as a Prometheus-style exposition and samples into a time
series on the simulated clock), while this module preserves the historical
recording API and the exact :meth:`snapshot` key set byte-for-byte.
Latency distributions are log-bucketed bounded-memory histograms
(:class:`repro.obs.LogBucketHistogram`); the exact-sample
:class:`LatencyHistogram` is retained as the accuracy oracle the tests
compare bucketed percentiles against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.obs.telemetry import Counter, LogBucketHistogram, TelemetryRegistry

#: Labeled instrument names the façade records into.
EVENTS_METRIC = "serve_events_total"
LATENCY_METRIC = "serve_request_latency_ms"
FAILOVER_LATENCY_METRIC = "serve_failover_latency_ms"
SHARD_REQUESTS_METRIC = "serve_shard_requests_total"
SHARD_BUSY_METRIC = "serve_shard_busy_ms_total"
CLIENT_REQUESTS_METRIC = "serve_client_requests_total"
REPLICA_REQUESTS_METRIC = "serve_replica_requests_total"
MAINTENANCE_DEVICE_METRIC = "serve_maintenance_device_ms_total"
TENANT_REQUESTS_METRIC = "serve_tenant_requests_total"
TENANT_LATENCY_METRIC = "serve_tenant_latency_ms"
SHED_METRIC = "serve_shed_total"
RECOVERY_LATENCY_METRIC = "serve_recovery_ms"
WAL_BYTES_METRIC = "serve_wal_bytes_total"
CHECKPOINT_BYTES_METRIC = "serve_checkpoint_bytes_total"


class LatencyHistogram:
    """Latency samples with exact percentile reduction.

    Retained as the exactness *oracle*: the serving hot path now records into
    bounded-memory log-bucketed histograms, and the tests bound the bucketed
    percentile error against this exact-sample implementation.
    """

    def __init__(self) -> None:
        self._samples: List[float] = []

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> np.ndarray:
        """All recorded samples as an array (for windowed reductions)."""
        return np.asarray(self._samples, dtype=np.float64)

    def record(self, latency_ms: float) -> None:
        self._samples.append(float(latency_ms))

    def record_many(self, latencies_ms: Iterable[float]) -> None:
        self._samples.extend(float(value) for value in latencies_ms)

    def percentile(self, q: float) -> float:
        """Latency at percentile ``q`` (0..100); NaN when empty."""
        if not self._samples:
            return float("nan")
        return float(np.percentile(np.asarray(self._samples), q))

    @property
    def mean_ms(self) -> float:
        if not self._samples:
            return float("nan")
        return float(np.mean(np.asarray(self._samples)))

    @property
    def max_ms(self) -> float:
        if not self._samples:
            return float("nan")
        return float(np.max(np.asarray(self._samples)))


class BoundedLatencyHistogram(LogBucketHistogram):
    """Log-bucketed histogram with the latency-flavoured accessor names."""

    __slots__ = ()

    @property
    def mean_ms(self) -> float:
        return self.mean

    @property
    def max_ms(self) -> float:
        return self.maximum


def shard_skew(per_shard_load: np.ndarray) -> float:
    """Load imbalance: max shard load over mean shard load (1.0 = balanced)."""
    loads = np.asarray(per_shard_load, dtype=np.float64)
    if loads.size == 0:
        return 1.0
    mean = loads.mean()
    if mean <= 0.0:
        return 1.0
    return float(loads.max() / mean)


class MetricsRegistry:
    """Counters, latency histograms and per-shard load of one deployment.

    Façade over a labeled :class:`TelemetryRegistry`: the historical dict
    attributes (``counters``, ``shard_requests``, ...) are read-only views
    materialised from the labeled instruments.

    The per-request recording methods (:meth:`bump`, :meth:`record_request`,
    :meth:`record_client`, :meth:`record_shard_batch`,
    :meth:`record_tenant_request`, :meth:`record_replica_request`) record
    through pre-bound instrument handles: the first call for a label value
    (event name, client, shard, tenant or replica) resolves the labeled
    instrument once and keeps it, so later calls skip the label lookup.
    Handles are bound on first use, never up front, so a label that was never
    recorded exports no zero-valued series.
    """

    def __init__(
        self,
        num_shards: Optional[int] = None,
        telemetry: Optional[TelemetryRegistry] = None,
    ) -> None:
        #: Shard count of the deployment; when set, skew metrics include
        #: shards that received no load at all (a cold shard is the worst
        #: imbalance).
        self.num_shards = num_shards
        #: Labeled instrument substrate (exposition / time-series surface).
        self.telemetry = telemetry if telemetry is not None else TelemetryRegistry()
        #: Request latency distribution (bounded-memory, mergeable).
        self.latency = self._histogram(LATENCY_METRIC)
        #: Detection-plus-retry latency of every read failover (replication).
        self.failover_latency = self._histogram(FAILOVER_LATENCY_METRIC)
        #: Host wall-clock time of every checkpoint+WAL shard recovery.
        self.recovery_latency = self._histogram(RECOVERY_LATENCY_METRIC)
        #: Timestamps bounding the served stream (for throughput).
        self.first_arrival_ms: Optional[float] = None
        self.last_completion_ms: Optional[float] = None
        #: Closed windows during which a shard had no available replica.
        self.unavailability_windows: List[tuple] = []
        #: Background-maintenance windows ``(tier, start_ms, end_ms)``.
        self.maintenance_windows: List[tuple] = []
        #: Arrival timestamp and exact latency of every request (aligned),
        #: kept so tail latency can be reduced over maintenance windows after
        #: the fact with exact percentiles (the simulation-side oracle; the
        #: histogram above is the bounded-memory production analogue).
        self.request_arrivals: List[float] = []
        self.request_latencies: List[float] = []
        #: Pre-bound handles, keyed by the value of their single label.
        self._events: Dict[str, Counter] = {}
        self._clients: Dict[int, Counter] = {}
        self._shards: Dict[int, Tuple[Counter, Counter]] = {}
        self._tenants: Dict[int, Tuple[Counter, BoundedLatencyHistogram]] = {}
        self._replicas: Dict[Tuple[int, int], Counter] = {}

    def _histogram(self, name: str) -> BoundedLatencyHistogram:
        return self.telemetry.get_or_create(name, BoundedLatencyHistogram)

    # ----------------------------------------------------------- dict views

    def _labeled_ints(self, metric: str, key_type=int) -> dict:
        return {
            key_type(labels[0][1]): instrument.value
            for _, labels, instrument in self.telemetry.instruments(metric)
        }

    @property
    def counters(self) -> Dict[str, int]:
        """Event counters (read-only view; record via :meth:`bump`)."""
        return {
            labels[0][1]: instrument.value
            for _, labels, instrument in self.telemetry.instruments(EVENTS_METRIC)
        }

    @property
    def shard_requests(self) -> Dict[int, int]:
        """Requests served per shard (drives the skew metric)."""
        return self._labeled_ints(SHARD_REQUESTS_METRIC)

    @property
    def client_requests(self) -> Dict[int, int]:
        """Requests received per client (drives the client-skew metric)."""
        return self._labeled_ints(CLIENT_REQUESTS_METRIC)

    @property
    def shard_busy_ms(self) -> Dict[int, float]:
        """Simulated device-busy time accumulated per shard."""
        return self._labeled_ints(SHARD_BUSY_METRIC)

    @property
    def replica_requests(self) -> Dict[str, int]:
        """Requests served per replica, keyed ``"shard:replica"``."""
        return self._labeled_ints(REPLICA_REQUESTS_METRIC, key_type=str)

    @property
    def maintenance_device_ms(self) -> Dict[str, float]:
        """Simulated maintenance device time accumulated per tier."""
        return self._labeled_ints(MAINTENANCE_DEVICE_METRIC, key_type=str)

    @property
    def tenant_latency(self) -> Dict[int, BoundedLatencyHistogram]:
        """Per-tenant request latency distributions (multi-tenant streams)."""
        return {
            int(labels[0][1]): instrument
            for _, labels, instrument in self.telemetry.instruments(
                TENANT_LATENCY_METRIC
            )
        }

    @property
    def shed_requests(self) -> Dict[Tuple[int, str], int]:
        """Shed request counts keyed ``(tenant, reason)``."""
        shed: Dict[Tuple[int, str], int] = {}
        for _, labels, instrument in self.telemetry.instruments(SHED_METRIC):
            by_label = dict(labels)
            shed[(int(by_label["tenant"]), by_label["reason"])] = instrument.value
        return shed

    # --------------------------------------------------------------- recording

    def bump(self, counter: str, amount: int = 1) -> None:
        handle = self._events.get(counter)
        if handle is None:
            handle = self._events[counter] = self.telemetry.counter(
                EVENTS_METRIC, event=counter
            )
        handle.inc(int(amount))

    def record_request(self, latency_ms: float, arrival_ms: float, completion_ms: float) -> None:
        self.latency.record(latency_ms)
        self.request_arrivals.append(float(arrival_ms))
        self.request_latencies.append(float(latency_ms))
        self.bump("requests")
        if self.first_arrival_ms is None or arrival_ms < self.first_arrival_ms:
            self.first_arrival_ms = float(arrival_ms)
        if self.last_completion_ms is None or completion_ms > self.last_completion_ms:
            self.last_completion_ms = float(completion_ms)

    def record_client(self, client_id: int) -> None:
        handle = self._clients.get(client_id)
        if handle is None:
            handle = self._clients[client_id] = self.telemetry.counter(
                CLIENT_REQUESTS_METRIC, client=str(int(client_id))
            )
        handle.inc()

    def record_failover(self, latency_ms: float) -> None:
        """One read failed over to another replica (or emergency-restarted)."""
        self.failover_latency.record(latency_ms)
        self.bump("failovers")

    def record_unavailability(self, start_ms: float, end_ms: float) -> None:
        """A shard had no available replica over ``[start_ms, end_ms]``."""
        self.unavailability_windows.append((float(start_ms), float(end_ms)))

    def record_hedge(self, won: bool) -> None:
        """One hedged read raced a slow primary; ``won`` = hedge answered
        first.  Only the reliability layer emits these, so the counters stay
        out of un-hedged snapshots."""
        self.bump("hedges")
        self.bump("hedge_wins" if won else "hedge_losses")

    def record_replica_request(self, shard_id: int, replica_id: int, amount: int = 1) -> None:
        handle = self._replicas.get((shard_id, replica_id))
        if handle is None:
            key = f"{int(shard_id)}:{int(replica_id)}"
            handle = self._replicas[(shard_id, replica_id)] = self.telemetry.counter(
                REPLICA_REQUESTS_METRIC, replica=key
            )
        handle.inc(int(amount))

    def record_maintenance(self, tier: str, start_ms: float, end_ms: float) -> None:
        """Background maintenance of ``tier`` ran over ``[start_ms, end_ms]``."""
        self.maintenance_windows.append((str(tier), float(start_ms), float(end_ms)))
        self.telemetry.counter(MAINTENANCE_DEVICE_METRIC, tier=str(tier)).inc(
            float(end_ms) - float(start_ms)
        )

    def record_tenant_request(self, tenant_id: int, latency_ms: float) -> None:
        """One served request of a labeled tenant (latency + count)."""
        handles = self._tenants.get(tenant_id)
        if handles is None:
            tenant = str(int(tenant_id))
            handles = self._tenants[tenant_id] = (
                self.telemetry.counter(TENANT_REQUESTS_METRIC, tenant=tenant),
                self.telemetry.get_or_create(
                    TENANT_LATENCY_METRIC, BoundedLatencyHistogram, tenant=tenant
                ),
            )
        requests, latency = handles
        requests.inc()
        latency.record(float(latency_ms))

    def record_shed(self, tenant_id: int, reason: str) -> None:
        """One request shed by admission control (never served)."""
        self.telemetry.counter(
            SHED_METRIC, tenant=str(int(tenant_id)), reason=str(reason)
        ).inc()
        self.bump("requests_shed")

    def record_wal_append(self, shard_id: int, num_bytes: int, fsynced: bool) -> None:
        """One acknowledged write batch was durably logged before its ack."""
        self.telemetry.counter(WAL_BYTES_METRIC, shard=str(int(shard_id))).inc(
            int(num_bytes)
        )
        self.bump("wal_appends")
        self.bump("wal_bytes", int(num_bytes))
        if fsynced:
            self.bump("wal_fsyncs")

    def record_checkpoint(self, shard_id: int, num_bytes: int) -> None:
        """One durable checkpoint was taken (and the WAL truncated behind it)."""
        self.telemetry.counter(CHECKPOINT_BYTES_METRIC, shard=str(int(shard_id))).inc(
            int(num_bytes)
        )
        self.bump("checkpoints")
        self.bump("checkpoint_bytes", int(num_bytes))

    def record_recovery(self, shard_id: int, duration_ms: float, replayed: int) -> None:
        """One shard was recovered from checkpoint + WAL tail."""
        self.recovery_latency.record(float(duration_ms))
        self.bump("recoveries")
        self.bump("wal_records_replayed", int(replayed))

    def record_shard_batch(self, shard_id: int, batch_size: int, busy_ms: float) -> None:
        handles = self._shards.get(shard_id)
        if handles is None:
            shard = str(int(shard_id))
            handles = self._shards[shard_id] = (
                self.telemetry.counter(SHARD_REQUESTS_METRIC, shard=shard),
                self.telemetry.counter(SHARD_BUSY_METRIC, shard=shard),
            )
        requests, busy = handles
        requests.inc(int(batch_size))
        busy.inc(float(busy_ms))
        self.bump("batches")

    # --------------------------------------------------------------- reduction

    @property
    def span_ms(self) -> float:
        """Simulated wall time covered by the served stream."""
        if self.first_arrival_ms is None or self.last_completion_ms is None:
            return 0.0
        return max(0.0, self.last_completion_ms - self.first_arrival_ms)

    @property
    def throughput_per_s(self) -> float:
        """Requests completed per simulated second."""
        requests = self.counters.get("requests", 0)
        span = self.span_ms
        if requests == 0 or span <= 0.0:
            return 0.0
        return requests / (span / 1e3)

    def _shard_loads(self, per_shard: Dict[int, float]) -> np.ndarray:
        """Load vector over *all* shards (zero-load shards included when known)."""
        if self.num_shards is not None:
            return np.asarray(
                [per_shard.get(shard, 0.0) for shard in range(self.num_shards)]
            )
        return np.asarray(list(per_shard.values()))

    def request_skew(self) -> float:
        shard_requests = self.shard_requests
        if not shard_requests:
            return 1.0
        return shard_skew(self._shard_loads(shard_requests))

    def busy_skew(self) -> float:
        shard_busy_ms = self.shard_busy_ms
        if not shard_busy_ms:
            return 1.0
        return shard_skew(self._shard_loads(shard_busy_ms))

    def replica_skew(self) -> float:
        """Load imbalance across the replicas that served at least one request.

        Replicas the registry never saw (e.g. down the whole stream) are not
        in the denominator; :meth:`ReplicatedShardRouter.replica_load_skew`
        reports the membership-aware figure.
        """
        replica_requests = self.replica_requests
        if not replica_requests:
            return 1.0
        return shard_skew(np.asarray(list(replica_requests.values())))

    def latency_during_maintenance(self, q: float = 99.0) -> float:
        """Latency percentile of the requests that arrived while background
        maintenance was running (NaN when no request did).

        This is the number the tier policy is judged by: incremental
        compaction and double-buffered rebuilds should leave the tail of
        concurrent foreground requests where it was, while a stop-the-world
        rebuild drags it up.  Reduced over the exact per-request log (not the
        bucketed histogram) so the answer stays sample-exact.
        """
        if not self.maintenance_windows or not self.request_arrivals:
            return float("nan")
        arrivals = np.asarray(self.request_arrivals, dtype=np.float64)
        in_window = np.zeros(arrivals.shape[0], dtype=bool)
        for _, start, end in self.maintenance_windows:
            in_window |= (arrivals >= start) & (arrivals <= end)
        if not in_window.any():
            return float("nan")
        latencies = np.asarray(self.request_latencies, dtype=np.float64)
        return float(np.percentile(latencies[in_window], q))

    @property
    def unavailable_ms(self) -> float:
        """Total simulated time some shard had no available replica.

        Windows from different shards may overlap; they are merged (interval
        union) so concurrent outages are not double-counted against the span.
        """
        if not self.unavailability_windows:
            return 0.0
        merged_total = 0.0
        current_start, current_end = None, None
        for start, end in sorted(self.unavailability_windows):
            if current_end is None or start > current_end:
                if current_end is not None:
                    merged_total += current_end - current_start
                current_start, current_end = start, end
            else:
                current_end = max(current_end, end)
        merged_total += current_end - current_start
        return float(merged_total)

    @property
    def availability(self) -> float:
        """Fraction of the served span with every shard available (1.0 = always)."""
        span = self.span_ms
        if span <= 0.0:
            return 1.0
        return max(0.0, 1.0 - self.unavailable_ms / span)

    def snapshot(self) -> dict:
        """Flat report of the registry, as consumed by the serving experiment.

        Every value is on the simulated clock except ``recovery_mean_ms`` and
        ``recovery_max_ms``: the durable store times its restores on the
        host's wall clock, so those two differ from run to run.
        """
        counters = self.counters
        snapshot = {
            "requests": counters.get("requests", 0),
            "batches": counters.get("batches", 0),
            "span_ms": self.span_ms,
            "throughput_per_s": self.throughput_per_s,
            "latency_p50_ms": self.latency.percentile(50.0),
            "latency_p99_ms": self.latency.percentile(99.0),
            "latency_mean_ms": self.latency.mean_ms,
            "latency_max_ms": self.latency.max_ms,
            "request_skew": self.request_skew(),
            "busy_skew": self.busy_skew(),
        }
        client_requests = self.client_requests
        if client_requests:
            snapshot["unique_clients"] = len(client_requests)
            snapshot["client_skew"] = shard_skew(
                np.asarray(list(client_requests.values()))
            )
        if self.replica_requests:
            snapshot["replica_skew"] = self.replica_skew()
        if len(self.failover_latency):
            snapshot["failover_latency_mean_ms"] = self.failover_latency.mean_ms
            snapshot["failover_latency_p99_ms"] = self.failover_latency.percentile(99.0)
        if self.unavailability_windows:
            snapshot["unavailable_ms"] = self.unavailable_ms
            snapshot["availability"] = self.availability
        if self.maintenance_windows:
            snapshot["maintenance_windows"] = len(self.maintenance_windows)
            for tier, device_ms in sorted(self.maintenance_device_ms.items()):
                snapshot[f"maintenance_ms_{tier}"] = device_ms
            p99_maintenance = self.latency_during_maintenance(99.0)
            if not np.isnan(p99_maintenance):
                snapshot["latency_p99_during_maintenance_ms"] = p99_maintenance
        tenant_latency = self.tenant_latency
        if tenant_latency:
            for tenant, histogram in sorted(tenant_latency.items()):
                snapshot[f"tenant_{tenant}_requests"] = histogram.count
                snapshot[f"tenant_{tenant}_p50_ms"] = histogram.percentile(50.0)
                snapshot[f"tenant_{tenant}_p99_ms"] = histogram.percentile(99.0)
        if len(self.recovery_latency):
            snapshot["recovery_mean_ms"] = self.recovery_latency.mean_ms
            snapshot["recovery_max_ms"] = self.recovery_latency.max_ms
        shed_requests = self.shed_requests
        if shed_requests:
            for (tenant, reason), count in sorted(shed_requests.items()):
                snapshot[f"tenant_{tenant}_shed_{reason}"] = count
        for counter, value in sorted(counters.items()):
            if counter not in ("requests", "batches"):
                snapshot[counter] = value
        return snapshot
