"""Tail-tolerant request reliability: deadlines, retry budgets, hedging, breakers.

One gray-failing replica — slow but not DOWN — is enough to wreck a
scatter/gather deployment's tail: every fan-out that touches it stalls, and
the PR-2 failover loop retries erroring replicas without bound.  This module
packages the standard tail-at-scale toolkit (Dean & Barroso) for the
simulated-clock serving stack, wired through ``ServeConfig.reliability``:

* **Deadlines** — every request carries ``arrival + deadline_ms``; the
  serving layer answers a late request at its deadline (latency capped,
  outcome ``DEADLINE_EXCEEDED`` even if degraded) and the replica layer
  abandons retries that cannot fit the budget.
* **Retry budgets** — failover retries spend from a per-shard token bucket
  (:class:`repro.serve.qos.TokenBucket` on the simulated clock) and pay
  exponential backoff with seeded jitter, replacing unbounded retry rounds.
* **Hedged reads** — once the online latency histogram is warm, a read whose
  service time exceeds the configured quantile is re-issued to a second
  healthy replica; the first answer wins, the loser's device cost stays
  accounted, and hedge win/loss counters plus ``replica.hedge`` spans record
  the outcome.
* **Circuit breakers** — per-replica ``closed -> open -> half-open`` state
  driven by error rates (a slow replica that keeps answering is the hedge's
  business, not the breaker's), filtering the read-balancer candidate set
  (fail-open when every breaker is open: a breaker must never cost
  availability).
* **Graceful degradation** — when a group cannot serve within its bounds,
  including a group with no replica up at all, the read returns an
  *explicit* partial result: miss-shaped answers with the outcome
  ``UNAVAILABLE``, or ``STALE`` answers from the last durable checkpoint.
  An armed layer never restarts a replica on the read path; recovery runs
  off-path in maintenance.  Oracle checks compare only ``ANSWERED``
  requests.

Everything runs on the deployment's :class:`SimulatedClock` with seeded
randomness, so reliability weather is exactly replayable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.obs.telemetry import LogBucketHistogram
from repro.serve.qos import TokenBucket

#: Circuit-breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: Each retry's backoff is this multiple of the previous one.
RETRY_BACKOFF_FACTOR = 2.0
#: Never hedge earlier than this (keeps cold histograms from hedging every
#: read).
HEDGE_FLOOR_MS = 0.05


@dataclass(frozen=True)
class ReliabilityConfig:
    """Knobs of the request reliability layer (``ServeConfig.reliability``).

    Arming the layer is its only switch: an armed deployment always consults
    its breakers and answers a read it cannot serve within these bounds as
    an explicit partial result.
    """

    #: Per-request deadline from arrival (simulated ms); requests whose batch
    #: completes later are answered deadline-exceeded at exactly the
    #: deadline.  0 disables deadlines.
    deadline_ms: float = 0.0
    #: Retry-budget token-bucket capacity per shard (each failover retry
    #: spends one token; an empty bucket abandons the read).
    retry_budget: float = 8.0
    #: Retry-budget refill rate (tokens per simulated ms).
    retry_refill_per_ms: float = 0.5
    #: First-retry backoff; doubles (:data:`RETRY_BACKOFF_FACTOR`) per retry.
    retry_backoff_base_ms: float = 0.05
    #: Jitter fraction: each backoff is scaled by ``1 + jitter * u`` with a
    #: seeded uniform draw, decorrelating retry storms deterministically.
    retry_jitter: float = 0.5
    #: Hedge a read once its service time exceeds this quantile of the
    #: online read-latency histogram (0 disables hedging; 0.95 = p95).
    hedge_quantile: float = 0.0
    #: Reads observed before the histogram is trusted for hedging.
    hedge_min_samples: int = 64
    #: Outcome window per replica breaker.
    breaker_window: int = 16
    #: Outcomes observed before a breaker may trip.
    breaker_min_samples: int = 8
    #: Error fraction of the window that trips the breaker open.
    breaker_failure_threshold: float = 0.5
    #: Time a tripped breaker stays open before probing (half-open).
    breaker_open_ms: float = 2.0
    #: Consecutive half-open probe successes that close the breaker.
    breaker_probe_reads: int = 2
    #: Answer unavailable shard reads (stale) from the last durable
    #: checkpoint + WAL tail when a store is attached.
    stale_reads: bool = False
    #: Seed of the jitter streams (per-shard, decorrelated).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.deadline_ms < 0.0:
            raise ValueError("deadline_ms must be >= 0")
        if self.retry_budget < 1.0:
            raise ValueError("retry_budget must be >= 1")
        if self.retry_refill_per_ms < 0.0:
            raise ValueError("retry_refill_per_ms must be >= 0")
        if self.retry_backoff_base_ms < 0.0:
            raise ValueError("retry_backoff_base_ms must be >= 0")
        if self.retry_jitter < 0.0:
            raise ValueError("retry_jitter must be >= 0")
        if not 0.0 <= self.hedge_quantile < 1.0:
            raise ValueError("hedge_quantile must be in [0, 1)")
        if self.hedge_min_samples < 1:
            raise ValueError("hedge_min_samples must be >= 1")
        if self.breaker_window < 1 or self.breaker_min_samples < 1:
            raise ValueError("breaker window/min_samples must be >= 1")
        if not 0.0 < self.breaker_failure_threshold <= 1.0:
            raise ValueError("breaker_failure_threshold must be in (0, 1]")
        if self.breaker_open_ms < 0.0:
            raise ValueError("breaker_open_ms must be >= 0")
        if self.breaker_probe_reads < 1:
            raise ValueError("breaker_probe_reads must be >= 1")


class CircuitBreaker:
    """Per-replica ``closed -> open -> half-open`` breaker on the simulated clock.

    Read outcomes (error or success) feed a bounded window; when the error
    fraction crosses the threshold the breaker opens and the replica
    leaves the read-balancer candidate set.  After ``breaker_open_ms`` it
    half-opens: probe reads are admitted, and ``breaker_probe_reads``
    consecutive successes close it again — any probe failure re-opens it.
    """

    __slots__ = (
        "config",
        "state",
        "_window",
        "_opened_at_ms",
        "_probe_successes",
        "opens",
        "closes",
        "half_opens",
    )

    def __init__(self, config: ReliabilityConfig) -> None:
        self.config = config
        self.state = BREAKER_CLOSED
        self._window: deque = deque(maxlen=config.breaker_window)
        self._opened_at_ms = 0.0
        self._probe_successes = 0
        self.opens = 0
        self.closes = 0
        self.half_opens = 0

    def allow(self, now_ms: float) -> bool:
        """Whether the replica may serve a read at ``now_ms``.

        An open breaker half-opens (and admits the probe) once its open
        window elapsed; time passing is the only closed->probe trigger.
        """
        if self.state == BREAKER_OPEN:
            if now_ms - self._opened_at_ms >= self.config.breaker_open_ms:
                self.state = BREAKER_HALF_OPEN
                self._probe_successes = 0
                self.half_opens += 1
                return True
            return False
        return True

    def record(self, now_ms: float, ok: bool) -> None:
        """Feed one read outcome (``ok=False`` for an error)."""
        if self.state == BREAKER_OPEN:
            return  # fail-open reads while tripped don't feed the window
        if self.state == BREAKER_HALF_OPEN:
            if not ok:
                self.trip(now_ms)
                return
            self._probe_successes += 1
            if self._probe_successes >= self.config.breaker_probe_reads:
                self.state = BREAKER_CLOSED
                self._window.clear()
                self.closes += 1
            return
        self._window.append(0 if ok else 1)
        if (
            len(self._window) >= self.config.breaker_min_samples
            and sum(self._window) / len(self._window)
            >= self.config.breaker_failure_threshold
        ):
            self.trip(now_ms)

    def trip(self, now_ms: float) -> None:
        self.state = BREAKER_OPEN
        self._opened_at_ms = float(now_ms)
        self._window.clear()
        self.opens += 1


class ReliabilityState:
    """Deployment-wide reliability machinery shared by every replica group.

    Owns the online read-latency histogram the hedge threshold is learned
    from, the per-shard retry budgets and jitter streams, and the
    per-replica circuit breakers.  One instance per deployment, handed to
    each :class:`~repro.serve.replication.ReplicaGroup` so accounting is
    global (a deployment has one tail, not one per shard).
    """

    def __init__(self, config: ReliabilityConfig, clock) -> None:
        self.config = config
        self.clock = clock
        #: Online distribution of effective replica-read service times; the
        #: hedge threshold is ``percentile(hedge_quantile)`` once warm.
        self.read_latency = LogBucketHistogram()
        self._budgets: Dict[int, TokenBucket] = {}
        self._breakers: Dict[Tuple[int, int], CircuitBreaker] = {}
        self._rngs: Dict[int, np.random.Generator] = {}
        self.counters: Dict[str, int] = {}
        #: Simulated device time burnt by hedges that lost the race.
        self.hedge_waste_ms = 0.0

    # ------------------------------------------------------------- accounting

    def bump(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + int(amount)

    def observe_read(self, service_ms: float) -> None:
        """Feed one effective read service time into the online histogram."""
        self.read_latency.record(float(service_ms))

    # ------------------------------------------------------------ per-shard

    def budget(self, shard_id: int) -> TokenBucket:
        bucket = self._budgets.get(shard_id)
        if bucket is None:
            bucket = TokenBucket(
                self.config.retry_refill_per_ms, self.config.retry_budget
            )
            self._budgets[shard_id] = bucket
        return bucket

    def breaker(self, shard_id: int, replica_id: int) -> CircuitBreaker:
        key = (int(shard_id), int(replica_id))
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(self.config)
            self._breakers[key] = breaker
        return breaker

    def _rng(self, shard_id: int) -> np.random.Generator:
        rng = self._rngs.get(shard_id)
        if rng is None:
            rng = np.random.default_rng(self.config.seed + 1000003 * int(shard_id))
            self._rngs[shard_id] = rng
        return rng

    def backoff_ms(self, shard_id: int, retry_index: int) -> float:
        """Exponential backoff of the ``retry_index``-th retry, seeded jitter."""
        config = self.config
        backoff = config.retry_backoff_base_ms * (
            RETRY_BACKOFF_FACTOR ** max(0, int(retry_index) - 1)
        )
        if config.retry_jitter > 0.0:
            backoff *= 1.0 + config.retry_jitter * float(self._rng(shard_id).random())
        return backoff

    # ------------------------------------------------------------- thresholds

    def hedge_threshold_ms(self) -> float:
        """Service time past which a read is hedged (inf while cold/disabled)."""
        config = self.config
        if config.hedge_quantile <= 0.0:
            return float("inf")
        if self.read_latency.count < config.hedge_min_samples:
            return float("inf")
        return max(
            HEDGE_FLOOR_MS,
            float(self.read_latency.percentile(config.hedge_quantile * 100.0)),
        )

    # ---------------------------------------------------------------- report

    def snapshot(self) -> dict:
        threshold = self.hedge_threshold_ms()
        report = {
            # None while cold/disabled (inf would not survive JSON).
            "hedge_threshold_ms": threshold if np.isfinite(threshold) else None,
            "reads_observed": int(self.read_latency.count),
            "hedge_waste_ms": float(self.hedge_waste_ms),
            "breaker_opens": sum(b.opens for b in self._breakers.values()),
            "breaker_closes": sum(b.closes for b in self._breakers.values()),
            "breaker_half_opens": sum(b.half_opens for b in self._breakers.values()),
            "breakers_open": sum(
                1 for b in self._breakers.values() if b.state != BREAKER_CLOSED
            ),
        }
        report.update(self.counters)
        return report
