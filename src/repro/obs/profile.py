"""Process-wide profiling hooks for the device kernels and node chains.

Hot kernels (`rtx.compiled`, `core.updatable`) cannot take a registry
parameter without disturbing their call signatures and the bit-parity
contract between engines, so profiling uses a module-level hook: call sites
fetch the active :class:`Profiler` with :func:`profiler` and skip all work
when it is ``None``.  The disabled cost is one global read and an ``is not
None`` test per *batch* (never per element), which is the near-zero-overhead
requirement of the observability layer.

Everything observed feeds labeled instruments in a
:class:`~repro.obs.telemetry.TelemetryRegistry`, so kernel-side counters
(traversal iterations, active-ray occupancy, chain-walk lengths, compaction
work) land in the same exposition/time-series surface as the serving
metrics.
"""

from __future__ import annotations

from typing import Optional

from .telemetry import TelemetryRegistry

_ACTIVE: Optional["Profiler"] = None


def profiler() -> Optional["Profiler"]:
    """The active profiler, or ``None`` when profiling is disabled."""
    return _ACTIVE


def enable_profiling(registry: Optional[TelemetryRegistry] = None) -> "Profiler":
    """Install (and return) a process-wide profiler feeding ``registry``."""
    global _ACTIVE
    _ACTIVE = Profiler(registry or TelemetryRegistry())
    return _ACTIVE


def disable_profiling() -> None:
    """Remove the process-wide profiler; kernel hooks go back to no-ops."""
    global _ACTIVE
    _ACTIVE = None


class Profiler:
    """Sink for kernel-side instrumentation points."""

    def __init__(self, registry: TelemetryRegistry) -> None:
        self.registry = registry

    # -- rtx.compiled ------------------------------------------------------
    def observe_wavefront(
        self, kernel: str, iterations: int, num_rays: int, lane_steps: int
    ) -> None:
        """One traversal kernel launch, seen as a lockstep wavefront (the
        ``rtx_wavefront_*`` series keep their names).

        ``lane_steps`` is the sum of front sizes over all iterations (== node
        visits: each active ray advances one BVH node per iteration), so mean
        occupancy is ``lane_steps / (iterations * num_rays)``.
        """
        registry = self.registry
        registry.counter("rtx_wavefront_launches_total", kernel=kernel).inc()
        registry.counter("rtx_wavefront_iterations_total", kernel=kernel).inc(
            iterations
        )
        registry.counter("rtx_wavefront_rays_total", kernel=kernel).inc(num_rays)
        registry.counter("rtx_wavefront_node_visits_total", kernel=kernel).inc(
            lane_steps
        )
        if iterations > 0 and num_rays > 0:
            registry.histogram("rtx_wavefront_occupancy", kernel=kernel).record(
                lane_steps / (iterations * num_rays)
            )

    # -- core.updatable / core.nodes ----------------------------------------
    def observe_chain_walk(self, engine: str, nodes_visited: int, lookups: int) -> None:
        """One point-lookup batch walking bucket chains."""
        registry = self.registry
        registry.counter("core_chain_nodes_visited_total", engine=engine).inc(
            nodes_visited
        )
        registry.counter("core_chain_lookups_total", engine=engine).inc(lookups)
        if lookups > 0:
            registry.histogram("core_chain_walk_length", engine=engine).record(
                nodes_visited / lookups
            )

    # -- rtx.compiled / core.compiled ---------------------------------------
    def observe_compiled_fallback(self, reason: str) -> None:
        """A ``"compiled"`` engine request degraded to the scalar engine."""
        registry = self.registry
        registry.gauge("compiled_engine_fallback", reason=reason).set(1.0)
        registry.counter("compiled_engine_fallbacks_total", reason=reason).inc()

    def observe_chain_compaction(self, nodes_before: int, nodes_after: int) -> None:
        """One bucket chain rewritten by compaction."""
        registry = self.registry
        registry.counter("core_compaction_chains_total").inc()
        registry.counter("core_compaction_nodes_before_total").inc(nodes_before)
        registry.counter("core_compaction_nodes_reclaimed_total").inc(
            max(0, nodes_before - nodes_after)
        )
