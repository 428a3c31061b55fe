"""Experiment suite regenerating the paper's tables and figures.

Each experiment of the evaluation (Figures 1 and 9-18, Table I) has a
corresponding function in :mod:`repro.bench.experiments` that builds the
required indexes, runs the workload at a configurable (scaled-down) size and
returns an :class:`~repro.bench.harness.ExperimentResult` whose rows mirror
the series shown in the paper; further experiments measure the serving
stack.  Every experiment has a committed ``BENCH_<name>.json`` snapshot at
the repository root, and ``repro-bench --check`` reruns the experiments and
compares every simulated cell of each against its snapshot exactly
(:meth:`~repro.bench.harness.ExperimentResult.diff`).
"""

from repro.bench.harness import ExperimentResult, format_table
from repro.bench.metrics import (
    normalized_cumulative_time_ms,
    throughput_per_footprint,
    time_per_lookup_ms,
)
from repro.bench import experiments

__all__ = [
    "ExperimentResult",
    "format_table",
    "throughput_per_footprint",
    "normalized_cumulative_time_ms",
    "time_per_lookup_ms",
    "experiments",
]
