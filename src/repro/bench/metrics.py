"""Metrics reported by the paper's evaluation."""

from __future__ import annotations


def throughput_per_footprint(num_operations: int, time_ms: float, footprint_bytes: int) -> float:
    """The paper's headline metric: entries looked up per second per footprint byte.

    Section V-B: "We take the throughput as entries looked up per second and
    divide it by the memory footprint of the structure in bytes."
    """
    if time_ms <= 0.0 or footprint_bytes <= 0:
        return float("inf")
    throughput = num_operations / (time_ms / 1e3)
    return throughput / footprint_bytes


def normalized_cumulative_time_ms(total_time_ms: float, total_entries_retrieved: int) -> float:
    """Figure 14's metric: total batch time divided by the number of retrieved entries."""
    if total_entries_retrieved <= 0:
        return float("inf")
    return total_time_ms / total_entries_retrieved


def time_per_lookup_ms(total_time_ms: float, num_lookups: int) -> float:
    """Figure 15's metric: total batch time divided by the number of lookups."""
    if num_lookups <= 0:
        return float("inf")
    return total_time_ms / num_lookups
