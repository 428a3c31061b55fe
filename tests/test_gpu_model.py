"""Tests for the GPU execution model: devices, kernels, memory, SIMT, cost model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.cost_model import (
    L2_HIT_RELATIVE_COST,
    RT_NODE_RESIDUAL_BYTES,
    UNCOALESCED_ACCESS_BYTES,
    CostModel,
)
from repro.gpu.device import RTX_4090, RTX_A6000, GpuDevice
from repro.gpu.kernels import KernelStats, combine
from repro.gpu.memory import GIB, MemoryFootprint, array_bytes
from repro.gpu.simt import (
    COOPERATIVE_GROUP_SIZE,
    DIVERGENCE_EXPOSURE,
    WARP_SIZE,
    cooperative_scan_steps,
    divergence_factor,
    divergence_from_pacing,
    occupancy,
    warps_for_threads,
)


class TestDevices:
    def test_rtx_4090_properties(self):
        assert RTX_4090.vram_gib == pytest.approx(24.0)
        assert RTX_4090.sm_count == 128
        assert RTX_4090.rt_core_count == 128

    def test_a6000_has_more_memory_but_less_bandwidth(self):
        assert RTX_A6000.vram_bytes > RTX_4090.vram_bytes
        assert RTX_A6000.memory_bandwidth < RTX_4090.memory_bandwidth

    def test_fits_in_memory(self):
        assert RTX_4090.fits_in_memory(1 << 30)
        assert not RTX_4090.fits_in_memory(100 * (1 << 30))


class TestKernelStats:
    def test_total_bytes(self):
        stats = KernelStats(bytes_read=100, bytes_written=50)
        assert stats.total_bytes == 150

    def test_merge_accumulates_work(self):
        a = KernelStats(threads=10, bytes_read=100, compute_ops=5, launches=1)
        b = KernelStats(threads=20, bytes_read=200, compute_ops=10, launches=2)
        a.merge(b)
        assert a.bytes_read == 300
        assert a.compute_ops == 15
        assert a.launches == 3
        assert a.threads == 20  # parallelism is the maximum, not the sum

    def test_merge_weights_cache_fraction_by_traffic(self):
        a = KernelStats(bytes_read=100, cache_hit_fraction=1.0)
        b = KernelStats(bytes_read=300, cache_hit_fraction=0.0)
        a.merge(b)
        assert a.cache_hit_fraction == pytest.approx(0.25)

    def test_copy_is_independent(self):
        a = KernelStats(bytes_read=10)
        b = a.copy()
        b.bytes_read = 99
        assert a.bytes_read == 10

    def test_combine_aggregates_parts(self):
        merged = combine("x", [KernelStats(bytes_read=10, launches=1), KernelStats(bytes_read=20, launches=1)])
        assert merged.bytes_read == 30
        assert merged.launches == 2

    def test_combine_empty_has_one_launch(self):
        assert combine("x", []).launches == 1


class TestMemoryFootprint:
    def test_add_and_total(self):
        footprint = MemoryFootprint()
        footprint.add("a", 100).add("b", 200).add("a", 50)
        assert footprint.get("a") == 150
        assert footprint.total_bytes == 350

    def test_set_overwrites(self):
        footprint = MemoryFootprint()
        footprint.add("a", 100)
        footprint.set("a", 10)
        assert footprint.total_bytes == 10

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            MemoryFootprint().add("a", -1)

    def test_total_gib(self):
        footprint = MemoryFootprint().add("a", int(GIB))
        assert footprint.total_gib == pytest.approx(1.0)

    def test_merged_with_keeps_operands_unchanged(self):
        a = MemoryFootprint().add("x", 10)
        b = MemoryFootprint().add("x", 5).add("y", 1)
        merged = a.merged_with(b)
        assert merged.get("x") == 15
        assert merged.get("y") == 1
        assert a.get("x") == 10

    def test_describe_mentions_components(self):
        text = MemoryFootprint().add("bvh", 1024).describe()
        assert "bvh" in text
        assert "total" in text

    def test_iteration_is_sorted(self):
        footprint = MemoryFootprint().add("z", 1).add("a", 2)
        assert [name for name, _ in footprint] == ["a", "z"]

    def test_array_bytes(self):
        assert array_bytes(10, 8) == 80
        with pytest.raises(ValueError):
            array_bytes(-1, 8)

    def test_remove(self):
        footprint = MemoryFootprint().add("a", 5)
        footprint.remove("a")
        footprint.remove("not-there")
        assert footprint.total_bytes == 0


class TestSimt:
    def test_warps_for_threads(self):
        assert warps_for_threads(0) == 0
        assert warps_for_threads(1) == 1
        assert warps_for_threads(WARP_SIZE) == 1
        assert warps_for_threads(WARP_SIZE + 1) == 2

    def test_cooperative_scan_steps(self):
        assert cooperative_scan_steps(0) == 0
        assert cooperative_scan_steps(1) == 1
        assert cooperative_scan_steps(COOPERATIVE_GROUP_SIZE) == 1
        assert cooperative_scan_steps(COOPERATIVE_GROUP_SIZE + 1) == 2

    def test_divergence_factor_uniform_work_is_one(self):
        assert divergence_factor([5] * 64) == pytest.approx(1.0)

    def test_divergence_factor_increases_with_imbalance(self):
        balanced = divergence_factor([4] * 32)
        imbalanced = divergence_factor([1] * 31 + [100])
        assert imbalanced > balanced

    def test_divergence_factor_empty_and_zero(self):
        assert divergence_factor([]) == 1.0
        assert divergence_factor([0, 0, 0]) == 1.0

    def test_divergence_factor_matches_the_warp_loop(self):
        def reference(per_thread_work):
            work = [max(int(w), 0) for w in per_thread_work]
            total = sum(work)
            if not work or total == 0:
                return 1.0
            paced = 0
            for start in range(0, len(work), WARP_SIZE):
                chunk = work[start : start + WARP_SIZE]
                paced += max(chunk) * len(chunk)
            return 1.0 + (max(1.0, paced / total) - 1.0) * DIVERGENCE_EXPOSURE

        rng = np.random.default_rng(3)
        for size in (1, 5, 31, 32, 33, 100, 4096):
            work = rng.integers(-3, 200, size=size)
            assert divergence_factor(work) == reference(work)
            assert divergence_factor(work.tolist()) == reference(work)

    def test_divergence_from_pacing_reproduces_divergence_factor(self):
        # The sums a kernel reduces as it runs: per warp of 32 consecutive
        # threads (the last one partial), its largest work times its threads.
        rng = np.random.default_rng(4)
        for size in range(101):
            for high in (1, 3, 200):
                work = rng.integers(0, high, size=size)
                work[rng.random(size) < 0.3] = 0
                warps = [work[start : start + WARP_SIZE] for start in range(0, size, WARP_SIZE)]
                paced = sum(int(warp.max()) * len(warp) for warp in warps)
                assert divergence_from_pacing(paced, int(work.sum())) == divergence_factor(work)

    def test_occupancy_saturates_at_one(self):
        assert occupancy(1 << 20, 1 << 15) == 1.0
        assert occupancy(1 << 14, 1 << 15) == pytest.approx(0.5)
        assert occupancy(0, 1 << 15) == 0.0


class TestCostModel:
    def test_more_bytes_cost_more_time(self):
        model = CostModel(RTX_4090)
        small = KernelStats(threads=1 << 20, bytes_read=1 << 20)
        large = KernelStats(threads=1 << 20, bytes_read=1 << 28)
        assert model.kernel_time_ms(large) > model.kernel_time_ms(small)

    def test_cache_hits_reduce_time(self):
        model = CostModel(RTX_4090)
        cold = KernelStats(threads=1 << 20, bytes_read=1 << 28, cache_hit_fraction=0.0)
        warm = KernelStats(threads=1 << 20, bytes_read=1 << 28, cache_hit_fraction=0.9)
        assert model.kernel_time_ms(warm) < model.kernel_time_ms(cold)
        # Cached traffic is discounted but never free.
        assert model.kernel_time_ms(warm) > model.kernel_time_ms(
            KernelStats(threads=1 << 20, bytes_read=0)
        )

    def test_underutilised_batches_are_slower_per_unit_work(self):
        model = CostModel(RTX_4090)
        work = dict(bytes_read=1 << 26)
        full = KernelStats(threads=1 << 16, **work)
        tiny = KernelStats(threads=1 << 6, **work)
        assert model.kernel_time_ms(tiny) > model.kernel_time_ms(full)

    def test_divergence_multiplies_time(self):
        model = CostModel(RTX_4090)
        base = KernelStats(threads=1 << 20, bytes_read=1 << 28, divergence=1.0)
        divergent = KernelStats(threads=1 << 20, bytes_read=1 << 28, divergence=2.0)
        assert model.kernel_time_ms(divergent) == pytest.approx(
            2 * (model.kernel_time_ms(base) - RTX_4090.kernel_launch_overhead_ms)
            + RTX_4090.kernel_launch_overhead_ms
        )

    def test_bottleneck_identification(self):
        model = CostModel(RTX_4090)
        memory_bound = model.breakdown(KernelStats(threads=1 << 20, bytes_read=1 << 30))
        rt_bound = model.breakdown(KernelStats(threads=1 << 20, bvh_node_visits=10**9))
        assert memory_bound.bottleneck == "memory"
        assert rt_bound.bottleneck == "rt"

    def test_launch_overhead_scales_with_launches(self):
        model = CostModel(RTX_4090)
        one = KernelStats(threads=1 << 20, launches=1)
        many = KernelStats(threads=1 << 20, launches=10)
        delta = model.kernel_time_ms(many) - model.kernel_time_ms(one)
        assert delta == pytest.approx(9 * RTX_4090.kernel_launch_overhead_ms)

    def test_total_time_sums_parts(self):
        model = CostModel(RTX_4090)
        parts = [KernelStats(threads=1 << 20, bytes_read=1 << 24) for _ in range(3)]
        assert model.total_time_ms(parts) == pytest.approx(3 * model.kernel_time_ms(parts[0]))

    def test_throughput_per_second(self):
        model = CostModel(RTX_4090)
        stats = KernelStats(threads=1 << 20, bytes_read=1 << 28)
        throughput = model.throughput_per_second(stats, operations=1 << 20)
        assert throughput > 0

    def test_cache_hit_fraction_shrinks_with_working_set(self):
        model = CostModel(RTX_4090)
        small = model.cache_hit_fraction(1 << 20)
        huge = model.cache_hit_fraction(1 << 34)
        assert small > huge

    def test_cache_hit_fraction_grows_with_skew(self):
        model = CostModel(RTX_4090)
        uniform = model.cache_hit_fraction(1 << 32, unique_fraction=1.0)
        skewed = model.cache_hit_fraction(1 << 32, unique_fraction=0.01)
        assert skewed > uniform

    def test_slower_device_is_slower(self):
        stats = KernelStats(threads=1 << 20, bytes_read=1 << 30)
        assert CostModel(RTX_A6000).kernel_time_ms(stats) > CostModel(RTX_4090).kernel_time_ms(stats)

    @settings(max_examples=40, deadline=None)
    @given(
        bytes_read=st.integers(min_value=0, max_value=1 << 32),
        node_visits=st.integers(min_value=0, max_value=1 << 24),
        compute=st.integers(min_value=0, max_value=1 << 30),
        threads=st.integers(min_value=1, max_value=1 << 22),
        divergence=st.floats(min_value=1.0, max_value=8.0),
        cache=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_property_time_is_positive_and_finite(
        self, bytes_read, node_visits, compute, threads, divergence, cache
    ):
        model = CostModel(RTX_4090)
        stats = KernelStats(
            threads=threads,
            bytes_read=bytes_read,
            bvh_node_visits=node_visits,
            compute_ops=compute,
            divergence=divergence,
            cache_hit_fraction=cache,
        )
        time_ms = model.kernel_time_ms(stats)
        assert np.isfinite(time_ms)
        assert time_ms >= RTX_4090.kernel_launch_overhead_ms


class TestConstants:
    def test_uncoalesced_access_is_at_least_a_sector(self):
        assert UNCOALESCED_ACCESS_BYTES >= 32

    def test_rt_residual_below_full_node(self):
        assert 0 < RT_NODE_RESIDUAL_BYTES <= 32

    def test_l2_hit_cost_is_a_discount(self):
        assert 0.0 < L2_HIT_RELATIVE_COST < 1.0
