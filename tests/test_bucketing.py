"""Tests for the bucketed key-rowID storage, the paper's running example
through a cgRX index's lookups, and the bucket-search cost model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bucket_search import BucketSearchModel
from repro.core.bucketing import BucketedKeys
from repro.core.config import BucketLayout, CgRXConfig, SearchStrategy
from repro.core.index import CgRXIndex


@pytest.fixture
def paper_buckets(paper_example_keys, paper_example_rowids):
    """The running example bucketed with size 3, as in Figure 4."""
    return BucketedKeys(paper_example_keys, paper_example_rowids, bucket_size=3, key_bytes=8)


class TestBucketGeometry:
    def test_sorting_happens_on_construction(self, paper_buckets):
        assert np.array_equal(paper_buckets.keys, np.sort(paper_buckets.keys))

    def test_num_buckets_rounds_up(self, paper_buckets):
        assert len(paper_buckets) == 13
        assert paper_buckets.num_buckets == 5

    def test_bucket_bounds(self, paper_buckets):
        assert paper_buckets.bucket_bounds(0) == (0, 3)
        assert paper_buckets.bucket_bounds(3) == (9, 12)
        assert paper_buckets.bucket_bounds(4) == (12, 13)  # partial last bucket
        with pytest.raises(IndexError):
            paper_buckets.bucket_bounds(5)

    def test_representatives_match_figure_4(self, paper_buckets):
        # Figure 4: representatives 5, 17, 19, (19), 22 for buckets 0..4.
        assert list(paper_buckets.representatives()) == [5, 17, 19, 19, 22]
        assert paper_buckets.min_representative == 5
        assert paper_buckets.max_representative == 22

    def test_representative_index_is_last_slot_of_bucket(self, paper_buckets):
        assert paper_buckets.representative_index(0) == 2
        assert paper_buckets.representative_index(4) == 12

    def test_bucket_of_position(self, paper_buckets):
        assert paper_buckets.bucket_of_position(0) == 0
        assert paper_buckets.bucket_of_position(11) == 3

    def test_presorted_input_skips_sort(self):
        keys = np.arange(10, dtype=np.uint64)
        bucketed = BucketedKeys(keys, np.arange(10, dtype=np.uint32), bucket_size=4, presorted=True)
        assert bucketed.sort_stats.total_bytes == 0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            BucketedKeys(np.array([], dtype=np.uint64), np.array([], dtype=np.uint32), bucket_size=4)

    def test_invalid_bucket_size_rejected(self):
        with pytest.raises(ValueError):
            BucketedKeys(np.arange(4, dtype=np.uint64), np.arange(4, dtype=np.uint32), bucket_size=0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            BucketedKeys(np.arange(4, dtype=np.uint64), np.arange(5, dtype=np.uint32), bucket_size=2)

    def test_memory_footprint(self, paper_buckets):
        assert paper_buckets.memory_footprint().total_bytes == 13 * (8 + 4)


class TestScans:
    """The paper's running example through a cgRX index with buckets of 3
    (Figure 4): every case on both engines."""

    @pytest.fixture
    def paper_indexes(self, paper_example_keys, paper_example_rowids):
        return [
            CgRXIndex(
                paper_example_keys,
                paper_example_rowids,
                CgRXConfig(bucket_size=3, engine=engine),
            )
            for engine in ("scalar", "compiled")
        ]

    @staticmethod
    def points(indexes, keys):
        keys = np.asarray(keys, dtype=np.uint64)
        return [index.point_lookup_batch(keys) for index in indexes]

    @staticmethod
    def ranges(indexes, low, high):
        bounds = np.asarray([low], dtype=np.uint64), np.asarray([high], dtype=np.uint64)
        return [sorted(index.range_lookup_batch(*bounds).row_ids[0].tolist()) for index in indexes]

    def test_point_scan_hit_in_bucket(self, paper_indexes):
        # Figure 4: key 2 lives in bucket 0 at rowID 3.
        for result in self.points(paper_indexes, [2]):
            assert result.row_ids.tolist() == [3]
            assert result.match_counts.tolist() == [1]

    def test_point_scan_miss_reports_entries_touched(self, paper_indexes):
        # 3 falls between stored keys, 1 below the smallest, 23 above the
        # largest (no bucket).
        for result in self.points(paper_indexes, [3, 1, 23]):
            assert result.row_ids.tolist() == [-1, -1, -1]
            assert result.match_counts.tolist() == [0, 0, 0]
        index = paper_indexes[0]
        keys = np.asarray([3, 1, 23], dtype=np.uint64)
        _, _, scanned = index._post_filter(keys, np.asarray([0, 0, -1]))
        # Bucket 0 up to the first larger key: 2 and 4 for key 3, 2 for key 1.
        assert scanned.tolist() == [2, 1, 0]

    def test_point_scan_collects_duplicates_across_buckets(self, paper_indexes):
        # Key 19 occurs five times, spanning buckets 2 and 3 (Figure 6).
        for result in self.points(paper_indexes, [19]):
            assert result.match_counts.tolist() == [5]
            assert result.row_ids.tolist() == [6 + 9 + 10 + 4 + 11]

    def test_range_scan_matches_bounds(self, paper_indexes):
        # rowIDs of keys 4, 5, 6, 12, 17 and 18.
        assert self.ranges(paper_indexes, 4, 18) == [[0, 1, 2, 7, 8, 12]] * 2

    def test_range_scan_empty_result(self, paper_indexes):
        assert self.ranges(paper_indexes, 13, 16) == [[], []]


class TestBucketSearchModel:
    def test_binary_probes_grow_with_bucket_size(self):
        model = BucketSearchModel(SearchStrategy.BINARY, BucketLayout.ROW, key_bytes=8)
        small = model.point_search(bucket_size=32, entries_scanned=32)
        large = model.point_search(bucket_size=65536, entries_scanned=65536)
        assert large.bytes_read > small.bytes_read

    def test_linear_cost_grows_with_entries_scanned(self):
        model = BucketSearchModel(SearchStrategy.LINEAR, BucketLayout.ROW, key_bytes=8)
        short = model.point_search(bucket_size=256, entries_scanned=4)
        long = model.point_search(bucket_size=256, entries_scanned=256)
        assert long.bytes_read > short.bytes_read

    def test_binary_beats_linear_for_large_buckets(self):
        binary = BucketSearchModel(SearchStrategy.BINARY, BucketLayout.ROW, key_bytes=8)
        linear = BucketSearchModel(SearchStrategy.LINEAR, BucketLayout.ROW, key_bytes=8)
        assert (
            binary.point_search(65536, 65536).bytes_read
            < linear.point_search(65536, 65536).bytes_read
        )

    def test_duplicate_overflow_adds_trailing_scan(self):
        model = BucketSearchModel(SearchStrategy.BINARY, BucketLayout.ROW, key_bytes=8)
        exact = model.point_search(bucket_size=32, entries_scanned=32)
        overflow = model.point_search(bucket_size=32, entries_scanned=96)
        assert overflow.bytes_read > exact.bytes_read

    def test_range_scan_cost_scales_with_entries(self):
        model = BucketSearchModel(key_bytes=4)
        assert model.range_scan(1024).bytes_read > model.range_scan(16).bytes_read

    def test_column_layout_probes_only_keys(self):
        row = BucketSearchModel(SearchStrategy.BINARY, BucketLayout.ROW, key_bytes=4)
        column = BucketSearchModel(SearchStrategy.BINARY, BucketLayout.COLUMN, key_bytes=4)
        assert column.point_search(32, 32).bytes_read <= row.point_search(32, 32).bytes_read

    def test_entry_bytes(self):
        model = BucketSearchModel(key_bytes=8, rowid_bytes=4)
        assert model.entry_bytes == 12


@pytest.mark.parametrize("range_mode", [False, True])
def test_cgrx_search_cost_totals_match_the_per_lookup_loop(range_mode):
    """The bucket-search stage totals equal summing the model per lookup."""
    from repro.gpu.kernels import KernelStats
    from repro.rtx.traversal import RayStats

    rng = np.random.default_rng(7)
    index = CgRXIndex(np.unique(rng.integers(0, 1 << 40, 3000, dtype=np.uint64)))
    scanned = rng.integers(-2, 80, size=500)
    stats = index._lookup_stats("probe", 500, RayStats(), scanned, 1.0, 1.0, range_mode)
    reference = KernelStats()
    for count in scanned:
        if count <= 0:
            continue
        cost = (
            index.search_model.range_scan(int(count))
            if range_mode
            else index.search_model.point_search(index.bucketed.bucket_size, int(count))
        )
        reference.bytes_read += cost.bytes_read
        reference.compute_ops += cost.compute_ops
    keys_bytes = 500 * index.config.key_bytes
    assert stats.bytes_read == reference.bytes_read + keys_bytes
    assert stats.compute_ops == reference.compute_ops
