"""Tests for the cgRX / cgRXu configuration objects."""

from __future__ import annotations

import pytest

import numpy as np

from repro.baselines.rx import RXIndex
from repro.core.config import (
    ENGINES,
    BucketLayout,
    CgRXConfig,
    CgRXuConfig,
    Representation,
    SearchStrategy,
)


class TestCgRXConfig:
    def test_defaults_follow_paper_recommendations(self):
        config = CgRXConfig()
        assert config.bucket_size == 32
        assert config.representation is Representation.OPTIMIZED
        assert config.scaled_mapping
        assert config.search_strategy is SearchStrategy.BINARY
        assert config.bucket_layout is BucketLayout.ROW

    def test_string_values_are_coerced_to_enums(self):
        config = CgRXConfig(representation="naive", search_strategy="linear", bucket_layout="column")
        assert config.representation is Representation.NAIVE
        assert config.search_strategy is SearchStrategy.LINEAR
        assert config.bucket_layout is BucketLayout.COLUMN

    def test_invalid_bucket_size(self):
        with pytest.raises(ValueError):
            CgRXConfig(bucket_size=0)

    def test_invalid_key_bits(self):
        with pytest.raises(ValueError):
            CgRXConfig(key_bits=16)

    def test_invalid_bvh_leaf_size(self):
        with pytest.raises(ValueError):
            CgRXConfig(bvh_leaf_size=0)

    def test_key_bytes(self):
        assert CgRXConfig(key_bits=32).key_bytes == 4
        assert CgRXConfig(key_bits=64).key_bytes == 8

    def test_describe_label(self):
        assert CgRXConfig(bucket_size=256).describe() == "cgRX (256)"

    def test_invalid_representation_string(self):
        with pytest.raises(ValueError):
            CgRXConfig(representation="fancy")


class TestCgRXuConfig:
    def test_default_node_matches_cache_line(self):
        config = CgRXuConfig()
        assert config.node_bytes == 128
        assert config.initial_fill == 0.5

    def test_node_capacity_for_32bit_keys(self):
        config = CgRXuConfig(node_bytes=128, key_bits=32)
        # 128 bytes - 16 header bytes = 112 bytes / 8 bytes per entry = 14.
        assert config.node_capacity == 14
        assert config.initial_bucket_size == 7

    def test_node_capacity_for_64bit_keys(self):
        config = CgRXuConfig(node_bytes=128, key_bits=64)
        assert config.node_capacity == (128 - 16) // 12

    def test_half_cache_line_label(self):
        assert CgRXuConfig(node_bytes=64).describe() == "cgRXu (0.5 cl)"
        assert CgRXuConfig(node_bytes=128).describe() == "cgRXu (1 cl)"

    def test_too_small_node_rejected(self):
        with pytest.raises(ValueError):
            CgRXuConfig(node_bytes=16)
        with pytest.raises(ValueError):
            CgRXuConfig(node_bytes=32, key_bits=64).node_capacity  # noqa: B018

    def test_invalid_fill_rejected(self):
        with pytest.raises(ValueError):
            CgRXuConfig(initial_fill=0.0)
        with pytest.raises(ValueError):
            CgRXuConfig(initial_fill=1.5)

    def test_invalid_key_bits_rejected(self):
        with pytest.raises(ValueError):
            CgRXuConfig(key_bits=128)


def test_engine_validation():
    assert ENGINES == ("scalar", "compiled")
    with pytest.raises(ValueError):
        CgRXuConfig(engine="simd")
    with pytest.raises(ValueError):
        CgRXConfig(engine="")
    with pytest.raises(ValueError):
        CgRXConfig(engine="vector")
    with pytest.raises(ValueError):
        RXIndex(np.arange(8, dtype=np.uint32), key_bits=32, engine="warp")
