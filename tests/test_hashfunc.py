"""Tests for repro.concurrentsub.hashfunc."""

import numpy as np
import pytest

from repro.concurrentsub.hashfunc import (
    mix64,
    mix64_int,
    partition_ids,
)


class TestMix64:
    def test_scalar_matches_vectorized(self, rng):
        values = rng.integers(0, 1 << 63, size=200, dtype=np.uint64)
        mixed = mix64(values)
        for i in range(0, 200, 13):
            assert int(mixed[i]) == mix64_int(int(values[i]))

    def test_deterministic(self):
        assert mix64_int(12345) == mix64_int(12345)

    def test_bijective_on_sample(self, rng):
        values = rng.integers(0, 1 << 63, size=10_000, dtype=np.uint64)
        mixed = mix64(np.unique(values))
        assert np.unique(mixed).size == np.unique(values).size

    def test_avalanche(self):
        # Flipping one input bit should flip ~half the output bits.
        a = mix64_int(0x1234_5678_9ABC_DEF0)
        b = mix64_int(0x1234_5678_9ABC_DEF1)
        flipped = bin(a ^ b).count("1")
        assert 20 <= flipped <= 44

    def test_zero_input(self):
        assert mix64_int(0) == 0  # splitmix64 finalizer maps 0 -> 0

    def test_does_not_mutate_input(self):
        values = np.arange(10, dtype=np.uint64)
        copy = values.copy()
        mix64(values)
        assert np.array_equal(values, copy)


class TestPartitionIds:
    def test_range(self, rng):
        minis = rng.integers(0, 1 << 40, size=1000, dtype=np.uint64)
        pids = partition_ids(minis, 32)
        assert pids.min() >= 0 and pids.max() < 32

    def test_uniformity(self, rng):
        minis = np.unique(rng.integers(0, 1 << 40, size=50_000, dtype=np.uint64))
        pids = partition_ids(minis, 16)
        counts = np.bincount(pids, minlength=16)
        # Should be within a few percent of uniform.
        expected = minis.size / 16
        assert counts.min() > 0.9 * expected
        assert counts.max() < 1.1 * expected

    def test_stability(self, rng):
        minis = rng.integers(0, 1 << 40, size=100, dtype=np.uint64)
        assert np.array_equal(partition_ids(minis, 7), partition_ids(minis, 7))

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            partition_ids(np.zeros(3, dtype=np.uint64), 0)
