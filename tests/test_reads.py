"""Tests for repro.dna.reads (ReadBatch)."""

import numpy as np
import pytest

from repro.dna.reads import ReadBatch


class TestConstruction:
    def test_from_strs(self):
        batch = ReadBatch.from_strs(["ACGT", "TTTT"])
        assert batch.n_reads == 2
        assert batch.read_length == 4
        assert batch.read_str(0) == "ACGT"

    def test_from_strs_unequal_lengths(self):
        with pytest.raises(ValueError):
            ReadBatch.from_strs(["ACGT", "ACG"])

    def test_from_strs_empty(self):
        batch = ReadBatch.from_strs([])
        assert batch.n_reads == 0

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            ReadBatch(codes=np.zeros(10, dtype=np.uint8))

    def test_rejects_bad_codes(self):
        with pytest.raises(ValueError):
            ReadBatch(codes=np.full((2, 3), 9, dtype=np.uint8))

    def test_total_bases(self):
        batch = ReadBatch(codes=np.zeros((7, 11), dtype=np.uint8))
        assert batch.total_bases == 77


class TestKmerCount:
    def test_formula(self):
        # §II-A: N reads of length L produce N(L-K+1) kmers.
        batch = ReadBatch(codes=np.zeros((37, 101), dtype=np.uint8))
        assert batch.n_kmers(27) == 37 * 75

    def test_k_too_large(self):
        batch = ReadBatch(codes=np.zeros((2, 10), dtype=np.uint8))
        with pytest.raises(ValueError):
            batch.n_kmers(11)


class TestSplit:
    def test_even_split(self):
        batch = ReadBatch(codes=np.arange(40, dtype=np.uint8).reshape(10, 4) % 4)
        parts = batch.split(5)
        assert len(parts) == 5
        assert all(p.n_reads == 2 for p in parts)

    def test_uneven_split_covers_all(self):
        batch = ReadBatch(codes=np.zeros((10, 4), dtype=np.uint8))
        parts = batch.split(3)
        assert sum(p.n_reads for p in parts) == 10

    def test_more_parts_than_reads(self):
        batch = ReadBatch(codes=np.zeros((2, 4), dtype=np.uint8))
        parts = batch.split(10)
        assert len(parts) == 2

    def test_split_preserves_content(self, rng):
        codes = rng.integers(0, 4, size=(13, 6), dtype=np.uint8)
        batch = ReadBatch(codes=codes)
        rebuilt = np.concatenate([piece.codes for piece in batch.split(4)])
        assert np.array_equal(rebuilt, codes)

    def test_invalid_n(self):
        batch = ReadBatch(codes=np.zeros((2, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            batch.split(0)

    def test_bounds_are_the_split(self):
        batch = ReadBatch(codes=np.zeros((10, 4), dtype=np.uint8))
        assert batch.split_bounds(3) == [(0, 3), (3, 6), (6, 10)]
        assert batch.split_bounds(20) == [(i, i + 1) for i in range(10)]
        empty = ReadBatch(codes=np.zeros((0, 4), dtype=np.uint8))
        assert empty.split_bounds(4) == []
        assert empty.split(4) == [empty]


class TestConcat:
    def test_iter_strs(self):
        batch = ReadBatch.from_strs(["ACGT", "GGGG"])
        assert list(batch.iter_strs()) == ["ACGT", "GGGG"]
