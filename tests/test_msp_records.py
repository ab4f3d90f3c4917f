"""Tests for repro.msp.records (superkmer blocks)."""

import numpy as np
import pytest

from repro.dna import alphabet as al
from repro.dna.encoding import codes_to_int
from repro.msp.records import (
    NO_EXT,
    SuperkmerBlock,
    SuperkmerRecord,
    block_from_records,
    concat_blocks,
    empty_block,
    join_blocks,
)


def make_block(k=5):
    records = [
        SuperkmerRecord(bases=al.encode("ACGTACG"), left_ext=NO_EXT, right_ext=2),
        SuperkmerRecord(bases=al.encode("TTTTT"), left_ext=1, right_ext=NO_EXT),
        SuperkmerRecord(bases=al.encode("GGGGGGGGG"), left_ext=0, right_ext=3),
    ]
    return block_from_records(k, records)


class TestBlockBasics:
    def test_counts(self):
        block = make_block()
        assert block.n_superkmers == 3
        assert block.lengths.tolist() == [7, 5, 9]
        assert block.kmers_per_superkmer.tolist() == [3, 1, 5]
        assert block.total_kmers() == 9
        assert block.total_bases() == 21

    def test_record_roundtrip(self):
        block = make_block()
        rec = block.record(0)
        assert rec.to_str() == "ACGTACG"
        assert rec.left_ext == NO_EXT
        assert rec.right_ext == 2

    def test_iter_records(self):
        block = make_block()
        assert [r.to_str() for r in block.iter_records()] == [
            "ACGTACG", "TTTTT", "GGGGGGGGG",
        ]

    def test_empty_block(self):
        block = empty_block(5)
        assert block.n_superkmers == 0
        assert block.total_kmers() == 0

    def test_record_n_kmers(self):
        rec = SuperkmerRecord(bases=al.encode("ACGTACG"), left_ext=-1, right_ext=-1)
        assert rec.n_kmers(5) == 3


class TestValidation:
    def test_too_short_superkmer(self):
        with pytest.raises(ValueError):
            block_from_records(9, [SuperkmerRecord(al.encode("ACGT"), -1, -1)])

    def test_bad_offsets(self):
        with pytest.raises(ValueError):
            SuperkmerBlock(
                k=3,
                bases=al.encode("ACGT"),
                offsets=np.array([1, 4], dtype=np.int64),
                left_ext=np.array([-1], dtype=np.int8),
                right_ext=np.array([-1], dtype=np.int8),
            )

    def test_offsets_must_end_at_len(self):
        with pytest.raises(ValueError):
            SuperkmerBlock(
                k=3,
                bases=al.encode("ACGT"),
                offsets=np.array([0, 3], dtype=np.int64),
                left_ext=np.array([-1], dtype=np.int8),
                right_ext=np.array([-1], dtype=np.int8),
            )

    def test_ext_shape_mismatch(self):
        with pytest.raises(ValueError):
            SuperkmerBlock(
                k=3,
                bases=al.encode("ACGT"),
                offsets=np.array([0, 4], dtype=np.int64),
                left_ext=np.array([-1, -1], dtype=np.int8),
                right_ext=np.array([-1], dtype=np.int8),
            )


class TestFlatKmers:
    def test_values_and_positions(self):
        block = make_block(k=5)
        kmers, pos = block.flat_kmers()
        assert kmers.size == 9
        # First superkmer ACGTACG: kmers ACGTA CGTAC GTACG at pos 0,1,2
        assert int(kmers[0]) == codes_to_int(al.encode("ACGTA"))
        assert int(kmers[2]) == codes_to_int(al.encode("GTACG"))
        assert pos[:3].tolist() == [0, 1, 2]
        # Second superkmer starts at offset 7.
        assert pos[3] == 7
        assert int(kmers[3]) == codes_to_int(al.encode("TTTTT"))

    def test_never_spans_boundaries(self):
        block = make_block(k=5)
        _, pos = block.flat_kmers()
        for i, p in enumerate(pos):
            # Each kmer must fit within its superkmer's span.
            sk = np.searchsorted(block.offsets, p, side="right") - 1
            assert p + 5 <= block.offsets[sk + 1]

    def test_empty(self):
        kmers, pos = empty_block(5).flat_kmers()
        assert kmers.size == 0 and pos.size == 0

    def test_matches_per_record_iteration(self, rng):
        from repro.dna.kmer import iter_kmers

        records = [
            SuperkmerRecord(
                bases=rng.integers(0, 4, size=n, dtype=np.uint8),
                left_ext=-1, right_ext=-1,
            )
            for n in (7, 12, 9, 30)
        ]
        block = block_from_records(7, records)
        kmers, _ = block.flat_kmers()
        expected = [km for r in records for km in iter_kmers(r.bases, 7)]
        assert kmers.tolist() == expected


class TestSizes:
    def test_encoded_smaller_than_text(self):
        block = make_block()
        assert block.byte_size_encoded() < block.byte_size_text()

    def test_encoding_ratio_approaches_quarter(self, rng):
        # For long superkmers the encoded size tends to text/4 (§III-B).
        records = [
            SuperkmerRecord(bases=rng.integers(0, 4, size=400, dtype=np.uint8),
                            left_ext=1, right_ext=2)
            for _ in range(50)
        ]
        block = block_from_records(21, records)
        ratio = block.byte_size_encoded() / block.byte_size_text()
        assert 0.24 <= ratio <= 0.30


class TestConcat:
    def test_concat_preserves_records(self):
        a = make_block()
        b = make_block()
        both = concat_blocks([a, b])
        assert both.n_superkmers == 6
        assert both.record(3).to_str() == "ACGTACG"
        assert both.record(5).right_ext == 3

    def test_concat_mixed_k_rejected(self):
        with pytest.raises(ValueError):
            concat_blocks([make_block(5), make_block(6)])

    def test_concat_skips_empty(self):
        both = concat_blocks([make_block(), empty_block(5)])
        assert both.n_superkmers == 3

    def test_concat_all_empty_rejected(self):
        with pytest.raises(ValueError):
            concat_blocks([empty_block(5)])

    def test_join_zero_one_many(self):
        joined = join_blocks([empty_block(5), empty_block(5)], 5)
        assert joined.n_superkmers == 0 and joined.k == 5
        one = make_block()
        assert join_blocks([empty_block(5), one, empty_block(5)], 5) is one
        many = join_blocks([one, empty_block(5), make_block()], 5)
        assert many.bases.tolist() == concat_blocks([one, one]).bases.tolist()
        assert many.offsets.tolist() == concat_blocks([one, one]).offsets.tolist()
