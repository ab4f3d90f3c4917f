"""Tests for repro.msp.binio (encoded partition files)."""

import struct

import numpy as np
import pytest

from repro.dna import alphabet as al
from repro.dna.encoding import pack_codes
from repro.msp.binio import (
    FORMAT_VERSION,
    MAGIC,
    PartitionFormatError,
    PartitionWriter,
    partition_file_size,
    read_partition,
    read_partition_header,
    write_partition,
)
from repro.msp.partitioner import load_partition_group
from repro.msp.records import NO_EXT, SuperkmerRecord, block_from_records

#: File header and frame header layouts, spelled out independently of
#: the module so the tests pin the on-disk format.
HEADER = struct.Struct("<4sBBHQ")
FRAME = struct.Struct("<IQ")


def record_block(k, bases, left_ext, right_ext):
    """A one-superkmer block."""
    return block_from_records(
        k, [SuperkmerRecord(al.encode(bases), left_ext, right_ext)])


def sample_block(k=5, n=20, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n):
        length = int(rng.integers(k, k + 40))
        left = int(rng.integers(-1, 4))
        right = int(rng.integers(-1, 4))
        records.append(
            SuperkmerRecord(
                bases=rng.integers(0, 4, size=length, dtype=np.uint8),
                left_ext=left,
                right_ext=right,
            )
        )
    return block_from_records(k, records)


class TestRoundtrip:
    def test_block_roundtrip(self, tmp_path):
        block = sample_block()
        path = tmp_path / "p.phsk"
        write_partition(path, block)
        back = read_partition(path)
        assert back.k == block.k
        assert back.n_superkmers == block.n_superkmers
        assert np.array_equal(back.bases, block.bases)
        assert np.array_equal(back.offsets, block.offsets)
        assert np.array_equal(back.left_ext, block.left_ext)
        assert np.array_equal(back.right_ext, block.right_ext)

    def test_extensions_survive(self, tmp_path):
        records = [
            SuperkmerRecord(al.encode("ACGTA"), NO_EXT, 3),
            SuperkmerRecord(al.encode("TTTTTT"), 0, NO_EXT),
            SuperkmerRecord(al.encode("GGGGG"), 2, 1),
        ]
        path = tmp_path / "p.phsk"
        write_partition(path, block_from_records(5, records))
        back = read_partition(path)
        assert back.left_ext.tolist() == [NO_EXT, 0, 2]
        assert back.right_ext.tolist() == [3, NO_EXT, 1]

    def test_empty_partition(self, tmp_path):
        path = tmp_path / "p.phsk"
        with PartitionWriter(path, 7) as writer:
            pass
        back = read_partition(path)
        assert back.n_superkmers == 0
        assert back.k == 7

    def test_header(self, tmp_path):
        block = sample_block(k=9, n=5)
        path = tmp_path / "p.phsk"
        write_partition(path, block)
        k, count = read_partition_header(path)
        assert k == 9 and count == 5

    def test_file_size_prediction(self, tmp_path):
        block = sample_block(n=30)
        path = tmp_path / "p.phsk"
        size = write_partition(path, block)
        assert size == partition_file_size(block)

    def test_streaming_writer_counts(self, tmp_path):
        path = tmp_path / "p.phsk"
        writer = PartitionWriter(path, 5)
        writer.write_block(record_block(5, "ACGTA", -1, -1))
        writer.write_block(record_block(5, "ACGTACG", 2, -1))
        assert writer.close() == 2
        assert read_partition_header(path)[1] == 2


class TestWriterValidation:
    def test_short_record_rejected(self, tmp_path):
        writer = PartitionWriter(tmp_path / "p.phsk", 9)
        with pytest.raises(ValueError):
            writer.write_block(record_block(9, "ACGT", -1, -1))
        writer.close()

    def test_write_after_close(self, tmp_path):
        writer = PartitionWriter(tmp_path / "p.phsk", 5)
        writer.close()
        with pytest.raises(ValueError):
            writer.write_block(record_block(5, "ACGTA", -1, -1))

    def test_mismatched_block_k(self, tmp_path):
        writer = PartitionWriter(tmp_path / "p.phsk", 5)
        with pytest.raises(ValueError):
            writer.write_block(sample_block(k=7))
        writer.close()

    def test_k_out_of_byte_range(self, tmp_path):
        with pytest.raises(ValueError):
            PartitionWriter(tmp_path / "p.phsk", 300)

    def test_double_close_is_safe(self, tmp_path):
        writer = PartitionWriter(tmp_path / "p.phsk", 5)
        assert writer.close() == 0
        assert writer.close() == 0


class TestCorruption:
    def test_truncated_header(self, tmp_path):
        path = tmp_path / "p.phsk"
        path.write_bytes(b"PH")
        with pytest.raises(PartitionFormatError):
            read_partition(path)
        with pytest.raises(PartitionFormatError):
            read_partition_header(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "p.phsk"
        write_partition(path, sample_block())
        data = bytearray(path.read_bytes())
        data[0] = ord("X")
        path.write_bytes(bytes(data))
        with pytest.raises(PartitionFormatError):
            read_partition(path)

    def test_truncated_records(self, tmp_path):
        path = tmp_path / "p.phsk"
        write_partition(path, sample_block(n=10))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 5])
        with pytest.raises(PartitionFormatError):
            read_partition(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "p.phsk"
        write_partition(path, sample_block(n=3))
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        with pytest.raises(PartitionFormatError):
            read_partition(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "p.phsk"
        write_partition(path, sample_block(n=1))
        data = bytearray(path.read_bytes())
        data[4] = 99  # version byte
        path.write_bytes(bytes(data))
        with pytest.raises(PartitionFormatError):
            read_partition(path)

    def test_record_shorter_than_k(self, tmp_path):
        # Write with small k, then claim a bigger k in the header.
        path = tmp_path / "p.phsk"
        write_partition(path, sample_block(k=5, n=1, seed=1))
        data = bytearray(path.read_bytes())
        data[5] = 200  # k byte now larger than any record
        path.write_bytes(bytes(data))
        with pytest.raises(PartitionFormatError):
            read_partition(path)


class TestFrameCorruption:
    def test_header_count_differs_from_frames(self, tmp_path):
        path = tmp_path / "p.phsk"
        write_partition(path, sample_block(n=6))
        data = bytearray(path.read_bytes())
        data[8:16] = (7).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(PartitionFormatError, match="records"):
            read_partition(path)

    def test_frame_lengths_do_not_sum_to_base_count(self, tmp_path):
        path = tmp_path / "p.phsk"
        block = sample_block(n=4)
        write_partition(path, block)
        data = bytearray(path.read_bytes())
        n, nb = FRAME.unpack_from(data, HEADER.size)
        assert (n, nb) == (4, block.total_bases())
        # Claim four fewer bases: the frame still ends inside the file,
        # but its lengths no longer add up.
        FRAME.pack_into(data, HEADER.size, n, nb - 4)
        path.write_bytes(bytes(data))
        with pytest.raises(PartitionFormatError, match="sum"):
            read_partition(path)

    def test_partial_frame_header_at_end(self, tmp_path):
        path = tmp_path / "p.phsk"
        write_partition(path, sample_block(n=3))
        data = path.read_bytes() + FRAME.pack(1, 40)[: FRAME.size - 1]
        path.write_bytes(data)
        with pytest.raises(PartitionFormatError, match="partial frame header"):
            read_partition(path)

    def test_empty_frame_rejected(self, tmp_path):
        path = tmp_path / "p.phsk"
        write_partition(path, sample_block(n=3))
        path.write_bytes(path.read_bytes() + FRAME.pack(0, 0))
        with pytest.raises(PartitionFormatError, match="empty frame"):
            read_partition(path)

    def test_version_one_file_rejected(self, tmp_path):
        # A version-1 file: per-record u16 length, extension byte and
        # padded bases.  Its version is named in the error.
        bases = al.encode("ACGTACG")
        record = struct.pack("<HB", bases.size, 0) + pack_codes(bases)
        path = tmp_path / "p.phsk"
        path.write_bytes(HEADER.pack(MAGIC, 1, 5, 0, 1) + record)
        with pytest.raises(PartitionFormatError, match="version 1"):
            read_partition(path)
        with pytest.raises(PartitionFormatError, match="version 1"):
            read_partition_header(path)

    def test_header_with_k_zero_rejected(self, tmp_path):
        path = tmp_path / "p.phsk"
        path.write_bytes(HEADER.pack(MAGIC, FORMAT_VERSION, 0, 0, 0))
        with pytest.raises(PartitionFormatError, match="k=0"):
            read_partition(path)


class TestFrames:
    def test_one_frame_per_written_block(self, tmp_path):
        path = tmp_path / "p.phsk"
        blocks = [sample_block(n=3, seed=s) for s in range(3)]
        with PartitionWriter(path, 5) as writer:
            for block in blocks:
                writer.write_block(block)
        data = path.read_bytes()
        pos = HEADER.size
        for block in blocks:
            n, nb = FRAME.unpack_from(data, pos)
            assert (n, nb) == (block.n_superkmers, block.total_bases())
            pos += partition_file_size(block) - HEADER.size
        assert pos == len(data)

    def test_long_partition_offsets_do_not_wrap(self, tmp_path):
        # More than 65 535 bases in one frame: the u16 lengths must be
        # summed in a wider type.
        block = block_from_records(31, [
            SuperkmerRecord(np.full(60_000, i % 4, dtype=np.uint8), NO_EXT, NO_EXT)
            for i in range(3)
        ])
        path = tmp_path / "p.phsk"
        write_partition(path, block)
        back = read_partition(path)
        assert back.offsets.tolist() == [0, 60_000, 120_000, 180_000]
        assert np.array_equal(back.bases, block.bases)


class TestMerging:
    def test_load_group_of_empty_files(self, tmp_path):
        paths = [tmp_path / "a.phsk", tmp_path / "b.phsk"]
        for path in paths:
            PartitionWriter(path, 21).close()
        block = load_partition_group(paths, 21)
        assert block.k == 21 and block.n_superkmers == 0


class TestCompression:
    def test_encoded_is_about_quarter_of_text(self, tmp_path):
        block = sample_block(k=21, n=200, seed=3)
        path = tmp_path / "p.phsk"
        size = write_partition(path, block)
        text_size = block.byte_size_text()
        assert size < 0.45 * text_size  # header+framing keeps it under 1/2
