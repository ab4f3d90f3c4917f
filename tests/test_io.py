"""Tests for repro.dna.io (FASTA/FASTQ parsing and writing)."""

import gzip

import pytest

from repro.dna.io import (
    FormatError,
    SequenceRecord,
    load_read_batch,
    read_fasta,
    read_fastq,
    read_sequences,
    save_read_batch,
    write_fasta,
    write_fastq,
)
from repro.dna.reads import ReadBatch


class TestFasta:
    def test_roundtrip(self, tmp_path):
        records = [
            SequenceRecord(name="r1", sequence="ACGTACGT"),
            SequenceRecord(name="r2 extra words", sequence="TTTTGGGG"),
        ]
        path = tmp_path / "t.fasta"
        write_fasta(path, records)
        back = read_fasta(path)
        assert [(r.name, r.sequence) for r in back] == [
            ("r1", "ACGTACGT"),
            ("r2 extra words", "TTTTGGGG"),
        ]

    def test_multiline_sequences(self, tmp_path):
        path = tmp_path / "t.fasta"
        path.write_text(">x\nACGT\nACGT\n>y\nTT\n")
        back = read_fasta(path)
        assert back[0].sequence == "ACGTACGT"
        assert back[1].sequence == "TT"

    def test_wrapping(self, tmp_path):
        path = tmp_path / "t.fasta"
        write_fasta(path, [SequenceRecord(name="x", sequence="A" * 100)], width=30)
        lines = path.read_text().splitlines()
        assert lines[0] == ">x"
        assert max(len(line) for line in lines[1:]) == 30

    def test_data_before_header(self, tmp_path):
        path = tmp_path / "t.fasta"
        path.write_text("ACGT\n>x\nACGT\n")
        with pytest.raises(FormatError):
            read_fasta(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.fasta"
        path.write_text("")
        assert read_fasta(path) == []

    def test_bad_width(self, tmp_path):
        with pytest.raises(ValueError):
            write_fasta(tmp_path / "t.fasta", [], width=0)


class TestFastq:
    def test_roundtrip(self, tmp_path):
        records = [SequenceRecord(name="q1", sequence="ACGT", quality="IIII")]
        path = tmp_path / "t.fastq"
        write_fastq(path, records)
        back = read_fastq(path)
        assert back[0].name == "q1"
        assert back[0].sequence == "ACGT"
        assert back[0].quality == "IIII"

    def test_default_quality(self, tmp_path):
        path = tmp_path / "t.fastq"
        write_fastq(path, [SequenceRecord(name="q", sequence="ACG")])
        assert read_fastq(path)[0].quality == "III"

    def test_quality_length_mismatch_read(self, tmp_path):
        path = tmp_path / "t.fastq"
        path.write_text("@q\nACGT\n+\nII\n")
        with pytest.raises(FormatError):
            read_fastq(path)

    def test_quality_length_mismatch_write(self, tmp_path):
        rec = SequenceRecord(name="q", sequence="ACGT", quality="I")
        with pytest.raises(FormatError):
            write_fastq(tmp_path / "t.fastq", [rec])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.fastq"
        path.write_text("q\nACGT\n+\nIIII\n")
        with pytest.raises(FormatError):
            read_fastq(path)

    def test_truncated_record(self, tmp_path):
        path = tmp_path / "t.fastq"
        path.write_text("@q\nACGT\n+\n")
        with pytest.raises(FormatError):
            read_fastq(path)


class TestFastqBatchErrors:
    """``load_read_batch`` twins of the ``read_fastq`` format-error cases."""

    def test_quality_length_mismatch_read(self, tmp_path):
        path = tmp_path / "t.fastq"
        path.write_text("@q\nACGT\n+\nII\n")
        with pytest.raises(FormatError, match="record 0: quality length 2 != sequence length 4"):
            load_read_batch(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.fastq"
        path.write_text("@q\nACGT\n+\nIIII\nq\nACGT\n+\nIIII\n")
        with pytest.raises(FormatError, match="record 1: header must start with '@'"):
            load_read_batch(path)

    def test_truncated_record(self, tmp_path):
        path = tmp_path / "t.fastq"
        path.write_text("@q\nACGT\n+\n")
        with pytest.raises(FormatError, match="line count 3 is not a multiple of 4"):
            load_read_batch(path)


class TestGzipInput:
    def test_fastq_gz_equals_plain(self, tmp_path, genomic_batch):
        plain = tmp_path / "r.fastq"
        save_read_batch(plain, genomic_batch)
        packed = tmp_path / "r.fastq.gz"
        packed.write_bytes(gzip.compress(plain.read_bytes()))
        assert (load_read_batch(packed).codes == load_read_batch(plain).codes).all()
        assert read_sequences(packed) == read_sequences(plain)

    def test_fasta_gz_equals_plain(self, tmp_path, genomic_batch):
        plain = tmp_path / "r.fa"
        save_read_batch(plain, genomic_batch, fmt="fasta")
        packed = tmp_path / "r.fa.gz"
        packed.write_bytes(gzip.compress(plain.read_bytes()))
        assert (load_read_batch(packed).codes == load_read_batch(plain).codes).all()
        assert read_sequences(packed) == read_sequences(plain)

    @staticmethod
    def _packed(tmp_path, batch) -> bytes:
        plain = tmp_path / "r.fastq"
        save_read_batch(plain, batch)
        return gzip.compress(plain.read_bytes())

    def test_truncated_gz_is_format_error(self, tmp_path, genomic_batch):
        data = self._packed(tmp_path, genomic_batch)
        cut = tmp_path / "cut.fastq.gz"
        cut.write_bytes(data[: len(data) // 2])
        for read in (load_read_batch, read_sequences):
            with pytest.raises(FormatError, match="cut.fastq.gz.*truncated"):
                read(cut)

    def test_corrupt_deflate_is_format_error(self, tmp_path, genomic_batch):
        data = bytearray(self._packed(tmp_path, genomic_batch))
        data[200:260] = bytes(b ^ 0xFF for b in data[200:260])
        bad = tmp_path / "bad.fastq.gz"
        bad.write_bytes(bytes(data))
        for read in (load_read_batch, read_sequences):
            with pytest.raises(FormatError, match="bad.fastq.gz.*corrupt"):
                read(bad)


class TestAutodetect:
    def test_detects_fasta(self, tmp_path):
        path = tmp_path / "x"
        path.write_text(">a\nACGT\n")
        assert read_sequences(path)[0].quality is None

    def test_detects_fastq(self, tmp_path):
        path = tmp_path / "x"
        path.write_text("@a\nACGT\n+\nIIII\n")
        assert read_sequences(path)[0].quality == "IIII"

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "x"
        path.write_text("#something\n")
        with pytest.raises(FormatError):
            read_sequences(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "x"
        path.write_text("\n\n")
        assert read_sequences(path) == []


class TestBatchIO:
    def test_batch_roundtrip_fastq(self, tmp_path):
        batch = ReadBatch.from_strs(["ACGTAC", "TTGGCC"])
        path = tmp_path / "b.fastq"
        save_read_batch(path, batch)
        back = load_read_batch(path)
        assert list(back.iter_strs()) == ["ACGTAC", "TTGGCC"]

    def test_batch_roundtrip_fasta(self, tmp_path):
        batch = ReadBatch.from_strs(["ACGTAC"])
        path = tmp_path / "b.fasta"
        save_read_batch(path, batch, fmt="fasta")
        assert load_read_batch(path).read_str(0) == "ACGTAC"

    def test_bad_format(self, tmp_path):
        batch = ReadBatch.from_strs(["ACGT"])
        with pytest.raises(ValueError):
            save_read_batch(tmp_path / "b", batch, fmt="bam")
