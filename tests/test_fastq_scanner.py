"""Differential tests: the chunked FASTQ scanner against a line-list oracle.

The oracle is the line-list parser the scanner replaced: the file read in
universal-newline text mode, every line kept as a ``str``, blank lines
dropped, records checked four lines at a time, and the batch encoded read
by read.  The scanner must reproduce it exactly -- codes, records, and
the class and message of every error -- on adversarial bytes, with chunk
sizes small enough that records straddle chunk boundaries.
"""

from __future__ import annotations

import gzip

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.dna.io as dio
from repro.dna.io import FormatError, SequenceRecord, read_fasta
from repro.dna.reads import ReadBatch

# -- oracle: the line-list parser -----------------------------------------------


def _oracle_open(path):
    return open(path, "rt", encoding="ascii", errors="replace")


def oracle_read_fastq(path):
    records = []
    with _oracle_open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln]
    if len(lines) % 4 != 0:
        raise FormatError(f"{path}: FASTQ line count {len(lines)} is not a multiple of 4")
    for i in range(0, len(lines), 4):
        header, seq, plus, qual = lines[i : i + 4]
        if not header.startswith("@"):
            raise FormatError(f"{path}: record {i // 4}: header must start with '@'")
        if not plus.startswith("+"):
            raise FormatError(f"{path}: record {i // 4}: separator must start with '+'")
        if len(qual) != len(seq):
            raise FormatError(
                f"{path}: record {i // 4}: quality length {len(qual)} != sequence length {len(seq)}"
            )
        records.append(SequenceRecord(name=header[1:], sequence=seq, quality=qual))
    return records


def oracle_read_sequences(path):
    with _oracle_open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            first = line[0]
            break
        else:
            return []
    if first == ">":
        return read_fasta(path)
    if first == "@":
        return oracle_read_fastq(path)
    raise FormatError(f"{path}: cannot determine format from leading character {first!r}")


def oracle_load_read_batch(path):
    records = oracle_read_sequences(path)
    return ReadBatch.from_strs([rec.sequence for rec in records])


# -- inputs ---------------------------------------------------------------------

NEWLINES = [b"\n", b"\r\n", b"\r"]
BASES = b"ACGTacgtNn"
ODD_BYTES = b"\x80\xfe\xff .-?"


def _text(alphabet: bytes, min_size: int, max_size: int):
    return st.lists(st.sampled_from(list(alphabet)), min_size=min_size,
                    max_size=max_size).map(bytes)


@st.composite
def fastq_bytes(draw):
    """A FASTQ file with the oracle's edge cases; half carry a defect."""
    length = draw(st.integers(1, 12))
    n_records = draw(st.integers(0, 8))
    newline = st.sampled_from(NEWLINES)
    broken = draw(st.booleans())
    lines = []
    for _ in range(n_records):
        name = draw(_text(b"read_0123 " + ODD_BYTES, 0, 10))
        seq_len = qual_len = length
        header, plus = b"@", draw(st.sampled_from([b"+", b"+" + name]))
        if broken:  # unequal reads and qualities, bad header and separator
            seq_len = draw(st.sampled_from([length] * 6 + [max(1, length - 1), length + 1]))
            qual_len = draw(st.sampled_from([seq_len] * 6 + [max(1, seq_len - 1), seq_len + 1]))
            header = draw(st.sampled_from([b"@"] * 8 + [b"", b">", b" @"]))
            plus = draw(st.sampled_from([plus] * 4 + [b"-"]))
        seq = draw(_text(BASES + ODD_BYTES, seq_len, seq_len))
        qual = draw(_text(b"I#!~" + ODD_BYTES, qual_len, qual_len))
        lines += [header + name, seq, plus, qual]
    if broken and lines and draw(st.integers(0, 4)) == 0:  # truncated
        del lines[draw(st.integers(0, len(lines) - 1)):]
    out = bytearray()
    if draw(st.booleans()):
        out += draw(st.sampled_from([b"\n", b"\r\n", b" \n", b"\t\r", b"\x1c\n"]))
    for line in lines:
        out += line + draw(newline)
        if draw(st.integers(0, 5)) == 0:  # blank lines
            out += draw(st.sampled_from([b"\n", b"\r\n", b"\r", b"\n\n", b"\r\r"]))
    if out and draw(st.booleans()):  # no final newline
        out = out.rstrip(b"\r\n")
    return bytes(out)


CHUNKS = st.sampled_from([1, 2, 3, 5, 8, 17, 64, 1 << 20])


def _outcome(fn, path, shown):
    """``fn(path)``'s result, or its error's class and message."""
    try:
        return "ok", fn(path)
    except (FormatError, ValueError) as exc:
        return type(exc), str(exc).replace(str(path), str(shown))


def _same(expected, actual):
    kind, value = expected
    assert actual[0] == kind, (expected, actual)
    if kind != "ok":
        assert actual[1] == value
    elif isinstance(value, ReadBatch):
        assert actual[1].codes.dtype == value.codes.dtype
        assert actual[1].codes.shape == value.codes.shape
        assert np.array_equal(actual[1].codes, value.codes)
    else:
        assert actual[1] == value


def _write(tmp_path_factory, data: bytes, gz: bool):
    plain = tmp_path_factory.mktemp("fq") / "reads.fastq"
    plain.write_bytes(data)
    if not gz:
        return plain, plain
    packed = plain.with_suffix(".bin")  # detected by magic, not by name
    packed.write_bytes(gzip.compress(data))
    return plain, packed


def _check(tmp_path_factory, data, chunk, gz, ours, oracle):
    plain, path = _write(tmp_path_factory, data, gz)
    expected = _outcome(oracle, plain, "<input>")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dio, "CHUNK_BYTES", chunk)
        _same(expected, _outcome(ours, path, "<input>"))


class TestScannerMatchesOracle:
    @given(data=fastq_bytes(), chunk=CHUNKS, gz=st.booleans())
    @settings(deadline=None)
    def test_load_read_batch(self, tmp_path_factory, data, chunk, gz):
        _check(tmp_path_factory, data, chunk, gz, dio.load_read_batch,
               oracle_load_read_batch)

    @given(data=fastq_bytes(), chunk=CHUNKS, gz=st.booleans())
    @settings(deadline=None)
    def test_read_fastq(self, tmp_path_factory, data, chunk, gz):
        _check(tmp_path_factory, data, chunk, gz, dio.read_fastq, oracle_read_fastq)

    @given(data=fastq_bytes(), chunk=CHUNKS)
    @settings(deadline=None)
    def test_read_sequences(self, tmp_path_factory, data, chunk):
        _check(tmp_path_factory, data, chunk, False, dio.read_sequences,
               oracle_read_sequences)

    @given(data=st.binary(max_size=60), chunk=CHUNKS)
    @settings(deadline=None)
    def test_arbitrary_bytes(self, tmp_path_factory, data, chunk):
        assume(not data.startswith(b"\x1f\x8b"))  # read as gzip, by design
        _check(tmp_path_factory, data, chunk, False, dio.load_read_batch,
               oracle_load_read_batch)


class TestErrorPrecedence:
    def test_format_error_beats_an_earlier_length_mismatch(self, tmp_path, monkeypatch):
        path = tmp_path / "reads.fastq"
        path.write_text("@a\nACGT\n+\nIIII\n@b\nACG\n+\nIII\n@c\nACGT\n+\nII\n")
        monkeypatch.setattr(dio, "CHUNK_BYTES", 4)
        with pytest.raises(FormatError, match="record 2: quality length 2"):
            dio.load_read_batch(path)
