"""FASTA / FASTQ input and output.

The assembler input files are plain text (paper §II-A); ParaHash accepts
both fastq and fasta (§III-A).  These parsers are deliberately strict
about record structure but permissive about sequence characters
(unknown bases become ``A``, as the paper notes is conventional).

FASTQ is read by one chunked scanner, the shape of ParaHash reading its
input in equal-size pieces and turning reads into 2-bit codes (§III-A,
§III-B): the file, plain or gzip-compressed, is read as binary chunks of
:data:`CHUNK_BYTES`; each chunk's lines are located in one vectorized
pass, its records are validated as arrays, and its sequence rows are
gathered straight into a code matrix.  A record cut by the chunk end
carries over into the next chunk, so the input text held at once is
O(chunk), not O(file).
FASTA records span several lines and keep a line parser.
"""

from __future__ import annotations

import io
import itertools
import os
from collections.abc import Iterator
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .alphabet import _ASCII_TO_CODE
from .reads import ReadBatch

#: Bytes read from the input per scanner chunk.  Kept under 1 MiB on
#: purpose: glibc raises its mmap threshold to the size of the largest
#: mapped block freed, and the parse frees buffers of about this size.
#: A higher threshold moves later numpy temporaries onto the heap, where
#: freed memory stays resident in the parent and in the workers it forks
#: (with 8 MiB chunks the chr14 build's peak RSS read up to ~6 MB higher).
CHUNK_BYTES = 512 << 10

_GZIP_MAGIC = b"\x1f\x8b"
_LF, _CR, _AT, _PLUS = b"\n\r@+"
# The ASCII whitespace ``str.strip`` strips, which format detection skips.
_WHITESPACE = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "


@dataclass(frozen=True)
class SequenceRecord:
    """One named sequence from a FASTA/FASTQ file."""

    name: str
    sequence: str
    quality: str | None = None


class FormatError(ValueError):
    """Raised when an input file violates the FASTA/FASTQ structure."""


class _GzipStream(io.RawIOBase):
    """The decompressed bytes of a gzip file, with typed read errors.

    A truncated file (``EOFError``), a corrupt deflate block
    (``zlib.error``) or a bad header or CRC (``gzip.BadGzipFile``)
    surfaces as a :class:`FormatError` naming the path, for the FASTQ
    scanner and the FASTA line parser alike.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        import gzip
        import zlib

        self._path = path
        self._errors = (EOFError, zlib.error, gzip.BadGzipFile)
        self._gz = gzip.open(path, "rb")

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        try:
            return self._gz.readinto(buf)
        except self._errors as exc:
            raise FormatError(
                f"{self._path}: corrupt or truncated gzip data ({exc})"
            ) from exc

    def close(self) -> None:
        self._gz.close()
        super().close()


def _open_binary(path: str | os.PathLike) -> BinaryIO:
    """Open ``path`` for reading bytes, decompressing it if it is gzip.

    Gzip is recognised by its magic bytes, not by the file name.
    """
    with open(path, "rb") as fh:
        gzipped = fh.read(2) == _GZIP_MAGIC
    if gzipped:
        return io.BufferedReader(_GzipStream(path))
    return open(path, "rb")


def _open_text(path: str | os.PathLike) -> io.TextIOBase:
    return io.TextIOWrapper(_open_binary(path), encoding="ascii", errors="replace")


def _read_chunks(path: str | os.PathLike) -> Iterator[bytes]:
    with _open_binary(path) as fh:
        while chunk := fh.read(CHUNK_BYTES):
            yield chunk


def _sniff(path: str | os.PathLike) -> tuple[str | None, Iterator[bytes]]:
    """Detect the format of ``path`` from its first non-whitespace byte.

    Returns ``"fasta"``, ``"fastq"`` or ``None`` for a file of only
    whitespace, plus the file's chunks with none consumed.
    """
    chunks = _read_chunks(path)
    seen = []
    for chunk in chunks:
        seen.append(chunk)
        text = chunk.lstrip(_WHITESPACE)
        if not text:
            continue
        first = text[:1].decode("ascii", errors="replace")
        fmt = {">": "fasta", "@": "fastq"}.get(first)
        if fmt is None:
            raise FormatError(f"{path}: cannot determine format from leading character {first!r}")
        return fmt, itertools.chain(seen, chunks)
    return None, iter(seen)


def read_fasta(path: str | os.PathLike) -> list[SequenceRecord]:
    """Parse a FASTA file into records.

    Multi-line sequences are concatenated.  Raises :class:`FormatError`
    on sequence data before the first header.
    """
    records: list[SequenceRecord] = []
    name: str | None = None
    chunks: list[str] = []
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith(">"):
                if name is not None:
                    records.append(SequenceRecord(name=name, sequence="".join(chunks)))
                name = line[1:].strip()
                chunks = []
            else:
                if name is None:
                    raise FormatError(f"{path}:{lineno}: sequence data before first '>' header")
                chunks.append(line)
    if name is not None:
        records.append(SequenceRecord(name=name, sequence="".join(chunks)))
    return records


def _line_bounds(buf: bytes, raw: np.ndarray, final: bool
                 ) -> tuple[np.ndarray, np.ndarray, int]:
    """Start and end offsets of the non-empty lines of ``raw`` (``buf``).

    Both ``\\n`` and ``\\r`` end a line, so ``\\r\\n`` ends one line and
    leaves an empty one, which is dropped with every other empty line:
    universal newlines plus blank-line skipping, byte for byte.  The
    unterminated tail is a line only when ``final``; otherwise its start
    is returned as the third value.
    """
    term = raw == _LF
    if b"\r" in buf:
        term |= raw == _CR
    ends = np.flatnonzero(term)
    starts = np.empty(ends.size + 1, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends + 1
    tail = int(starts[-1])
    if final:
        ends = np.append(ends, raw.size)
    else:
        starts = starts[:-1]
    keep = ends > starts
    return starts[keep], ends[keep], tail


def _record_error(path, raw: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                  first: int) -> FormatError | None:
    """The first malformed record among ``(n, 4)`` line bounds, if any."""
    header_ok = raw[starts[:, 0]] == _AT
    plus_ok = raw[starts[:, 2]] == _PLUS
    lengths = ends - starts
    bad = np.flatnonzero(~(header_ok & plus_ok & (lengths[:, 3] == lengths[:, 1])))
    if not bad.size:
        return None
    i = int(bad[0])
    where = f"{path}: record {first + i}"
    if not header_ok[i]:
        return FormatError(f"{where}: header must start with '@'")
    if not plus_ok[i]:
        return FormatError(f"{where}: separator must start with '+'")
    return FormatError(
        f"{where}: quality length {lengths[i, 3]} != sequence length {lengths[i, 1]}"
    )


def _scan_fastq(path, chunks: Iterator[bytes]
                ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(raw, starts, ends)`` per chunk of FASTQ input.

    ``raw`` is the chunk's bytes (any carried-over record first) and
    ``starts``/``ends`` are ``(n, 4)`` offsets of its complete records'
    header, sequence, separator and quality lines.  Errors are raised
    after the last chunk, in the order the whole-file checks report them:
    a line count that is not a multiple of 4 before the first malformed
    record.  Nothing from the first malformed record's chunk on is
    yielded.
    """
    carry = b""
    n_lines = n_records = 0
    error: FormatError | None = None
    for chunk in itertools.chain(chunks, [None]):
        final = chunk is None
        buf = carry if final else carry + chunk
        raw = np.frombuffer(buf, dtype=np.uint8)
        starts, ends, tail = _line_bounds(buf, raw, final)
        n_full = starts.size - starts.size % 4
        n_lines += starts.size if final else n_full
        carry = buf[int(starts[n_full]) if n_full < starts.size else tail:]
        if not n_full:
            continue
        starts = starts[:n_full].reshape(-1, 4)
        ends = ends[:n_full].reshape(-1, 4)
        if error is None:
            error = _record_error(path, raw, starts, ends, n_records)
            if error is None:
                yield raw, starts, ends
        n_records += starts.shape[0]
    if n_lines % 4:
        raise FormatError(f"{path}: FASTQ line count {n_lines} is not a multiple of 4")
    if error is not None:
        raise error


def _fastq_records(path, chunks: Iterator[bytes]) -> list[SequenceRecord]:
    records: list[SequenceRecord] = []
    for raw, starts, ends in _scan_fastq(path, chunks):
        # One byte per character, so byte offsets index the text.
        text = raw.tobytes().decode("ascii", errors="replace")
        for (h, s, _, q), (he, se, _, qe) in zip(starts.tolist(), ends.tolist()):
            records.append(SequenceRecord(name=text[h + 1 : he], sequence=text[s:se],
                                          quality=text[q:qe]))
    return records


def _fastq_batches(path, chunks: Iterator[bytes]) -> Iterator[ReadBatch]:
    """One :class:`ReadBatch` per scanned chunk; reads must share a length.

    A length mismatch is raised only once the scan has finished cleanly,
    since a structural error anywhere in the file takes precedence.
    """
    length = None
    mismatch: ValueError | None = None
    for raw, starts, ends in _scan_fastq(path, chunks):
        if mismatch is not None:
            continue
        seq_starts = starts[:, 1]
        lengths = ends[:, 1] - seq_starts
        if length is None:
            length = int(lengths[0])
        bad = np.flatnonzero(lengths != length)
        if bad.size:
            mismatch = ValueError(
                "all reads in a batch must have equal length; "
                f"got {lengths[bad[0]]} != {length}"
            )
            continue
        # Copies n x L bytes; no per-base index array is built.
        rows = sliding_window_view(raw, length)[seq_starts]
        yield ReadBatch(codes=_ASCII_TO_CODE[rows])
    if mismatch is not None:
        raise mismatch


def read_fastq(path: str | os.PathLike) -> list[SequenceRecord]:
    """Parse a FASTQ file (4 lines per record) into records."""
    return _fastq_records(path, _read_chunks(path))


def read_sequences(path: str | os.PathLike) -> list[SequenceRecord]:
    """Parse FASTA or FASTQ, deciding by the first non-empty character."""
    fmt, chunks = _sniff(path)
    if fmt == "fasta":
        return read_fasta(path)
    if fmt == "fastq":
        return _fastq_records(path, chunks)
    return []


def write_fasta(path: str | os.PathLike, records: list[SequenceRecord], width: int = 70) -> None:
    """Write records as FASTA, wrapping sequence lines at ``width``."""
    if width < 1:
        raise ValueError("width must be >= 1")
    with open(path, "wt", encoding="ascii") as fh:
        for rec in records:
            fh.write(f">{rec.name}\n")
            seq = rec.sequence
            for i in range(0, len(seq), width):
                fh.write(seq[i : i + width] + "\n")


def write_fastq(path: str | os.PathLike, records: list[SequenceRecord]) -> None:
    """Write records as FASTQ; missing qualities become maximal ('I')."""
    with open(path, "wt", encoding="ascii") as fh:
        for rec in records:
            qual = rec.quality if rec.quality is not None else "I" * len(rec.sequence)
            if len(qual) != len(rec.sequence):
                raise FormatError(f"record {rec.name!r}: quality/sequence length mismatch")
            fh.write(f"@{rec.name}\n{rec.sequence}\n+\n{qual}\n")


def iter_read_batches(path: str | os.PathLike) -> Iterator[ReadBatch]:
    """Yield the reads of a FASTA/FASTQ file (plain or gzip) as batches.

    FASTQ gives one batch per scanner chunk, so a caller that consumes
    each batch before the next holds O(chunk) of input.  FASTA is loaded
    whole, as one batch.  The reads of the whole file must share one
    length.
    """
    fmt, chunks = _sniff(path)
    if fmt == "fastq":
        yield from _fastq_batches(path, chunks)
    elif fmt == "fasta":
        yield ReadBatch.from_strs([rec.sequence for rec in read_fasta(path)])


def load_read_batch(path: str | os.PathLike) -> ReadBatch:
    """Load a FASTA/FASTQ file (plain or gzip) of equal-length reads."""
    batches = list(iter_read_batches(path))
    if not batches:
        return ReadBatch(codes=np.zeros((0, 0), dtype=np.uint8))
    if len(batches) == 1:
        return batches[0]
    return ReadBatch(codes=np.concatenate([b.codes for b in batches]))


def save_read_batch(path: str | os.PathLike, batch: ReadBatch, fmt: str = "fastq") -> None:
    """Write a :class:`ReadBatch` to disk as FASTA or FASTQ."""
    records = [
        SequenceRecord(name=f"read_{i}", sequence=seq)
        for i, seq in enumerate(batch.iter_strs())
    ]
    if fmt == "fastq":
        write_fastq(path, records)
    elif fmt == "fasta":
        write_fasta(path, records)
    else:
        raise ValueError(f"unknown format {fmt!r}; expected 'fasta' or 'fastq'")

