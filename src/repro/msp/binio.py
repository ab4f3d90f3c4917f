"""2-bit encoded superkmer partition files.

ParaHash encodes its MSP output with bit values — 2 bits per base —
cutting the partition files "to about 1/4 of the size of the
non-encoded counterpart" (§III-B) and with them the disk IO that
dominates big-genome runs.

File layout (little-endian):

* header: magic ``b"PHSK"``, format version ``u8``, kmer length ``u8``,
  reserved ``u16``, record count ``u64`` (patched on close);
* one frame per :meth:`PartitionWriter.write_block` call: record count
  ``u32`` and base count ``u64``, then ``n`` × ``u16`` superkmer
  lengths, ``n`` extension bytes (bit 0 = has left extension, bit 1 =
  has right, bits 2-3 = left base code, bits 4-5 = right base code),
  then the frame's concatenated bases packed 4 per byte
  (:func:`repro.dna.encoding.pack_codes`).

Frames delimit themselves, so encoding and decoding are whole-array
operations: nothing walks the records one by one.  The
extension byte carries the paper's "two extra base pairs" in packed
form; semantically each record is the extended superkmer.
"""

from __future__ import annotations

import io
import os
import struct
from pathlib import Path

import numpy as np

from ..dna.encoding import pack_codes, packed_size, unpack_codes
from .records import NO_EXT, SuperkmerBlock, empty_block

MAGIC = b"PHSK"
FORMAT_VERSION = 2
_HEADER = struct.Struct("<4sBBHQ")
_FRAME = struct.Struct("<IQ")


class PartitionFormatError(ValueError):
    """Raised on a malformed partition file."""


def frame_size(n_records: int, n_bases: int) -> int:
    """Bytes of one frame holding ``n_records`` superkmers of ``n_bases``
    bases in total (0 for an empty block, which writes no frame)."""
    if n_records == 0:
        return 0
    return _FRAME.size + 3 * n_records + packed_size(n_bases)


class PartitionWriter:
    """Streams superkmer blocks into one partition file, a frame each."""

    def __init__(self, path: str | os.PathLike, k: int) -> None:
        if not 1 <= k <= 255:
            raise ValueError("k must fit in one byte")
        self.path = Path(path)
        self.k = k
        self._count = 0
        self._fh: io.BufferedWriter | None = open(self.path, "wb")
        self._fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, k, 0, 0))

    def write_block(self, block: SuperkmerBlock) -> None:
        """Append every record of a block as one frame."""
        if self._fh is None:
            raise ValueError("writer already closed")
        if block.k != self.k:
            raise ValueError(f"block k={block.k} does not match writer k={self.k}")
        if block.n_superkmers == 0:
            return
        self._fh.write(encode_block(block))
        self._count += block.n_superkmers

    def close(self) -> int:
        """Patch the record count into the header; returns the count."""
        if self._fh is None:
            return self._count
        self._fh.seek(0)
        self._fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, self.k, 0, self._count))
        self._fh.close()
        self._fh = None
        return self._count

    def __enter__(self) -> "PartitionWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def encode_block(block: SuperkmerBlock) -> bytes:
    """Encode a whole block as one frame (empty block: no bytes)."""
    lens = block.lengths
    n = lens.size
    if n == 0:
        return b""
    if int(lens.max()) > 0xFFFF:
        raise ValueError("superkmer too long for u16 length field")
    left = block.left_ext
    right = block.right_ext
    flags = np.where(left != NO_EXT, 0x01 | ((left & 0x3) << 2), 0) | np.where(
        right != NO_EXT, 0x02 | ((right & 0x3) << 4), 0
    )
    return b"".join((
        _FRAME.pack(n, block.bases.size),
        lens.astype("<u2").tobytes(),
        flags.astype(np.uint8).tobytes(),
        pack_codes(block.bases),
    ))


def _unpack_header(data: bytes, path) -> tuple[int, int]:
    if len(data) < _HEADER.size:
        raise PartitionFormatError(f"{path}: truncated header")
    magic, version, k, _reserved, count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise PartitionFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise PartitionFormatError(
            f"{path}: unsupported version {version} (expected {FORMAT_VERSION})"
        )
    if k == 0:
        raise PartitionFormatError(f"{path}: header has k=0")
    return k, count


def read_partition_header(path: str | os.PathLike) -> tuple[int, int]:
    """Return ``(k, record_count)`` from a partition file header."""
    with open(path, "rb") as fh:
        return _unpack_header(fh.read(_HEADER.size), path)


def read_partition(path: str | os.PathLike) -> SuperkmerBlock:
    """Load a partition file back into a :class:`SuperkmerBlock`.

    Walks the file frame by frame (one frame per block the writer was
    given); each frame decodes with ``np.frombuffer`` slices and one
    :func:`repro.dna.encoding.unpack_codes`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    k, count = _unpack_header(data, path)
    view = memoryview(data)
    lens_parts, flag_parts, base_parts = [], [], []
    pos = _HEADER.size
    seen = 0
    while pos < len(data):
        if pos + _FRAME.size > len(data):
            raise PartitionFormatError(
                f"{path}: {len(data) - pos} trailing bytes (partial frame header)"
            )
        n, nb = _FRAME.unpack_from(data, pos)
        body = pos + _FRAME.size
        end = body + 3 * n + packed_size(nb)
        if n == 0:
            raise PartitionFormatError(f"{path}: empty frame at offset {pos}")
        if end > len(data):
            raise PartitionFormatError(f"{path}: truncated frame at offset {pos}")
        lens = np.frombuffer(data, dtype="<u2", count=n, offset=body)
        if int(lens.sum(dtype=np.int64)) != nb:
            raise PartitionFormatError(
                f"{path}: frame at offset {pos} lengths do not sum to its {nb} bases"
            )
        if int(lens.min()) < k:
            raise PartitionFormatError(
                f"{path}: record {seen + int(np.argmin(lens))} shorter than k={k}"
            )
        lens_parts.append(lens)
        flag_parts.append(
            np.frombuffer(data, dtype=np.uint8, count=n, offset=body + 2 * n)
        )
        base_parts.append(unpack_codes(view[body + 3 * n:end], nb))
        seen += n
        pos = end
    if seen != count:
        raise PartitionFormatError(
            f"{path}: header counts {count} records, frames hold {seen}"
        )
    if not count:
        return empty_block(k)
    lens = np.concatenate(lens_parts)
    flags = np.concatenate(flag_parts)
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lens, dtype=np.int64, out=offsets[1:])
    return SuperkmerBlock(
        k=k,
        bases=np.concatenate(base_parts),
        offsets=offsets,
        left_ext=np.where(flags & 0x01, (flags >> 2) & 0x3, NO_EXT).astype(np.int8),
        right_ext=np.where(flags & 0x02, (flags >> 4) & 0x3, NO_EXT).astype(np.int8),
    )


def partition_file_size(block: SuperkmerBlock) -> int:
    """Exact on-disk size of a block written as one frame, in bytes."""
    return _HEADER.size + block.byte_size_encoded()


def write_partition(path: str | os.PathLike, block: SuperkmerBlock) -> int:
    """Write a whole block as one partition file; returns bytes written."""
    with PartitionWriter(path, block.k) as writer:
        writer.write_block(block)
    return os.path.getsize(path)
