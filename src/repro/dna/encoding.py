"""Bit-packed sequence encoding.

ParaHash encodes reads, k-mers and superkmers with 2 bits per base
(paper §III-B): "a character in reads or superkmers can be represented
with log2(4) bits".  The encoded MSP output is about 1/4 the size of the
text format, which is one of the paper's claimed IO savings.

Two packed representations are used throughout the library:

* **byte-packed** (`pack_codes` / `unpack_codes`): 4 bases per byte,
  first base in the *most significant* bit pair.  Used for partition
  files on disk (``repro.msp.binio``), where each frame packs all of
  its superkmers' bases as one run.
* **integer-packed** (`codes_to_int` / `int_to_codes`): the whole
  sequence as one big integer, first base most significant.  Because the
  code order is lexicographic, integer comparison of two equal-length
  packed sequences matches lexicographic string comparison.  Used for
  k-mers and minimizers.
"""

from __future__ import annotations

import numpy as np

from .alphabet import BITS_PER_BASE

#: How many bases fit into one packed byte.
BASES_PER_BYTE = 8 // BITS_PER_BASE


def packed_size(n_bases: int) -> int:
    """Number of bytes needed to byte-pack ``n_bases`` bases."""
    if n_bases < 0:
        raise ValueError("n_bases must be non-negative")
    return (n_bases + BASES_PER_BYTE - 1) // BASES_PER_BYTE


def pack_codes(codes: np.ndarray) -> bytes:
    """Pack 2-bit base codes into bytes, 4 bases per byte.

    The first base occupies the most significant two bits of the first
    byte; the final byte is zero-padded on the low end.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    n = codes.size
    if n == 0:
        return b""
    padded = np.zeros(packed_size(n) * BASES_PER_BYTE, dtype=np.uint8)
    padded[:n] = codes
    quads = padded.reshape(-1, BASES_PER_BYTE)
    packed = (
        (quads[:, 0] << 6) | (quads[:, 1] << 4) | (quads[:, 2] << 2) | quads[:, 3]
    ).astype(np.uint8)
    return packed.tobytes()


def unpack_codes(data: bytes, n_bases: int) -> np.ndarray:
    """Inverse of :func:`pack_codes`.

    Parameters
    ----------
    data:
        Byte-packed sequence.
    n_bases:
        Number of bases originally packed (the padding is discarded).
    """
    if n_bases == 0:
        return np.zeros(0, dtype=np.uint8)
    need = packed_size(n_bases)
    if len(data) < need:
        raise ValueError(
            f"packed data too short: need {need} bytes for {n_bases} bases, got {len(data)}"
        )
    raw = np.frombuffer(data[:need], dtype=np.uint8)
    out = np.empty(need * BASES_PER_BYTE, dtype=np.uint8)
    out[0::4] = (raw >> 6) & 0x3
    out[1::4] = (raw >> 4) & 0x3
    out[2::4] = (raw >> 2) & 0x3
    out[3::4] = raw & 0x3
    return out[:n_bases]


def codes_to_int(codes: np.ndarray) -> int:
    """Pack base codes into a single integer, first base most significant.

    Works for sequences of any length (Python integers are unbounded).
    For two equal-length sequences, integer order equals lexicographic
    order of the decoded strings.
    """
    value = 0
    for c in np.asarray(codes, dtype=np.uint8):
        value = (value << BITS_PER_BASE) | int(c)
    return value


def int_to_codes(value: int, n_bases: int) -> np.ndarray:
    """Inverse of :func:`codes_to_int` for a known sequence length."""
    if value < 0:
        raise ValueError("packed value must be non-negative")
    if n_bases < 0:
        raise ValueError("n_bases must be non-negative")
    out = np.empty(n_bases, dtype=np.uint8)
    for i in range(n_bases - 1, -1, -1):
        out[i] = value & 0x3
        value >>= BITS_PER_BASE
    if value:
        raise ValueError("packed value has more bases than n_bases")
    return out

