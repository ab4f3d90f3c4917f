"""K-mer extraction, reverse complement and canonical form.

A *kmer* is a length-K substring of a read; every kmer generated from
the input reads is a candidate vertex of the De Bruijn graph (paper
§II-A).  Because a DNA sequence has a reverse complement, a graph vertex
is represented by the **canonical** kmer — the lexicographically smaller
of a kmer and its reverse complement — and the constructed graph is
bi-directed.

Two representations are provided:

* a **vectorized uint64 path** for ``K <= 31`` (the paper uses K = 27),
  where a kmer is the 2K low bits of a ``numpy.uint64`` and whole read
  batches are processed with array operations; and
* a **scalar Python-int path** for arbitrary K, used by the reference
  implementations and the multi-word hash-table keys.
"""

from __future__ import annotations

import numpy as np

from .alphabet import decode
from .encoding import int_to_codes

#: Largest K supported by the vectorized uint64 representation.
MAX_U64_K = 31

# (shift, mask) pairs that swap adjacent 2-bit fields, then nibbles.
_SWAPS = (
    (np.uint64(2), np.uint64(0x3333333333333333)),
    (np.uint64(4), np.uint64(0x0F0F0F0F0F0F0F0F)),
)


def kmer_mask(k: int) -> int:
    """Bit mask covering the 2K bits of a packed kmer."""
    _check_k(k)
    return (1 << (2 * k)) - 1


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _check_u64_k(k: int) -> None:
    _check_k(k)
    if k > MAX_U64_K:
        raise ValueError(f"uint64 kmer path requires k <= {MAX_U64_K}, got {k}")


# ---------------------------------------------------------------------------
# Vectorized uint64 path
# ---------------------------------------------------------------------------

def kmers_from_reads(codes: np.ndarray, k: int) -> np.ndarray:
    """Extract all kmers from a batch of equal-length reads.

    Parameters
    ----------
    codes:
        ``(n_reads, L)`` uint8 matrix of 2-bit base codes.
    k:
        Kmer length, at most :data:`MAX_U64_K`.

    Returns
    -------
    numpy.ndarray
        ``(n_reads, L - k + 1)`` uint64 matrix; element ``[i, j]`` is the
        packed kmer ``reads[i][j : j + k]``.
    """
    _check_u64_k(k)
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.ndim != 2:
        raise ValueError("codes must be a 2-D (n_reads, L) matrix")
    n, length = codes.shape
    if length < k:
        raise ValueError(f"read length {length} shorter than k={k}")
    n_kmers = length - k + 1
    out = np.empty((n, n_kmers), dtype=np.uint64)
    two = np.uint64(2)
    mask = np.uint64(kmer_mask(k))
    cur = np.zeros(n, dtype=np.uint64)
    for j in range(k):
        cur = (cur << two) | codes[:, j].astype(np.uint64)
    out[:, 0] = cur
    for j in range(k, length):
        cur = ((cur << two) | codes[:, j].astype(np.uint64)) & mask
        out[:, j - k + 1] = cur
    return out


def revcomp_u64(kmers: np.ndarray, k: int) -> np.ndarray:
    """Reverse complement of packed uint64 kmers, vectorized.

    Complementing a 2-bit code is ``code ^ 3``, so the whole word is
    inverted; the base order is then reversed by swapping adjacent
    2-bit pairs, then nibbles, then bytes, and a shift drops the
    (complemented) padding.

    Accepts ``k`` up to 32 (a full word): the two-word big-K substrate
    reverse-complements its 32-base low plane through this function.
    """
    _check_k(k)
    if k > 32:
        raise ValueError(f"revcomp_u64 requires k <= 32, got {k}")
    x = np.invert(np.ascontiguousarray(kmers, dtype=np.uint64))
    t = np.empty_like(x)
    for shift, mask in _SWAPS:
        np.right_shift(x, shift, out=t)
        t &= mask
        x &= mask
        x <<= shift
        x |= t
    x.byteswap(inplace=True)
    x >>= np.uint64(64 - 2 * k)
    return x


def canonical_u64(kmers: np.ndarray, k: int) -> np.ndarray:
    """Canonical form (minimum of kmer and reverse complement), vectorized."""
    rc = revcomp_u64(kmers, k)
    return np.minimum(np.asarray(kmers, dtype=np.uint64), rc)


def canonical_with_flip(kmers: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical kmers plus a boolean flag marking which were flipped.

    ``flipped[i]`` is ``True`` when the canonical form is the reverse
    complement of the input kmer (the input was not canonical).  Edge
    direction bookkeeping in the graph needs this flag.
    """
    kmers = np.asarray(kmers, dtype=np.uint64)
    rc = revcomp_u64(kmers, k)
    flipped = rc < kmers
    return np.where(flipped, rc, kmers), flipped


# ---------------------------------------------------------------------------
# Scalar Python-int path (arbitrary K)
# ---------------------------------------------------------------------------

def kmer_from_codes(codes: np.ndarray) -> int:
    """Pack a code array into a Python-int kmer (arbitrary length)."""
    value = 0
    for c in np.asarray(codes, dtype=np.uint8):
        value = (value << 2) | int(c)
    return value


def revcomp_int(kmer: int, k: int) -> int:
    """Reverse complement of a Python-int kmer."""
    _check_k(k)
    out = 0
    for _ in range(k):
        out = (out << 2) | ((kmer & 0x3) ^ 0x3)
        kmer >>= 2
    return out


def canonical_int(kmer: int, k: int) -> int:
    """Canonical form of a Python-int kmer."""
    return min(kmer, revcomp_int(kmer, k))


def kmer_to_str(kmer: int, k: int) -> str:
    """Decode a packed kmer to its DNA string."""
    return decode(int_to_codes(int(kmer), k))


def iter_kmers(codes: np.ndarray, k: int):
    """Yield each packed kmer of a single read (reference implementation).

    Slow but obviously correct; used as ground truth in tests.
    """
    _check_k(k)
    codes = np.asarray(codes, dtype=np.uint8)
    for i in range(len(codes) - k + 1):
        yield kmer_from_codes(codes[i : i + k])
