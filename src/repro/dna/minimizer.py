"""Minimizers (P-minimum-substrings) and superkmer decomposition.

Definitions from the paper (§II-A):

* **P-minimum-substring** (Definition 1): for a kmer, the lexicographic
  minimum among all its length-P substrings.
* **Superkmer** (Definition 2): a maximal run of consecutive kmers of a
  read that share a common P-minimum-substring; that substring is the
  superkmer's **minimizer**.

Because adjacent kmers overlap by K-1 bases, they usually share their
minimizer, so a superkmer compacts M kmers from O(MK) to O(M + K)
space — the foundation of the Minimum Substring Partitioning (MSP)
algorithm that ParaHash builds on.

Minimizer values are packed 2-bit integers; since the code order is
lexicographic, integer comparison implements Definition 1's string
comparison.  The vectorized path scans a batch of reads as one
row-major base sequence and builds every p-mer at once by doubling
widths: 2-base values from adjacent 1-base values, 4-base from adjacent
2-base, and so on, with the binary remainder of P appended from the
power-of-two pieces.  The reverse-complement p-mers come the same way
from the complemented bases, packed last base first.  Each join writes
the narrowest unsigned dtype that holds its width, so the p-mers are
``uint32`` for 9 <= P <= 16 and ``uint64`` for larger P (``uint8`` /
``uint16`` below).  Each kmer's minimizer is a doubling sliding-window
minimum over them in that dtype, giving O(L log P + L log K) work per
read instead of the naive O(LKP); superkmers start where it changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kmer import MAX_U64_K


def sliding_min(values: np.ndarray, window: int) -> np.ndarray:
    """Sliding-window minimum along the last axis.

    Uses the doubling (sparse-table style) technique: after ``ceil(log2
    window)`` passes, ``out[..., i]`` is the minimum of
    ``values[..., i : i + window]``.

    Parameters
    ----------
    values:
        ``(..., m)`` array.
    window:
        Window width, ``1 <= window <= m``.
    """
    values = np.asarray(values)
    m = values.shape[-1]
    if not 1 <= window <= m:
        raise ValueError(f"window must be in [1, {m}], got {window}")
    if window == 1:
        # Wider windows return freshly allocated arrays; the degenerate
        # window must not hand back an aliased view of the input.
        return values.copy()
    out = values
    covered = 1
    while covered < window:
        shift = min(covered, window - covered)
        out = np.minimum(out[..., : out.shape[-1] - shift], out[..., shift:])
        covered += shift
    return out


def _pmers(bases: np.ndarray, p: int, reverse: bool = False) -> np.ndarray:
    """Packed p-mer at every start of the uint8 ``bases``, by doubling widths.

    ``piece`` holds the packed values of every ``width``-base window;
    each round joins two adjacent windows into one twice as wide.  The
    widths that make up ``p`` in binary are appended to ``out`` as they
    appear.  Every join writes the narrowest unsigned dtype that holds
    its width (:func:`pmer_dtype`).  With ``reverse`` a window's bases
    are packed last base first, so complemented ``bases`` give reverse
    complements.  Returns ``bases.size - p + 1`` values.
    """

    def join(left: np.ndarray, right: np.ndarray, left_width: int,
             right_width: int) -> np.ndarray:
        high, low, shift = ((right, left, left_width) if reverse
                            else (left, right, right_width))
        # A multiply, not a shift: numpy has no vector 8-bit shift.
        joined = np.multiply(high, 4**shift,
                             dtype=pmer_dtype(left_width + right_width))
        joined |= low
        return joined

    piece = bases
    out, out_width, width = None, 0, 1
    while True:
        if p & width:
            out = (piece if out is None else
                   join(out[: out.size - width], piece[out_width:],
                        out_width, width))
            out_width += width
        if 2 * width > p:
            return out
        piece = join(piece[:-width], piece[width:], width, width)
        width *= 2


def pmer_dtype(p: int) -> np.dtype:
    """The narrowest unsigned dtype that holds a packed ``p``-mer."""
    return np.min_scalar_type(4**p - 1)


def _flat_minimizers(codes: np.ndarray, k: int, p: int,
                     canonical: bool) -> np.ndarray:
    """Minimizer of the kmer at every flat index of ``codes``.

    The reads are scanned as one row-major sequence, so every pass is
    over one contiguous array; entry ``i * L + j`` is kmer ``j`` of read
    ``i`` for ``j <= L - k``, and the entries of kmers that cross into
    the next read are meaningless.  Returns ``n * L - k + 1`` values of
    :func:`pmer_dtype` (none for no reads).
    """
    if not codes.size:
        return np.zeros(0, dtype=pmer_dtype(p))
    bases = codes.ravel()
    pmers = _pmers(bases, p)
    if canonical:
        pmers = np.minimum(pmers, _pmers(bases ^ 3, p, reverse=True))
    return sliding_min(pmers, k - p + 1)


def _check_reads(codes: np.ndarray, k: int, p: int) -> np.ndarray:
    """``codes`` as a uint8 read matrix whose reads hold a kmer."""
    _check_kp(k, p)
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.ndim != 2:
        raise ValueError("codes must be a 2-D (n_reads, L) matrix")
    if codes.shape[1] < k:
        raise ValueError(f"read length {codes.shape[1]} shorter than k={k}")
    return codes


def _check_kp(k: int, p: int) -> None:
    if not 1 <= p <= k:
        raise ValueError(f"minimizer length p must satisfy 1 <= p <= k, got p={p}, k={k}")
    if p > MAX_U64_K:
        raise ValueError(f"minimizer length p must be <= {MAX_U64_K}, got p={p}")


@dataclass(frozen=True)
class SuperkmerSet:
    """Superkmers of a read batch, as a structure of arrays.

    Attributes
    ----------
    read_idx:
        Read index of each superkmer.
    start:
        Index (within the read) of the superkmer's first kmer; the
        superkmer spans bases ``[start, start + n_kmers + k - 2]``.
    n_kmers:
        Number of kmers the superkmer contains; its base length is
        ``n_kmers + k - 1``.
    minimizer:
        Packed minimizer value shared by all its kmers.
    k:
        Kmer length the decomposition used.
    read_length:
        Length of every read in the batch.
    """

    read_idx: np.ndarray
    start: np.ndarray
    n_kmers: np.ndarray
    minimizer: np.ndarray
    k: int
    read_length: int

    def __len__(self) -> int:
        return int(self.read_idx.size)

    @property
    def base_lengths(self) -> np.ndarray:
        """Base length of each superkmer (``n_kmers + k - 1``)."""
        return self.n_kmers + (self.k - 1)

    def total_kmers(self) -> int:
        """Total kmers across all superkmers."""
        return int(self.n_kmers.sum())


def superkmers_for_reads(
    codes: np.ndarray, k: int, p: int, canonical: bool = True
) -> SuperkmerSet:
    """Decompose a batch of equal-length reads into superkmers.

    Consecutive kmers with equal minimizer *values* are grouped; a new
    superkmer starts at every read start and at every minimizer change.
    The output order is row-major (all superkmers of read 0 first, in
    left-to-right order), which downstream code relies on.

    With ``canonical`` (the default) each length-P substring is taken in
    its canonical form (minimum of itself and its reverse complement)
    before the window minimum.  This makes the minimizer
    **strand-invariant**: a kmer and its reverse complement get the same
    minimizer, so both orientations of a graph vertex are routed to the
    same partition, the vertex-disjoint MSP guarantee the paper relies
    on for bi-directed graphs.  ``False`` gives the literal Definition 1
    (plain lexicographic minimum substring).  The minimizer values are
    :func:`pmer_dtype` p-mers (``uint32`` for 9 <= P <= 16), widened to
    ``uint64`` in the result.
    """
    codes = _check_reads(codes, k, p)
    n, length = codes.shape
    n_kmers = length - k + 1
    minis = _flat_minimizers(codes, k, p, canonical)
    # One flag per base: a superkmer starts at every read start and at
    # every minimizer change; kmers that cross into the next read start
    # none.
    change = np.empty(codes.size, dtype=bool)
    np.not_equal(minis[1:], minis[:-1], out=change[1 : minis.size])
    rows = change.reshape(n, length)
    rows[:, 0] = True
    rows[:, n_kmers:] = False
    first = np.flatnonzero(change)
    read_idx, starts = np.divmod(first, length)
    # A superkmer ends at the next start, or at its read's last kmer.
    kmers = np.minimum(np.diff(first, append=codes.size), n_kmers - starts)
    return SuperkmerSet(
        read_idx=read_idx,
        start=starts.astype(np.int32),
        n_kmers=kmers.astype(np.int32),
        minimizer=minis[first].astype(np.uint64),
        k=k,
        read_length=length,
    )
