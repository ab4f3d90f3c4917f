"""Superkmer records and partition blocks.

A superkmer partition holds superkmers plus **two extra base pairs** of
adjacency context (§III-B): the read base immediately before and
immediately after the superkmer, when they exist.  The original MSP
algorithm lost this adjacency information, so the final graph could not
be constructed from its partitions; carrying the extensions is
ParaHash's fix.

In memory a partition is a :class:`SuperkmerBlock` — a structure of
arrays (flat base codes + offsets + extension bases) so that kmer and
edge generation over a whole partition is vectorizable.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from ..dna.alphabet import decode
from ..dna.kmer import key_width, pack_planes

#: Extension sentinel: the superkmer touches the read boundary.
NO_EXT = -1


@dataclass(frozen=True)
class SuperkmerRecord:
    """One superkmer with its adjacency extensions (row form, for tests)."""

    bases: np.ndarray  # uint8 codes, length >= k
    left_ext: int  # base code before the superkmer, or NO_EXT
    right_ext: int  # base code after the superkmer, or NO_EXT

    def n_kmers(self, k: int) -> int:
        return len(self.bases) - k + 1

    def to_str(self) -> str:
        return decode(self.bases)


class SuperkmerBlock:
    """A partition's superkmers as a structure of arrays.

    Attributes
    ----------
    k:
        Kmer length.
    bases:
        Flat uint8 array: all superkmer base codes, concatenated.
    offsets:
        int64 array of length ``n + 1``; superkmer ``i`` occupies
        ``bases[offsets[i] : offsets[i + 1]]``.
    left_ext / right_ext:
        int8 arrays of length ``n``: extension base codes or
        :data:`NO_EXT`.
    lengths:
        int64 array of length ``n``: each superkmer's base count,
        ``np.diff(offsets)``.
    """

    def __init__(
        self,
        k: int,
        bases: np.ndarray,
        offsets: np.ndarray,
        left_ext: np.ndarray,
        right_ext: np.ndarray,
    ) -> None:
        self.k = int(k)
        self.bases = np.asarray(bases, dtype=np.uint8)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.left_ext = np.asarray(left_ext, dtype=np.int8)
        self.right_ext = np.asarray(right_ext, dtype=np.int8)
        self._validate()

    def _validate(self) -> None:
        if self.offsets.size == 0 or self.offsets[0] != 0:
            raise ValueError("offsets must start at 0")
        if int(self.offsets[-1]) != self.bases.size:
            raise ValueError("offsets must end at len(bases)")
        # Base length of each superkmer; nothing writes ``offsets``
        # after construction, so it is computed once here.
        self.lengths = np.diff(self.offsets)
        if self.lengths.size and int(self.lengths.min()) < self.k:
            raise ValueError(f"every superkmer must have >= k={self.k} bases")
        n = self.lengths.size
        if self.left_ext.shape != (n,) or self.right_ext.shape != (n,):
            raise ValueError("extension arrays must have one entry per superkmer")

    # -- sizes ---------------------------------------------------------------

    @property
    def n_superkmers(self) -> int:
        return int(self.offsets.size - 1)

    @property
    def kmers_per_superkmer(self) -> np.ndarray:
        return self.lengths - (self.k - 1)

    def total_kmers(self) -> int:
        return int(self.kmers_per_superkmer.sum())

    def total_bases(self) -> int:
        return int(self.bases.size)

    def __len__(self) -> int:
        return self.n_superkmers

    # -- access ----------------------------------------------------------------

    def record(self, i: int) -> SuperkmerRecord:
        """Row form of superkmer ``i``."""
        lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
        return SuperkmerRecord(
            bases=self.bases[lo:hi].copy(),
            left_ext=int(self.left_ext[i]),
            right_ext=int(self.right_ext[i]),
        )

    def iter_records(self):
        for i in range(self.n_superkmers):
            yield self.record(i)

    # -- kmer generation --------------------------------------------------------

    def kmer_positions(self, superkmers: np.ndarray | None = None) -> np.ndarray:
        """Flat base position of every kmer start, grouped by superkmer.

        Kmers never span superkmer boundaries: superkmer ``i`` starts
        ``kmers_per_superkmer[i]`` kmers at ``offsets[i]``, one base
        apart.  ``superkmers`` (an index) picks which superkmers, in
        which order; every one in block order by default.
        """
        chosen = slice(None) if superkmers is None else superkmers
        per_sk = self.kmers_per_superkmer[chosen]
        firsts = np.cumsum(per_sk) - per_sk  # instance index of each first kmer
        return np.arange(int(per_sk.sum()), dtype=np.int64) + np.repeat(
            self.offsets[:-1][chosen] - firsts, per_sk
        )

    def kmer_planes(
        self, superkmers: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The kmers of the block as key planes, with their flat positions.

        Returns ``(planes, positions)`` for the kmers of
        :meth:`kmer_positions` (every superkmer by default):
        ``planes[:, i]`` is the ``(W,)`` key of the kmer starting at
        ``bases[positions[i]]``, packed at only those starts by
        :func:`repro.dna.kmer.pack_planes`.
        """
        positions = self.kmer_positions(superkmers)
        return pack_planes(self.bases, self.k, positions), positions

    def flat_kmers(self) -> tuple[np.ndarray, np.ndarray]:
        """``(kmers, positions)`` for one-word ``k``: :meth:`kmer_planes`'
        single plane."""
        if key_width(self.k) != 1:
            raise ValueError(f"flat_kmers needs one-word keys, got k={self.k}")
        planes, positions = self.kmer_planes()
        return planes[0], positions

    def byte_size_encoded(self) -> int:
        """Bytes this block occupies in the 2-bit partition file format.

        The block as one frame: frame header, then per record a 2-byte
        length and a 1-byte extension flag, then all bases packed 4 per
        byte (:func:`repro.msp.binio.frame_size`; 0 when empty).  Used
        for the encoding-ablation benchmark.
        """
        from .binio import frame_size

        return frame_size(self.n_superkmers, self.total_bases())

    def byte_size_text(self) -> int:
        """Bytes of the equivalent plain-text representation (1 byte per
        base, extensions as 2 extra characters, newline terminator)."""
        lengths = self.lengths
        return int((lengths + 3).sum())


def block_from_records(k: int, records: list[SuperkmerRecord]) -> SuperkmerBlock:
    """Assemble a block from row-form records (test helper)."""
    if records:
        bases = np.concatenate([r.bases for r in records])
        offsets = np.concatenate(
            ([0], np.cumsum([len(r.bases) for r in records]))
        ).astype(np.int64)
        left = np.array([r.left_ext for r in records], dtype=np.int8)
        right = np.array([r.right_ext for r in records], dtype=np.int8)
    else:
        bases = np.zeros(0, dtype=np.uint8)
        offsets = np.zeros(1, dtype=np.int64)
        left = np.zeros(0, dtype=np.int8)
        right = np.zeros(0, dtype=np.int8)
    return SuperkmerBlock(k=k, bases=bases, offsets=offsets, left_ext=left, right_ext=right)


def empty_block(k: int) -> SuperkmerBlock:
    return block_from_records(k, [])


def concat_blocks(blocks: list[SuperkmerBlock]) -> SuperkmerBlock:
    """Concatenate blocks of the same k (accumulating a partition across
    input pieces, as Step 1 does over the whole input)."""
    blocks = [b for b in blocks if b.n_superkmers]
    if not blocks:
        raise ValueError("need at least one non-empty block (or use empty_block)")
    k = blocks[0].k
    if any(b.k != k for b in blocks):
        raise ValueError("all blocks must share k")
    bases = np.concatenate([b.bases for b in blocks])
    sizes = [b.offsets[-1] for b in blocks]
    shifts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    offsets = np.concatenate(
        [np.asarray([0], dtype=np.int64)]
        + [b.offsets[1:] + shift for b, shift in zip(blocks, shifts)]
    )
    return SuperkmerBlock(
        k=k,
        bases=bases,
        offsets=offsets,
        left_ext=np.concatenate([b.left_ext for b in blocks]),
        right_ext=np.concatenate([b.right_ext for b in blocks]),
    )


def join_blocks(blocks: Iterable[SuperkmerBlock], k: int) -> SuperkmerBlock:
    """One partition's pieces as a single block: empty when every piece
    is, the one non-empty piece itself, else one :func:`concat_blocks`."""
    nonempty = [b for b in blocks if b.n_superkmers]
    if not nonempty:
        return empty_block(k)
    return nonempty[0] if len(nonempty) == 1 else concat_blocks(nonempty)
