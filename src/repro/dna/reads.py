"""Read batches: the in-memory unit of input data.

ParaHash processes its input partition by partition (paper §III-A): the
input file is split into equal-size pieces and reads are extracted from
each piece.  A :class:`ReadBatch` is one such piece — a matrix of
equal-length reads already translated to 2-bit codes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alphabet import decode, encode


@dataclass(frozen=True)
class ReadBatch:
    """A batch of equal-length reads as a 2-bit code matrix.

    Attributes
    ----------
    codes:
        ``(n_reads, read_length)`` uint8 matrix with values in
        ``{0, 1, 2, 3}``.
    """

    codes: np.ndarray

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes, dtype=np.uint8)
        if codes.ndim != 2:
            raise ValueError("ReadBatch codes must be 2-D (n_reads, read_length)")
        if codes.size and codes.max() > 3:
            raise ValueError("ReadBatch codes must be 2-bit base codes")
        object.__setattr__(self, "codes", codes)

    @property
    def n_reads(self) -> int:
        return int(self.codes.shape[0])

    @property
    def read_length(self) -> int:
        return int(self.codes.shape[1])

    @property
    def total_bases(self) -> int:
        return int(self.codes.size)

    def n_kmers(self, k: int) -> int:
        """Total kmers the batch generates: ``N * (L - K + 1)`` (§II-A)."""
        if k > self.read_length:
            raise ValueError(f"k={k} exceeds read length {self.read_length}")
        return self.n_reads * (self.read_length - k + 1)

    def __len__(self) -> int:
        return self.n_reads

    def read_str(self, i: int) -> str:
        """Decode read ``i`` to a DNA string."""
        return decode(self.codes[i])

    def iter_strs(self):
        """Yield every read as a DNA string."""
        for i in range(self.n_reads):
            yield self.read_str(i)

    @classmethod
    def from_strs(cls, reads: list[str]) -> "ReadBatch":
        """Build a batch from equal-length DNA strings."""
        if not reads:
            return cls(codes=np.zeros((0, 0), dtype=np.uint8))
        length = len(reads[0])
        for r in reads:
            if len(r) != length:
                raise ValueError(
                    f"all reads in a batch must have equal length; got {len(r)} != {length}"
                )
        return cls(codes=np.stack([encode(r) for r in reads]))

    def split(self, n_batches: int) -> list["ReadBatch"]:
        """Split into up to ``n_batches`` contiguous, near-equal batches.

        Mirrors ParaHash partitioning the input file to equal sizes in
        Step 1.  Returns fewer batches when there are fewer reads than
        requested; empty batches are never produced for non-empty input.
        """
        bounds = self.split_bounds(n_batches)
        if not bounds:
            return [self]
        return [ReadBatch(codes=self.codes[start:stop]) for start, stop in bounds]

    def split_bounds(self, n_batches: int) -> list[tuple[int, int]]:
        """The ``(start, stop)`` read ranges of :meth:`split`.

        Non-empty and contiguous; ``[]`` for an empty batch.  Workers
        that share the read matrix take these ranges instead of copies.
        """
        if n_batches < 1:
            raise ValueError("n_batches must be >= 1")
        n_batches = min(n_batches, self.n_reads)
        bounds = np.linspace(0, self.n_reads, n_batches + 1).astype(int)
        return [(int(bounds[i]), int(bounds[i + 1])) for i in range(n_batches)]

