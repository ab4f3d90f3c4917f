"""The MSP graph-partitioning step (ParaHash Step 1).

Each read is decomposed into superkmers; every superkmer is routed to
partition ``hash(minimizer) % n_partitions`` together with its two
adjacency extension bases.  Identical kmers share their minimizer, so
all duplicates of a vertex land in the same partition — the partitions
are vertex-disjoint subgraph descriptions (§III-B).

The in-memory kernel is fully vectorized (no per-read Python loop);
:func:`spill_reads`, the one disk-backed Step 1 of every engine,
accumulates partition files over input pieces the way the paper's
Step 1 accumulates superkmer partitions as the input is processed.

On disk, partition ``p`` of a run is every file of the run's directory
named ``partition_{p:04d}_w{w:03d}.phsk``, one per writer ``w``
(:func:`partition_path`) that gave it a superkmer.  Nothing
concatenates them: Step 2 reads a partition's files together
(:func:`load_partition_group`).
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..concurrentsub.hashfunc import partition_ids
from ..dna.minimizer import SuperkmerSet, superkmers_for_reads
from ..dna.reads import ReadBatch
from .binio import PartitionWriter, read_partition
from .records import NO_EXT, SuperkmerBlock, empty_block, join_blocks


@dataclass(frozen=True)
class MspResult:
    """Output of the in-memory MSP kernel.

    Attributes
    ----------
    blocks:
        One :class:`SuperkmerBlock` per partition (possibly empty).
    superkmers:
        The raw superkmer decomposition (for statistics).
    k, p, n_partitions:
        The parameters the run used.
    """

    blocks: list[SuperkmerBlock]
    superkmers: SuperkmerSet
    k: int
    p: int
    n_partitions: int

    def total_kmers(self) -> int:
        return sum(b.total_kmers() for b in self.blocks)

    def kmers_per_partition(self) -> np.ndarray:
        return np.array([b.total_kmers() for b in self.blocks], dtype=np.int64)

    def superkmers_per_partition(self) -> np.ndarray:
        return np.array([b.n_superkmers for b in self.blocks], dtype=np.int64)


def _check_params(k: int, p: int, n_partitions: int, read_length: int) -> None:
    if not 1 <= p <= k:
        raise ValueError(f"need 1 <= p <= k, got p={p}, k={k}")
    if k > read_length:
        raise ValueError(f"k={k} exceeds read length {read_length}")
    if n_partitions < 1:
        raise ValueError("n_partitions must be >= 1")


def partition_reads(
    reads: ReadBatch, k: int, p: int, n_partitions: int
) -> MspResult:
    """Partition a read batch into superkmer blocks (vectorized).

    This is the computational core the paper offloads to the GPU in
    Step 1 (computing superkmer ids and offsets) followed by the
    irregular gather the paper leaves on the CPU.
    """
    _check_params(k, p, n_partitions, reads.read_length)
    length = reads.read_length
    flat_codes = reads.codes.ravel()
    sk = superkmers_for_reads(reads.codes, k, p)
    pids = partition_ids(sk.minimizer, n_partitions)

    # Group superkmers by partition id (stable keeps read order within
    # a partition, matching the sequential writer); on 16-bit keys the
    # stable sort is a radix sort.
    keys = pids.astype(np.uint16) if n_partitions <= 1 << 16 else pids
    order = np.argsort(keys, kind="stable")
    sizes = np.bincount(pids, minlength=n_partitions)
    bounds = np.zeros(n_partitions + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])

    # Every superkmer array, permuted once into partition order, so a
    # partition is one contiguous slice of each.
    start = sk.start[order]
    lengths = sk.n_kmers[order].astype(np.int64) + (k - 1)
    first = sk.read_idx[order] * length + start  # flat index of base 0
    offsets = np.zeros(len(sk) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])

    # Adjacency extensions: the read base just before / after the span.
    left_ext = np.where(start > 0, flat_codes[first - 1].astype(np.int8),
                        np.int8(NO_EXT))
    right_ext = np.where(
        start + lengths < length,
        flat_codes[np.minimum(first + lengths, flat_codes.size - 1)].astype(np.int8),
        np.int8(NO_EXT),
    )

    # Base i of the partitions' concatenation is flat_codes[shift + i],
    # with ``shift`` its superkmer's first base minus its offset.  Each
    # partition gathers its own slice, so one partition's index exists
    # at a time.  Partitions without superkmers share one empty block.
    shift = first - offsets[:-1]
    blocks = [empty_block(k)] * n_partitions
    for part in np.flatnonzero(sizes):
        lo, hi = bounds[part], bounds[part + 1]
        gather = np.repeat(shift[lo:hi], lengths[lo:hi])
        gather += np.arange(offsets[lo], offsets[hi])
        blocks[part] = SuperkmerBlock(
            k=k,
            bases=flat_codes[gather],
            offsets=offsets[lo : hi + 1] - offsets[lo],
            left_ext=left_ext[lo:hi],
            right_ext=right_ext[lo:hi],
        )
    return MspResult(blocks=blocks, superkmers=sk, k=k, p=p, n_partitions=n_partitions)


@dataclass(frozen=True)
class MspRunReport:
    """One writer's disk-backed Step-1 run (:func:`spill_reads`).

    ``paths`` maps each partition the writer touched to its file, and
    ``kmers_per_partition`` counts k-mers over all partitions.
    """

    paths: dict[int, Path]
    n_reads: int
    n_superkmers: int
    kmers_per_partition: np.ndarray
    bytes_written: int

    @property
    def n_kmers(self) -> int:
        return int(self.kmers_per_partition.sum())


def spill_reads(
    pieces: Iterable[ReadBatch],
    spill_dir: str | os.PathLike,
    writer: int,
    k: int,
    p: int,
    n_partitions: int,
) -> MspRunReport:
    """Step 1 on disk: partition each read piece into writer ``writer``'s files.

    Every engine's Step 1 runs this.  Each piece's superkmer blocks are
    appended to :func:`partition_path` files of ``spill_dir``, one frame
    per piece and partition.  A file is created when its partition first
    gets a superkmer, so a partition the pieces never touch has no file
    from this writer.  Pieces are taken one at a time, so a lazy
    ``pieces`` iterator keeps one piece in memory.
    """
    files: dict[int, PartitionWriter] = {}
    n_reads = 0
    n_superkmers = 0
    kmers_per_partition = np.zeros(n_partitions, dtype=np.int64)
    try:
        for piece in pieces:
            result = partition_reads(piece, k, p, n_partitions)
            for partition, block in enumerate(result.blocks):
                if not block.n_superkmers:
                    continue
                if partition not in files:
                    files[partition] = PartitionWriter(
                        partition_path(spill_dir, partition, writer), k)
                files[partition].write_block(block)
            n_reads += piece.n_reads
            n_superkmers += len(result.superkmers)
            kmers_per_partition += result.kmers_per_partition()
    finally:
        for out in files.values():
            out.close()
    paths = {part: files[part].path for part in sorted(files)}
    return MspRunReport(
        paths=paths,
        n_reads=n_reads,
        n_superkmers=n_superkmers,
        kmers_per_partition=kmers_per_partition,
        bytes_written=sum(os.path.getsize(path) for path in paths.values()),
    )


def partition_to_files(
    reads: ReadBatch,
    k: int,
    p: int,
    n_partitions: int,
    out_dir: str | os.PathLike,
    n_input_pieces: int = 1,
) -> MspRunReport:
    """Step 1 of a one-writer run: clear ``out_dir``, then spill the
    reads' ``n_input_pieces`` equal pieces as writer 0."""
    _check_params(k, p, n_partitions, reads.read_length)
    clear_partition_files(out_dir)
    return spill_reads(reads.split(n_input_pieces), out_dir, 0, k, p,
                       n_partitions)


def load_partitions(paths: Iterable[Path] | Iterable[str]) -> list[SuperkmerBlock]:
    """Read partition files back into blocks, one per file."""
    return [read_partition(path) for path in paths]


# -- partition files on disk -----------------------------------------------------

_PARTITION_NAME = re.compile(r"partition_(\d{4,})_w(\d{3,})\.phsk")


def partition_path(directory: str | os.PathLike, partition: int,
                   writer: int) -> Path:
    """Writer ``writer``'s file of partition ``partition``."""
    return Path(directory) / f"partition_{partition:04d}_w{writer:03d}.phsk"


def parse_partition_path(path: str | os.PathLike) -> tuple[int, int] | None:
    """``(partition, writer)`` of a :func:`partition_path` name, else None."""
    match = _PARTITION_NAME.fullmatch(Path(path).name)
    return (int(match[1]), int(match[2])) if match else None


def clear_partition_files(directory: str | os.PathLike) -> None:
    """Create ``directory`` and delete any partition files in it, so
    that it holds one run's partitions only."""
    Path(directory).mkdir(parents=True, exist_ok=True)
    for path in Path(directory).glob("partition_*_w*.phsk"):
        if parse_partition_path(path) is not None:
            path.unlink()


def spill_groups(
    spill_paths: list[dict[int, Path]] | list[dict[int, str]],
    n_partitions: int,
) -> list[list[Path]]:
    """Group per-worker spill files by partition id.

    ``spill_paths[w]`` maps partition id to worker ``w``'s spill file.
    Because MSP routes every duplicate of a kmer to one partition id
    (the minimizer-hash class), grouping by that id *is* the merge:
    ``groups[p]`` lists every worker's contribution to partition ``p``.
    """
    groups: list[list[Path]] = [[] for _ in range(n_partitions)]
    for per_worker in spill_paths:
        for partition, path in per_worker.items():
            groups[int(partition)].append(Path(path))
    return groups


def load_partition_group(paths: Sequence[str | os.PathLike],
                         k: int) -> SuperkmerBlock:
    """Read one partition's files (all its writers') as a single block."""
    return join_blocks([read_partition(path) for path in paths], k)
