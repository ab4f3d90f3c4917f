"""Inspection of superkmer partition directories.

Operational tooling for the on-disk intermediate state: summarize a
directory of ``.phsk`` partition files (the Step 1 output / Step 2
input) without loading the superkmers — only headers and sizes — plus a
deep scan that loads each partition for exact kmer counts.  A partition
is all of its writers' files (:func:`repro.msp.partitioner.partition_path`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binio import read_partition_header
from .partitioner import load_partition_group, parse_partition_path


@dataclass(frozen=True)
class PartitionInfo:
    """Cheap (header-only) facts about one partition's files."""

    partition: int
    paths: list[Path]
    n_superkmers: int
    file_bytes: int


@dataclass(frozen=True)
class PartitionDirSummary:
    """Aggregate view of a partition directory: its non-empty partitions."""

    partitions: list[PartitionInfo]
    k: int
    total_superkmers: int
    total_bytes: int

    @property
    def n_partitions(self) -> int:
        return len(self.partitions)

    def superkmer_counts(self) -> np.ndarray:
        return np.array([p.n_superkmers for p in self.partitions], dtype=np.int64)

    def balance_cv(self) -> float:
        """Coefficient of variation of per-partition superkmer counts."""
        counts = self.superkmer_counts()
        mean = counts.mean() if counts.size else 0.0
        return float(counts.std() / mean) if mean else 0.0


def list_partition_files(directory: str | os.PathLike) -> list[Path]:
    """The partition files of a directory, sorted by name."""
    return sorted(path for path in Path(directory).glob("*.phsk")
                  if parse_partition_path(path) is not None)


def inspect_partition_dir(directory: str | os.PathLike) -> PartitionDirSummary:
    """Header-only summary of every partition in a directory."""
    paths = list_partition_files(directory)
    if not paths:
        raise FileNotFoundError(
            f"no partition files (partition_*_w*.phsk) in {directory}")
    groups: dict[int, list[Path]] = {}
    counts: dict[int, int] = {}
    ks = set()
    for path in paths:
        k, count = read_partition_header(path)
        ks.add(k)
        partition = parse_partition_path(path)[0]
        groups.setdefault(partition, []).append(path)
        counts[partition] = counts.get(partition, 0) + count
    if len(ks) != 1:
        raise ValueError(f"{directory}: mixed k values {sorted(ks)}")
    partitions = [
        PartitionInfo(partition=part, paths=groups[part],
                      n_superkmers=counts[part],
                      file_bytes=sum(p.stat().st_size for p in groups[part]))
        for part in sorted(groups) if counts[part]
    ]
    return PartitionDirSummary(
        partitions=partitions,
        k=ks.pop(),
        total_superkmers=sum(counts.values()),
        total_bytes=sum(path.stat().st_size for path in paths),
    )


def deep_scan_partition(info: PartitionInfo, k: int) -> dict:
    """Load one partition's files and report exact contents."""
    block = load_partition_group(info.paths, k)
    lengths = block.lengths
    return {
        "partition": info.partition,
        "n_files": len(info.paths),
        "k": block.k,
        "n_superkmers": block.n_superkmers,
        "n_kmers": block.total_kmers(),
        "total_bases": block.total_bases(),
        "mean_superkmer_length": float(lengths.mean()) if lengths.size else 0.0,
        "max_superkmer_length": int(lengths.max()) if lengths.size else 0,
        "n_with_left_ext": int((block.left_ext >= 0).sum()),
        "n_with_right_ext": int((block.right_ext >= 0).sum()),
    }
