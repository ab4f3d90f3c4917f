"""The end-to-end ParaHash driver.

Runs the two-step workflow of Fig 3: **MSP** (graph partitioning into
superkmer partitions) then **Hashing** (one subgraph per partition,
built by the partition's single owner), either fully in memory or
through encoded partition files on disk.  In this process the
partitions are built one after another; ``backend="processes"`` hands
the run to worker processes that claim partitions through the §III-E
work-stealing queue (:mod:`repro.parallel.backend`).

The driver reports wall-clock stage timings plus the merged hashing
telemetry, which the benchmark harness feeds to the performance model.
Simulated heterogeneous (CPU + GPU) execution lives in
:mod:`repro.hetsim` and reuses the same kernels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from ..dna.reads import ReadBatch
from ..graph.dbg import DeBruijnGraph
from ..graph.merge import merge_disjoint
from ..msp.partitioner import partition_reads, partition_to_files
from ..msp.records import SuperkmerBlock, join_blocks
from .config import ParaHashConfig
from .subgraph import HashStats, SubgraphResult, build_partition, build_subgraph


@dataclass
class WorkerRecord:
    """What one worker process did during a ``processes`` build."""

    name: str
    partitions: list[int] = field(default_factory=list)
    items_processed: int = 0


@dataclass
class StageTimings:
    """Wall-clock seconds per workflow stage.

    Partition reads happen inside Step 2 on every backend, so
    ``io_seconds`` reads 0; the field stays for callers that read it.
    """

    msp_seconds: float = 0.0
    hashing_seconds: float = 0.0
    io_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.msp_seconds + self.hashing_seconds + self.io_seconds


@dataclass
class ParaHashResult:
    """Everything a ParaHash run produced (graphs at any key width)."""

    graph: DeBruijnGraph
    subgraphs: list[DeBruijnGraph]
    hash_stats: HashStats
    timings: StageTimings
    n_superkmers: int
    n_kmers: int
    partition_bytes: int
    config: ParaHashConfig
    worker_records: dict[str, WorkerRecord] = field(default_factory=dict)

    def describe(self) -> dict:
        return {
            "n_vertices": self.graph.n_vertices,
            "n_duplicates": self.graph.n_duplicate_vertices(),
            "n_superkmers": self.n_superkmers,
            "n_kmers": self.n_kmers,
            "partition_bytes": self.partition_bytes,
            "msp_seconds": round(self.timings.msp_seconds, 4),
            "hashing_seconds": round(self.timings.hashing_seconds, 4),
            "lock_reduction": round(self.hash_stats.lock_reduction, 4),
        }


class ParaHash:
    """Facade over the two-step construction workflow."""

    def __init__(self, config: ParaHashConfig | None = None) -> None:
        self.config = config or ParaHashConfig()

    # -- Step 1 -----------------------------------------------------------------

    def partition(self, reads: ReadBatch) -> list[SuperkmerBlock]:
        """In-memory Step 1: superkmer blocks, one per partition.

        The input pieces are partitioned in input order and each
        partition's pieces are joined into one block.
        """
        cfg = self.config
        results = [
            partition_reads(piece, cfg.k, cfg.p, cfg.n_partitions)
            for piece in reads.split(cfg.step1_pieces())
        ]
        return [
            join_blocks(pieces, cfg.k)
            for pieces in zip(*(result.blocks for result in results))
        ]

    # -- Step 2 -----------------------------------------------------------------

    def construct_subgraphs(
        self, blocks: list[SuperkmerBlock]
    ) -> list[SubgraphResult]:
        """Build one subgraph per non-empty partition, in partition order.

        Each partition is built whole by its single owner
        (:func:`repro.core.subgraph.build_subgraph`).
        """
        return [build_subgraph(b) for b in blocks if b.n_superkmers]

    # -- end to end ---------------------------------------------------------------

    def build_graph(
        self,
        reads: ReadBatch,
        workdir: str | Path | None = None,
    ) -> ParaHashResult:
        """Run both steps and merge the subgraphs into the full graph.

        With ``workdir`` set, Step 1 streams encoded partition files to
        disk and Step 2 reads them back one partition at a time (the
        paper's measured configuration, including the write-out/read-in
        of superkmer partitions); otherwise everything stays in memory.

        ``config.backend`` selects the execution backend.  ``serial``
        runs everything in this thread; ``processes`` hands the run to
        the shared-memory process backend
        (:func:`repro.parallel.backend.build_graph_processes`).  Both
        produce the identical graph.
        """
        cfg = self.config
        if cfg.backend == "processes":
            from ..parallel.backend import build_graph_processes

            return build_graph_processes(reads, cfg, workdir=workdir)
        t0 = time.perf_counter()
        if workdir is None:
            blocks = self.partition(reads)
            n_superkmers = sum(b.n_superkmers for b in blocks)
            n_kmers = sum(b.total_kmers() for b in blocks)
            partition_bytes = sum(b.byte_size_encoded() for b in blocks)
            t1 = time.perf_counter()
            results = self.construct_subgraphs(blocks)
        else:
            report = partition_to_files(
                reads, cfg.k, cfg.p, cfg.n_partitions, workdir,
                n_input_pieces=cfg.step1_pieces(),
            )
            t1 = time.perf_counter()
            # One partition file in memory at a time.
            results = [build_partition([path], cfg.k)
                       for path in report.paths.values()]
            n_superkmers = report.n_superkmers
            n_kmers = report.n_kmers
            partition_bytes = report.bytes_written
        t2 = time.perf_counter()
        return finish_build(
            cfg, results,
            StageTimings(msp_seconds=t1 - t0, hashing_seconds=t2 - t1),
            n_superkmers=n_superkmers, n_kmers=n_kmers,
            partition_bytes=partition_bytes, worker_records={},
        )


def finish_build(
    cfg: ParaHashConfig,
    results: list[SubgraphResult],
    timings: StageTimings,
    *,
    n_superkmers: int,
    n_kmers: int,
    partition_bytes: int,
    worker_records: dict[str, WorkerRecord],
) -> ParaHashResult:
    """The Step-2 tail every driver shares.

    Merges the subgraphs into the full graph and totals their hashing
    telemetry.  ``results`` are in partition order.
    """
    subgraphs = [r.graph for r in results]
    stats = HashStats()
    for r in results:
        stats = stats.merged_with(r.stats)
    return ParaHashResult(
        graph=merge_disjoint(subgraphs, k=cfg.k),
        subgraphs=subgraphs,
        hash_stats=stats,
        timings=timings,
        n_superkmers=n_superkmers,
        n_kmers=n_kmers,
        partition_bytes=partition_bytes,
        config=cfg,
        worker_records=worker_records,
    )


def build_debruijn_graph(
    reads: ReadBatch,
    k: int = 27,
    p: int = 11,
    n_partitions: int = 32,
    workdir: str | Path | None = None,
) -> DeBruijnGraph:
    """One-call convenience API: reads in, De Bruijn graph out."""
    config = ParaHashConfig(k=k, p=p, n_partitions=n_partitions)
    return ParaHash(config).build_graph(reads, workdir=workdir).graph
