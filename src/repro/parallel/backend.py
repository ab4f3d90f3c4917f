"""The process-parallel execution backend (``backend="processes"``).

Runs both ParaHash steps across worker *processes* so the pipeline
scales with cores instead of being serialized by the GIL, in ONE worker
pool that stays warm across the Step-1 barrier.  The parent hands out
all the work (§III-E's queue): each worker asks for its next item over
its pipe (:func:`repro.parallel.pool.run_workers`' ``request``) and the
parent's :class:`_Dispatcher` answers from two cursors held as plain
ints in one thread — §III-E's ``srv``/``cns`` with nothing shared.

* **Step 1** — the read matrix is split into chunks.  A worker
  requests chunks one at a time, each reply carrying the chunk's rows
  (§IV's ``T_in``), until it gets ``None``, and spills each chunk with
  :func:`repro.msp.partitioner.spill_reads` as writer ``w`` of
  :func:`repro.msp.partitioner.partition_path`, in the work directory
  when there is one.  Grouping the spill files by partition id — the
  minimizer-hash class — is the merge.  The worker's next request
  carries its :class:`~repro.msp.partitioner.MspRunReport`, even when
  it was given no chunk.
* **Step 2** — the parent holds those requests until every report has
  landed (a barrier: a partition's input is complete only when every
  chunk is spilled), then answers each with a live partition's spill
  group, heaviest first.  A worker builds the partition's subgraph
  alone from its files (:func:`repro.core.subgraph.build_partition`),
  and its next request carries the subgraph back.  No table and no
  shared-memory segment is involved: every byte travels over the pipes,
  and a partition's owner is its only writer.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.subgraph import SubgraphResult, build_partition
from ..dna.reads import ReadBatch
from ..msp.partitioner import (
    MspRunReport,
    clear_partition_files,
    spill_groups,
    spill_reads,
)
from .pool import run_workers


@dataclass(frozen=True)
class _Step2Job:
    """One partition's work order: its id and spill files."""

    partition: int
    k: int
    group: tuple[str, ...]


# -- worker entry points (top-level: picklable under spawn) ----------------------


def _step1_worker(worker_id: int, request, k: int, p: int,
                  n_partitions: int, spill_dir: str) -> MspRunReport:
    """Request read chunks and spill them as writer ``worker_id``."""

    def claimed():
        while (codes := request(("chunk",))) is not None:
            yield ReadBatch(codes=codes)

    return spill_reads(claimed(), spill_dir, worker_id, k, p, n_partitions)


def _process_step2_job(job: _Step2Job) -> SubgraphResult:
    """Build one partition's subgraph from its files (either key width)."""
    return build_partition(job.group, job.k)


def _pipeline_worker(worker_id: int, k: int, p: int, n_partitions: int,
                     spill_dir: str, *, request) -> None:
    """Both steps in one process: partition, report, then build.

    The request carrying the Step-1 report is answered once *every*
    worker's report has landed, so this worker waits out its slower
    peers' Step 1 warm instead of exiting.  Each subgraph travels with
    the request for the next partition, so a worker never holds more
    than one.
    """
    report = _step1_worker(worker_id, request, k, p, n_partitions,
                           spill_dir)
    job = request(("spills", report))
    while job is not None:
        result = _process_step2_job(job)
        job = request(("subgraph", job.partition, result))


# -- the driver ------------------------------------------------------------------


class _Dispatcher:
    """The parent's side of §III-E: hands out chunks, then partitions.

    Runs inline with :func:`run_workers`' wait loop, so it is
    single-threaded and needs no lock: its two cursors are plain
    iterators, one over the Step-1 chunks (each handed out as its rows,
    ``reads.codes[lo:hi]``) and, once the barrier has passed, one over
    the Step-2 work orders.  A Step-1 report's request
    is held until the last report lands; then each live partition's
    spill group becomes one work order, heaviest first, and every held
    request is answered at once.  Built subgraphs arrive with the next
    request and are kept by partition id.
    """

    def __init__(self, cfg, n_workers: int, reads: ReadBatch,
                 chunk_bounds: list[tuple[int, int]]) -> None:
        self.cfg = cfg
        self.n_workers = n_workers
        self.chunks = (reads.codes[lo:hi] for lo, hi in chunk_bounds)
        self.jobs = iter(())
        self.reports: dict[int, MspRunReport] = {}
        self.results: dict[int, SubgraphResult] = {}
        self.built: list[list[int]] = [[] for _ in range(n_workers)]
        self.kmers_per_partition = np.zeros(cfg.n_partitions, dtype=np.int64)
        self.live: list[int] = []
        self.spills_done_at: float | None = None

    def on_request(self, worker_id: int, payload) -> dict:
        kind = payload[0]
        if kind == "chunk":
            return {worker_id: next(self.chunks, None)}
        if kind == "subgraph":
            _, partition, result = payload
            self.results[partition] = result
            self.built[worker_id].append(partition)
            return {worker_id: next(self.jobs, None)}
        if kind == "spills":
            self.reports[worker_id] = payload[1]
            if len(self.reports) < self.n_workers:
                return {}  # held until the barrier passes
            self._pass_barrier()
            return {w: next(self.jobs, None) for w in range(self.n_workers)}
        raise RuntimeError(f"unexpected pipeline request {kind!r}")

    def _pass_barrier(self) -> None:
        cfg = self.cfg
        self.spills_done_at = time.perf_counter()
        reports = [self.reports[w] for w in range(self.n_workers)]
        self.kmers_per_partition = sum(r.kmers_per_partition for r in reports)
        groups = spill_groups([r.paths for r in reports], cfg.n_partitions)
        self.live = [
            part for part in range(cfg.n_partitions)
            if self.kmers_per_partition[part] > 0
        ]
        # Heaviest partitions first (LPT-style): the long jobs start
        # first and the light tail fills the gaps.  Result
        # assembly re-orders by partition id, so the graph is unchanged.
        order = sorted(
            self.live, key=lambda part: -int(self.kmers_per_partition[part])
        )
        self.jobs = iter([
            _Step2Job(partition=part, k=cfg.k,
                      group=tuple(str(p) for p in groups[part]))
            for part in order
        ])


def build_graph_processes(
    reads: ReadBatch,
    config,
    workdir: str | Path | None = None,
):
    """Run the two-step workflow across worker processes.

    Mirrors :meth:`repro.core.parahash.ParaHash.build_graph` (same
    result type, graph bit-for-bit identical to the serial backend) but
    executes Step 1 and Step 2 on ``config.workers()`` processes in one
    streaming pool.  With ``workdir`` set, the workers' spill files are
    the run's partition files and stay there; a partition a worker
    never touched has no file from it.
    """
    from ..core.parahash import StageTimings, WorkerRecord, finish_build

    cfg = config
    n_workers = cfg.workers()
    chunk_bounds = reads.split_bounds(cfg.step1_pieces())
    if workdir is not None:
        clear_partition_files(workdir)
    if not chunk_bounds:
        # No reads: nothing to start workers for.
        return finish_build(cfg, [], StageTimings(),
                            n_superkmers=0, n_kmers=0, partition_bytes=0,
                            worker_records={})

    tmp: tempfile.TemporaryDirectory | None = None
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-parallel-")
        workdir = tmp.name
    t0 = time.perf_counter()
    try:
        dispatcher = _Dispatcher(cfg, n_workers, reads, chunk_bounds)
        run_workers(
            _pipeline_worker, n_workers,
            args=(cfg.k, cfg.p, cfg.n_partitions, str(workdir)),
            on_request=dispatcher.on_request,
        )
        t2 = time.perf_counter()
    finally:
        if tmp is not None:
            tmp.cleanup()

    spills_done = dispatcher.spills_done_at or t2
    reports = [dispatcher.reports[w] for w in range(n_workers)]
    records: dict[str, WorkerRecord] = {}
    for w, report in enumerate(reports):
        record = WorkerRecord(name=f"proc{w}",
                              items_processed=report.n_reads)
        for partition in dispatcher.built[w]:
            record.partitions.append(partition)
            record.items_processed += dispatcher.results[partition].n_kmers
        records[record.name] = record
    return finish_build(
        cfg, [dispatcher.results[part] for part in dispatcher.live],
        StageTimings(msp_seconds=spills_done - t0,
                     hashing_seconds=t2 - spills_done),
        n_superkmers=sum(r.n_superkmers for r in reports),
        n_kmers=int(dispatcher.kmers_per_partition.sum()),
        partition_bytes=sum(r.bytes_written for r in reports),
        worker_records=records,
    )
