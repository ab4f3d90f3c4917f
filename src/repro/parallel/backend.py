"""The process-parallel execution backend (``backend="processes"``).

Runs both ParaHash steps across worker *processes* so the pipeline
scales with cores instead of being serialized by the GIL, in ONE worker
pool that stays warm across the Step-1 barrier:

* **Step 1** — the read matrix is copied once into shared memory and
  split into chunks; the parent publishes every chunk's bounds on a
  :class:`~repro.concurrentsub.workqueue.ProcessWorkQueue` and closes
  it before the pool starts, so workers claim chunks one at a time
  (the paper's ``cns`` work stealing) and spill them with
  :func:`repro.msp.partitioner.spill_reads` as writer ``w`` of
  :func:`repro.msp.partitioner.partition_path`, in the work directory
  when there is one.  Grouping the spill files by partition id — the
  minimizer-hash class — is the merge.  Each worker announces its
  :class:`~repro.msp.partitioner.MspRunReport` to the parent through
  the pool's event channel when its share is done, even when it
  claimed no chunk.
* **Step 2** — once every report has landed (a barrier: a partition's
  input is complete only when every chunk is spilled), the parent's
  merger publishes the partitions (heaviest first) on a second
  :class:`~repro.concurrentsub.workqueue.ProcessWorkQueue`, and the
  same workers claim them.  A worker claims a whole partition, builds
  its subgraph alone from its files
  (:func:`repro.core.subgraph.build_partition`) and ships it back
  through the event channel as soon as it is built.  No table and no
  shared segment is involved: a partition's owner is its only writer.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..concurrentsub.workqueue import ProcessWorkQueue
from ..core.subgraph import SubgraphResult, build_partition
from ..dna.reads import ReadBatch
from ..msp.partitioner import (
    MspRunReport,
    clear_partition_files,
    spill_groups,
    spill_reads,
)
from .pool import default_context, run_workers
from .shm import SegmentSpec, attach_read_batch, share_read_batch


@dataclass(frozen=True)
class _Step2Job:
    """One partition's work order: its id and spill files."""

    partition: int
    k: int
    group: tuple[str, ...]


# -- worker entry points (top-level: picklable under spawn) ----------------------


def _step1_worker(worker_id: int, batch_spec: SegmentSpec,
                  chunks: ProcessWorkQueue, k: int, p: int,
                  n_partitions: int, spill_dir: str) -> MspRunReport:
    """Claim read chunks and spill them as writer ``worker_id``."""

    def claimed(codes: np.ndarray):
        # Every view over the shared codes matrix lives in this
        # generator's frame, which ends with the last claim, so the
        # segment can close cleanly.
        while items := chunks.claim():
            for lo, hi in items:
                yield ReadBatch(codes=codes[lo:hi])

    batch, seg = attach_read_batch(batch_spec)
    try:
        return spill_reads(claimed(batch.codes), spill_dir, worker_id, k, p,
                           n_partitions)
    finally:
        del batch
        seg.close()


def _process_step2_job(job: _Step2Job) -> SubgraphResult:
    """Build one partition's subgraph from its files (either key width)."""
    return build_partition(job.group, job.k)


def _pipeline_worker(worker_id: int, batch_spec: SegmentSpec,
                     chunks: ProcessWorkQueue, ready: ProcessWorkQueue,
                     k: int, p: int, n_partitions: int, spill_dir: str,
                     *, emit) -> list[tuple[int, int]]:
    """Both steps in one process: partition, announce, then build.

    The worker drains Step-1 chunks with :func:`_step1_worker`, emits
    its report through the pool's event channel (the parent's merger
    is listening), and then claims ready partitions — which the merger
    publishes once *every* worker's report has landed, so this worker
    waits out its slower peers' Step 1 warm instead of exiting.  Each
    subgraph is emitted the moment it is built, so a worker never
    holds more than one.  Returns the ``(partition, n_kmers)`` of
    every partition it built.
    """
    report = _step1_worker(worker_id, batch_spec, chunks, k, p,
                           n_partitions, spill_dir)
    emit(("spills", report))
    built: list[tuple[int, int]] = []
    while True:
        jobs = ready.claim()
        if not jobs:
            break
        for job in jobs:
            result = _process_step2_job(job)
            emit(("subgraph", job.partition, result))
            built.append((job.partition, result.n_kmers))
    return built


# -- the driver ------------------------------------------------------------------


class _PipelineMerger:
    """Parent-side Step-1→Step-2 handoff and subgraph collection.

    Collects every worker's Step-1 report (delivered through the
    pool's event channel, so this runs inline with the parent's result
    poll — single-threaded, no locks needed despite feeding a
    cross-process queue).  Once the last report lands, each live
    partition's spill group is published as one work order, heaviest
    first.  The ready queue is closed after the last publication; a
    merger failure propagates out of ``run_workers`` and tears the pool
    down, so workers can never hang on an unclosed queue.  Built
    subgraphs arrive through the same channel and are kept by partition
    id.
    """

    def __init__(self, cfg, n_workers: int, ready: ProcessWorkQueue) -> None:
        self.cfg = cfg
        self.n_workers = n_workers
        self.ready = ready
        self.reports: dict[int, MspRunReport] = {}
        self.results: dict[int, SubgraphResult] = {}
        self.kmers_per_partition = np.zeros(cfg.n_partitions, dtype=np.int64)
        self.live: list[int] = []
        self.spills_done_at: float | None = None

    def on_event(self, worker_id: int, payload) -> None:
        kind = payload[0]
        if kind == "subgraph":
            _, partition, result = payload
            self.results[partition] = result
        elif kind == "spills":
            self.reports[worker_id] = payload[1]
            if len(self.reports) == self.n_workers:
                self._finalize_all()
        else:  # pragma: no cover - protocol guard
            raise RuntimeError(f"unexpected pipeline event {kind!r}")

    def _finalize_all(self) -> None:
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
        try:
            for part in order:
                self.ready.publish(_Step2Job(
                    partition=part, k=cfg.k,
                    group=tuple(str(p) for p in groups[part]),
                ))
        finally:
            self.ready.close()


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
    ctx = default_context()
    t0 = time.perf_counter()
    try:
        # Publishing starts the item queue's feeder thread before the
        # pool forks; a forked child only reads this queue, and
        # multiprocessing re-initialises the queue's thread-side lock
        # in the child.
        chunks = ProcessWorkQueue(len(chunk_bounds), ctx=ctx)
        for bounds in chunk_bounds:
            chunks.publish(bounds)
        chunks.close()
        ready = ProcessWorkQueue(cfg.n_partitions, ctx=ctx, claim_timeout=600.0)
        merger = _PipelineMerger(cfg, n_workers, ready)
        batch_seg = share_read_batch(reads)
        try:
            built = run_workers(
                _pipeline_worker, n_workers, ctx=ctx,
                args=(batch_seg.spec, chunks, ready, cfg.k, cfg.p,
                      cfg.n_partitions, str(workdir)),
                on_event=merger.on_event,
            )
        finally:
            batch_seg.unlink()
            # On an error path some workers may have been terminated
            # between a reservation and its item pickup; aborting makes
            # any racing claim return instead of wait out its timeout.
            ready.abort()
        missing = [p for p in merger.live if p not in merger.results]
        if missing:  # pragma: no cover - queue drain guarantees coverage
            raise RuntimeError(
                f"partitions {missing} were published but never built"
            )
        t2 = time.perf_counter()
    finally:
        if tmp is not None:
            tmp.cleanup()

    spills_done = merger.spills_done_at or t2
    reports = [merger.reports[w] for w in range(n_workers)]
    records: dict[str, WorkerRecord] = {}
    for w, report in enumerate(reports):
        record = WorkerRecord(name=f"proc{w}",
                              items_processed=report.n_reads)
        for partition, n_kmers in built[w]:
            record.partitions.append(partition)
            record.items_processed += n_kmers
        records[record.name] = record
    return finish_build(
        cfg, [merger.results[part] for part in merger.live],
        StageTimings(msp_seconds=spills_done - t0,
                     hashing_seconds=t2 - spills_done),
        n_superkmers=sum(r.n_superkmers for r in reports),
        n_kmers=int(merger.kmers_per_partition.sum()),
        partition_bytes=sum(r.bytes_written for r in reports),
        worker_records=records,
    )
