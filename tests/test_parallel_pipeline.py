"""Pipelined process-backend tests (Step-1→Step-2 streaming).

The contract: the streaming driver — one pool whose parent hands out
Step-1 chunks and Step-2 partitions over each worker's pipe, with
spill reports and built subgraphs riding on the workers' requests —
must produce graphs byte-identical to the serial backend and the same
partitions on disk, give every partition to exactly one worker, keep
crash containment (a dying worker surfaces as :class:`WorkerCrashed`,
never a hang), and building from vertex rows must leave
``HashStats.lock_reduction`` untouched.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time

import numpy as np
import pytest

from repro.core.config import ParaHashConfig
from repro.core.hashtable import ConcurrentHashTable, build_subgraph_table
from repro.core.parahash import ParaHash
from repro.core.subgraph import (
    build_subgraph,
    instance_observations,
    preaggregate_observations,
)
from repro.dna.reads import ReadBatch
from repro.msp.partitioner import partition_reads
from repro.parallel.pool import WorkerCrashed, WorkerFailed
from repro.parallel import backend as backend_mod

CFG = ParaHashConfig(k=21, p=9, n_partitions=16, n_input_pieces=4)

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="crash injection monkeypatches the worker module, needs fork",
)


def assert_graphs_identical(a, b):
    assert a.k == b.k
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.counts, b.counts)


def spy_step1_reports(monkeypatch) -> dict:
    """Record every worker's Step-1 report as the dispatcher gets it."""
    reports = {}
    real_on_request = backend_mod._Dispatcher.on_request

    def spying_on_request(self, worker_id, payload):
        if payload[0] == "spills":
            reports[worker_id] = payload[1]
        return real_on_request(self, worker_id, payload)

    monkeypatch.setattr(backend_mod._Dispatcher, "on_request",
                        spying_on_request)
    return reports


# -- equivalence ------------------------------------------------------------------


def test_pipelined_matches_serial(genomic_batch):
    serial = ParaHash(CFG).build_graph(genomic_batch)
    pipelined = ParaHash(
        CFG.with_(backend="processes", n_workers=2)
    ).build_graph(genomic_batch)
    assert serial.graph.n_vertices > 0
    assert_graphs_identical(serial.graph, pipelined.graph)
    assert pipelined.n_kmers == serial.n_kmers
    assert pipelined.n_superkmers == serial.n_superkmers
    assert pipelined.hash_stats == serial.hash_stats


def test_pipelined_matches_across_worker_counts(clean_batch):
    serial = ParaHash(CFG).build_graph(clean_batch)
    for w in (1, 3):
        result = ParaHash(
            CFG.with_(backend="processes", n_workers=w)
        ).build_graph(clean_batch)
        assert_graphs_identical(serial.graph, result.graph)


def test_pipelined_disk_artifacts_match_serial(clean_batch, tmp_path):
    """Every engine's Step 1 is ``spill_reads``: the same graph, and its
    work or spill directory holds the same partitions with the same
    superkmers.  A serial run writes one file per partition (writer 0);
    the processes backend one per worker that touched it; a service job
    one per Step-1 task that touched it."""
    from repro.dna.io import save_read_batch
    from repro.graph.serialize import load_graph
    from repro.msp.inspect import inspect_partition_dir
    from repro.msp.partitioner import load_partition_group
    from repro.service.jobstore import JobSpec, JobStore
    from repro.service.runner import run_job

    graphs, dirs = {}, {}
    for label, cfg in (
        ("serial", CFG),
        ("pipelined", CFG.with_(backend="processes", n_workers=2)),
    ):
        dirs[label] = tmp_path / label / "work"
        graphs[label] = ParaHash(cfg).build_graph(
            clean_batch, workdir=dirs[label]).graph
    reads = tmp_path / "reads.fastq"
    save_read_batch(reads, clean_batch)
    record = JobStore(tmp_path / "jobs").create(JobSpec(
        input=str(reads), k=CFG.k, p=CFG.p, n_partitions=CFG.n_partitions,
        n_step1_tasks=3))
    graphs["service"] = load_graph(run_job(record))
    dirs["service"] = record.spill_dir

    def records(part):
        return sorted(
            (r.to_str(), r.left_ext, r.right_ext)
            for r in load_partition_group(part.paths, CFG.k).iter_records())

    expected = inspect_partition_dir(dirs["serial"]).partitions
    assert expected
    assert all(len(part.paths) == 1 for part in expected)
    for label, directory in dirs.items():
        assert_graphs_identical(graphs["serial"], graphs[label])
        parts = inspect_partition_dir(directory).partitions
        assert [p.partition for p in parts] == [p.partition for p in expected]
        for part, serial_part in zip(parts, expected):
            assert records(part) == records(serial_part), (label, part)


def test_pipelined_worker_records_cover_both_steps(genomic_batch):
    result = ParaHash(
        CFG.with_(backend="processes", n_workers=2)
    ).build_graph(genomic_batch)
    records = result.worker_records
    assert set(records) == {"proc0", "proc1"}
    assert sum(len(r.partitions) for r in records.values()) > 0
    assert all(r.items_processed > 0 for r in records.values())


def test_pipelined_empty_input(tmp_path):
    empty = ReadBatch(codes=np.zeros((0, 50), dtype=np.uint8))
    result = ParaHash(
        CFG.with_(backend="processes", n_workers=2)
    ).build_graph(empty)
    assert result.graph.n_vertices == 0


@pytest.mark.parametrize("backend", ["processes"])
def test_fewer_reads_than_workers(clean_batch, backend):
    one_read = ReadBatch(codes=clean_batch.codes[:1])
    serial = ParaHash(CFG).build_graph(one_read)
    result = ParaHash(
        CFG.with_(backend=backend, n_workers=3)
    ).build_graph(one_read)
    assert serial.graph.n_vertices > 0
    assert_graphs_identical(serial.graph, result.graph)


def test_worker_without_step1_chunk_announces_empty_manifest(
        clean_batch, monkeypatch):
    """One chunk and three workers: the two that get no chunk still
    report an empty spill manifest, or the dispatcher would never hand
    out Step 2's partitions."""
    manifests = spy_step1_reports(monkeypatch)
    one_read = ReadBatch(codes=clean_batch.codes[:1])
    result = ParaHash(
        CFG.with_(backend="processes", n_workers=3)
    ).build_graph(one_read)
    assert sorted(manifests) == [0, 1, 2]
    assert sorted(m.n_reads for m in manifests.values()) == [0, 0, 1]
    idle = [m for m in manifests.values() if m.n_reads == 0]
    assert all(m.paths == {} for m in idle)
    assert set(result.worker_records) == {"proc0", "proc1", "proc2"}
    assert result.n_kmers == one_read.n_kmers(CFG.k)


def test_every_partition_is_built_by_exactly_one_worker(genomic_batch,
                                                        monkeypatch):
    """The parent's cursors hand out each chunk and each partition once:
    nothing is built twice and nothing is lost."""
    serial_cfg = CFG.with_(n_partitions=64, n_input_pieces=12)
    reports = spy_step1_reports(monkeypatch)
    result = ParaHash(
        serial_cfg.with_(backend="processes", n_workers=3)
    ).build_graph(genomic_batch)
    live = [part for part, block in
            enumerate(ParaHash(serial_cfg).partition(genomic_batch))
            if block.n_superkmers]
    built = [part for record in result.worker_records.values()
             for part in record.partitions]
    assert len(live) > 3
    assert sorted(built) == live
    assert sorted(reports) == [0, 1, 2]
    assert sum(r.n_reads for r in reports.values()) == genomic_batch.n_reads
    assert_graphs_identical(
        ParaHash(serial_cfg).build_graph(genomic_batch).graph, result.graph)


# -- pre-aggregation --------------------------------------------------------------


def test_preaggregate_observations_counts(rng):
    # Three instances of vertex 7 and one of 3: each contributes its
    # multiplicity slot (8) and whichever edge slots are not -1.
    v = np.array([7, 3, 7, 7], dtype=np.uint64)
    s = np.array([[8, 8, 8, 8],
                  [0, -1, 0, 5],
                  [-1, 4, 2, -1]], dtype=np.int8)
    keys, rows = preaggregate_observations(v, s, 21)
    assert keys.tolist() == [3, 7]
    assert rows.shape == (2, 9)
    assert rows[0].tolist() == [0, 0, 0, 0, 1, 0, 0, 0, 1]
    assert rows[1].tolist() == [2, 0, 1, 0, 0, 1, 0, 0, 3]
    assert int(rows.sum()) == int((s >= 0).sum())


def test_preaggregate_observations_empty():
    empty_v = np.zeros(0, dtype=np.uint64)
    empty_s = np.zeros((3, 0), dtype=np.int8)
    keys, rows = preaggregate_observations(empty_v, empty_s, 21)
    assert keys.size == 0 and rows.shape == (0, 9)


def test_counted_insert_batch_validation():
    table = ConcurrentHashTable(capacity=16, k=21)
    kmers = np.array([1, 2], dtype=np.uint64)
    with pytest.raises(ValueError):  # one row for two keys
        table.insert_batch(kmers, np.ones((1, 9), dtype=np.uint64))
    with pytest.raises(ValueError):  # rows must have 9 counters
        table.insert_batch(kmers, np.ones((2, 8), dtype=np.uint64))
    assert table.stats.ops == 0 and table.n_occupied == 0


def test_lock_reduction_unchanged_by_preaggregation(genomic_batch):
    """Acceptance criterion: Fig 10-style numbers stay honest.

    The metered protocol stats — ops, inserts, key locks, updates,
    count increments, and therefore ``lock_reduction`` exactly — must
    be identical whether observations hit the paper's table one by one
    or the partition's rows become its subgraph directly.
    """
    parts = partition_reads(genomic_batch, CFG.k, CFG.p, CFG.n_partitions)
    checked = 0
    for block in parts.blocks:
        if not block.n_superkmers:
            continue
        plain = build_subgraph_table(block)
        agg = build_subgraph(block)
        assert_graphs_identical(plain.graph, agg.graph)
        assert agg.stats.ops == plain.stats.ops
        assert agg.stats.inserts == plain.stats.inserts
        assert agg.stats.key_locks == plain.stats.key_locks
        assert agg.stats.updates == plain.stats.updates
        assert agg.stats.count_increments == plain.stats.count_increments
        assert agg.stats.lock_reduction == plain.stats.lock_reduction
        checked += 1
    assert checked > 0


def test_preaggregation_shrinks_table_touches(genomic_batch):
    """The point of the kernel: duplicated inputs touch the table less."""
    parts = partition_reads(genomic_batch, CFG.k, CFG.p, CFG.n_partitions)
    block = max(parts.blocks, key=lambda b: b.total_kmers())
    v, s = instance_observations(block)
    keys, rows = preaggregate_observations(v, s, block.k)
    assert keys.size < v.size  # genomic coverage implies duplicates
    assert int(rows.sum()) == int((s >= 0).sum())


# -- crash containment ------------------------------------------------------------


def _exploding_step2(job):
    raise RuntimeError(f"step2 exploded on partition {job.partition}")


def _vanishing_step2(job):
    os._exit(23)  # simulate a segfault: no traceback, no result


@needs_fork
def test_dying_step2_worker_surfaces_workercrashed(genomic_batch, monkeypatch):
    """A vanished Step-2 worker must become WorkerCrashed, not a hang."""
    monkeypatch.setattr(backend_mod, "_process_step2_job", _vanishing_step2)
    t0 = time.perf_counter()
    with pytest.raises(WorkerCrashed):
        ParaHash(
            CFG.with_(backend="processes", n_workers=2)
        ).build_graph(genomic_batch)
    assert time.perf_counter() - t0 < 60.0


@needs_fork
def test_raising_step2_worker_surfaces_workerfailed(genomic_batch, monkeypatch):
    monkeypatch.setattr(backend_mod, "_process_step2_job", _exploding_step2)
    with pytest.raises(WorkerFailed) as excinfo:
        ParaHash(
            CFG.with_(backend="processes", n_workers=2)
        ).build_graph(genomic_batch)
    assert "step2 exploded" in str(excinfo.value)


def _shm_segments() -> set[str]:
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
def test_worker_dying_while_held_surfaces_workercrashed(genomic_batch,
                                                        monkeypatch):
    """Worker 0 dies while the parent holds its Step-2 request (worker 1
    is still in Step 1): the pipe's end-of-file is the crash, the
    build does not wait for the barrier, and no segment is left."""
    real_worker = backend_mod._pipeline_worker
    real_spill = backend_mod.spill_reads
    barrier = []

    def slow_spill(pieces, spill_dir, writer, *args):
        if writer == 1:
            time.sleep(10.0)  # still in Step 1 when worker 0 dies
        return real_spill(pieces, spill_dir, writer, *args)

    def dying_worker(worker_id, *args, request):
        def dying_request(payload):
            if worker_id == 0 and payload[0] == "spills":
                threading.Timer(0.3, os._exit, args=(23,)).start()
            return request(payload)

        return real_worker(worker_id, *args, request=dying_request)

    real_pass = backend_mod._Dispatcher._pass_barrier

    def watched_pass(self):
        barrier.append(True)
        real_pass(self)

    monkeypatch.setattr(backend_mod, "spill_reads", slow_spill)
    monkeypatch.setattr(backend_mod, "_pipeline_worker", dying_worker)
    monkeypatch.setattr(backend_mod._Dispatcher, "_pass_barrier",
                        watched_pass)
    before = _shm_segments()
    t0 = time.perf_counter()
    with pytest.raises(WorkerCrashed):
        ParaHash(
            CFG.with_(backend="processes", n_workers=2)
        ).build_graph(genomic_batch)
    assert time.perf_counter() - t0 < 20.0
    assert barrier == []
    assert _shm_segments() - before == set()


def test_failing_merger_tears_down_pool(genomic_batch, monkeypatch):
    """An exception in the parent's merger must not strand workers."""

    def broken_finalize(self):
        raise RuntimeError("merger failed before publishing")

    monkeypatch.setattr(backend_mod._Dispatcher, "_pass_barrier",
                        broken_finalize)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="merger failed"):
        ParaHash(
            CFG.with_(backend="processes", n_workers=2)
        ).build_graph(genomic_batch)
    assert time.perf_counter() - t0 < 60.0
