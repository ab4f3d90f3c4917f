"""Pipelined process-backend tests (Step-1→Step-2 streaming).

The contract: the streaming driver — one pool, spill manifests over the
event channel, ready-queue partition claims — must produce graphs and
on-disk artifacts byte-identical to both the barrier driver and the
serial backend, keep crash containment (a dying Step-2 worker surfaces
as :class:`WorkerCrashed`, never a ready-queue hang), and pre-aggregation
must leave ``HashStats.lock_reduction`` untouched.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from repro.core.config import ParaHashConfig
from repro.core.parahash import ParaHash
from repro.core.subgraph import (
    block_observations,
    build_subgraph,
    preaggregate_observations,
)
from repro.core.hashtable import ConcurrentHashTable
from repro.msp.partitioner import partition_reads
from repro.parallel import WorkerCrashed, WorkerFailed, build_graph_processes
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


# -- equivalence ------------------------------------------------------------------


def test_pipelined_matches_serial_and_barrier(genomic_batch):
    serial = ParaHash(CFG.with_(pipeline=False)).build_graph(genomic_batch)
    barrier = ParaHash(
        CFG.with_(backend="processes", n_workers=2, pipeline=False)
    ).build_graph(genomic_batch)
    pipelined = ParaHash(
        CFG.with_(backend="processes", n_workers=2, pipeline=True)
    ).build_graph(genomic_batch)
    assert serial.graph.n_vertices > 0
    assert_graphs_identical(serial.graph, barrier.graph)
    assert_graphs_identical(serial.graph, pipelined.graph)
    assert pipelined.n_kmers == serial.n_kmers
    assert pipelined.n_superkmers == serial.n_superkmers


def test_pipelined_matches_across_worker_counts(clean_batch):
    serial = ParaHash(CFG).build_graph(clean_batch)
    for w in (1, 3):
        result = ParaHash(
            CFG.with_(backend="processes", n_workers=w, pipeline=True)
        ).build_graph(clean_batch)
        assert_graphs_identical(serial.graph, result.graph)


def test_pipelined_without_preaggregation_matches(clean_batch):
    serial = ParaHash(CFG).build_graph(clean_batch)
    result = ParaHash(
        CFG.with_(backend="processes", n_workers=2, pipeline=True,
                  preaggregate=False)
    ).build_graph(clean_batch)
    assert_graphs_identical(serial.graph, result.graph)


def test_pipelined_disk_artifacts_match_serial(clean_batch, tmp_path):
    """workdir partition files + output_dir subgraphs are byte-identical."""
    outs = {}
    for label, cfg in (
        ("serial", CFG),
        ("pipelined", CFG.with_(backend="processes", n_workers=2,
                                pipeline=True)),
    ):
        work = tmp_path / label / "work"
        out = tmp_path / label / "out"
        result = ParaHash(cfg).build_graph(
            clean_batch, workdir=work, output_dir=out
        )
        outs[label] = (result, work, out)
    serial_result, serial_work, serial_out = outs["serial"]
    pipe_result, pipe_work, pipe_out = outs["pipelined"]
    assert_graphs_identical(serial_result.graph, pipe_result.graph)
    out_files = sorted(p.name for p in serial_out.iterdir())
    assert out_files == sorted(p.name for p in pipe_out.iterdir())
    assert out_files
    for name in out_files:
        assert (serial_out / name).read_bytes() == (
            pipe_out / name
        ).read_bytes()
    # One canonical partition file per partition, empty ones included —
    # the disk-backed layouts must agree file-for-file.
    serial_parts = sorted(p.name for p in serial_work.glob("partition_*.phsk"))
    pipe_parts = sorted(p.name for p in pipe_work.glob("partition_*.phsk"))
    assert serial_parts == pipe_parts
    assert len(serial_parts) == CFG.n_partitions


def test_pipelined_worker_records_cover_both_steps(genomic_batch):
    result = ParaHash(
        CFG.with_(backend="processes", n_workers=2, pipeline=True)
    ).build_graph(genomic_batch)
    records = result.worker_records
    assert set(records) == {"proc0", "proc1"}
    assert sum(len(r.partitions) for r in records.values()) > 0
    assert all(r.items_processed > 0 for r in records.values())


def test_pipelined_empty_input(tmp_path):
    empty = __import__("repro.dna.reads", fromlist=["ReadBatch"]).ReadBatch(
        codes=np.zeros((0, 50), dtype=np.uint8)
    )
    result = ParaHash(
        CFG.with_(backend="processes", n_workers=2, pipeline=True)
    ).build_graph(empty)
    assert result.graph.n_vertices == 0


def test_calibrated_dispatch_matches_serial(clean_batch):
    serial = ParaHash(CFG).build_graph(clean_batch)
    result = ParaHash(
        CFG.with_(backend="processes", n_workers=2, pipeline=True,
                  calibrate=True)
    ).build_graph(clean_batch)
    assert_graphs_identical(serial.graph, result.graph)


def test_explicit_step2_weights(clean_batch):
    serial = ParaHash(CFG).build_graph(clean_batch)
    result = build_graph_processes(
        clean_batch, CFG.with_(backend="processes", n_workers=2),
        weights=[2, 1], step2_weights=[1, 3],
    )
    assert_graphs_identical(serial.graph, result.graph)
    with pytest.raises(ValueError):
        build_graph_processes(
            clean_batch, CFG.with_(backend="processes", n_workers=2),
            step2_weights=[1],
        )
    with pytest.raises(ValueError):
        build_graph_processes(
            clean_batch, CFG.with_(backend="processes", n_workers=2),
            step2_weights=[1, 0],
        )


# -- pre-aggregation --------------------------------------------------------------


def test_preaggregate_observations_counts(rng):
    # Three instances of vertex 7 and one of 3: each contributes its
    # multiplicity slot (8) and whichever edge slots are not -1.
    v = np.array([7, 3, 7, 7], dtype=np.uint64)
    s = np.array([[8, 8, 8, 8],
                  [0, -1, 0, 5],
                  [-1, 4, 2, -1]], dtype=np.int8)
    keys, rows = preaggregate_observations(v, s)
    assert keys.tolist() == [3, 7]
    assert rows.shape == (2, 9)
    assert rows[0].tolist() == [0, 0, 0, 0, 1, 0, 0, 0, 1]
    assert rows[1].tolist() == [2, 0, 1, 0, 0, 1, 0, 0, 3]
    assert int(rows.sum()) == int((s >= 0).sum())


def test_preaggregate_observations_empty():
    empty_v = np.zeros(0, dtype=np.uint64)
    empty_s = np.zeros((3, 0), dtype=np.int8)
    keys, rows = preaggregate_observations(empty_v, empty_s)
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
    be identical whether observations hit the table one by one or
    pre-aggregated with counts.
    """
    parts = partition_reads(genomic_batch, CFG.k, CFG.p, CFG.n_partitions)
    checked = 0
    for block in parts.blocks:
        if not block.n_superkmers:
            continue
        plain = build_subgraph(block, preaggregate=False)
        agg = build_subgraph(block, preaggregate=True)
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
    v, s = block_observations(block)
    keys, rows = preaggregate_observations(v, s)
    assert keys.size < v.size  # genomic coverage implies duplicates
    assert int(rows.sum()) == int((s >= 0).sum())


# -- crash containment ------------------------------------------------------------


def _exploding_step2(job, sizing, preaggregate):
    raise RuntimeError(f"step2 exploded on partition {job.partition}")


def _vanishing_step2(job, sizing, preaggregate):
    os._exit(23)  # simulate a segfault: no traceback, no result


@needs_fork
def test_dying_step2_worker_surfaces_workercrashed(genomic_batch, monkeypatch):
    """A vanished Step-2 worker must become WorkerCrashed, not a hang."""
    monkeypatch.setattr(backend_mod, "_process_step2_job", _vanishing_step2)
    t0 = time.perf_counter()
    with pytest.raises(WorkerCrashed):
        ParaHash(
            CFG.with_(backend="processes", n_workers=2, pipeline=True)
        ).build_graph(genomic_batch)
    assert time.perf_counter() - t0 < 60.0


@needs_fork
def test_raising_step2_worker_surfaces_workerfailed(genomic_batch, monkeypatch):
    monkeypatch.setattr(backend_mod, "_process_step2_job", _exploding_step2)
    with pytest.raises(WorkerFailed) as excinfo:
        ParaHash(
            CFG.with_(backend="processes", n_workers=2, pipeline=True)
        ).build_graph(genomic_batch)
    assert "step2 exploded" in str(excinfo.value)


def test_failing_merger_tears_down_pool(genomic_batch, monkeypatch):
    """An exception in the parent's merger must not strand workers."""

    def broken_finalize(self):
        raise RuntimeError("merger failed before publishing")

    monkeypatch.setattr(backend_mod._PipelineMerger, "_finalize_all",
                        broken_finalize)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="merger failed"):
        ParaHash(
            CFG.with_(backend="processes", n_workers=2, pipeline=True)
        ).build_graph(genomic_batch)
    assert time.perf_counter() - t0 < 60.0


# -- calibration model ------------------------------------------------------------


def test_measure_host_rates_times_the_row_kernel(genomic_batch, monkeypatch):
    """Calibration runs what Step-2 workers run: vertex-row inserts."""
    import repro.core.subgraph as subgraph_mod
    from repro.hetsim.device import measure_host_rates

    seen = {"rows": 0}
    real = subgraph_mod.preaggregate_observations

    def counting(*args):
        keys, rows = real(*args)
        seen["rows"] += keys.size
        return keys, rows

    monkeypatch.setattr(subgraph_mod, "preaggregate_observations", counting)
    cal = measure_host_rates(genomic_batch, CFG.k, CFG.p, CFG.n_partitions)
    assert seen["rows"] > 0
    assert cal.sample_ops > seen["rows"]  # ops stay metered per observation


def test_measure_host_rates_and_fit(genomic_batch):
    from repro.hetsim.device import (
        HashWork,
        MspWork,
        claim_weight,
        fitted_cpu,
        measure_host_rates,
        scaled_gpu,
    )

    cal = measure_host_rates(genomic_batch, CFG.k, CFG.p, CFG.n_partitions)
    assert cal.msp_bases_per_sec > 0
    assert cal.hash_ops_per_sec > 0
    assert cal.sample_bases > 0
    assert cal.sample_ops > 0

    cpu = fitted_cpu(cal, n_threads=1)
    assert cpu.hash_ops_per_sec == cal.hash_ops_per_sec
    gpu = scaled_gpu(cal)
    # The paper's GPU:CPU-thread ratios survive re-anchoring.
    assert gpu.hash_ops_per_sec / cpu.hash_ops_per_sec == pytest.approx(
        1.9e8 / 6.0e6
    )

    msp = MspWork(n_reads=100, n_bases=8000, n_superkmers=0,
                  in_bytes=8000, out_bytes=8000)
    hashw = HashWork(n_kmers=1000, ops=3000, probes=700, inserts=250,
                     table_bytes=1 << 16, in_bytes=1000, out_bytes=0)
    for device in (cpu, gpu):
        w = claim_weight(device, msp)
        assert 1 <= w <= 8
        w = claim_weight(device, hashw, target_seconds=0.1, max_weight=4)
        assert 1 <= w <= 4
