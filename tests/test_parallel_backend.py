"""Process-backend tests: backend equivalence and crash safety.

The contract under test is the PR's acceptance criterion: the
``processes`` backend must produce graphs bit-identical to the
``serial`` backend, and a worker that dies mid-build must surface as a
clean error instead of hanging the parent.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.config import BACKENDS, ParaHashConfig
from repro.core.parahash import ParaHash
from repro.parallel.pool import WorkerCrashed, WorkerFailed, run_workers

from .test_service_pool import _SRC, _has_exited

CFG = ParaHashConfig(k=21, p=9, n_partitions=16, n_input_pieces=4)


def assert_graphs_identical(a, b):
    assert a.k == b.k
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.counts, b.counts)


# -- backend equivalence ----------------------------------------------------------


def test_all_backends_build_identical_graphs(genomic_batch):
    serial = ParaHash(CFG).build_graph(genomic_batch)
    procs = ParaHash(
        CFG.with_(backend="processes", n_workers=2)
    ).build_graph(genomic_batch)
    assert serial.graph.n_vertices > 0
    assert_graphs_identical(serial.graph, procs.graph)


def test_process_backend_worker_counts_agree(clean_batch):
    serial = ParaHash(CFG).build_graph(clean_batch)
    for w in (1, 3):
        result = ParaHash(
            CFG.with_(backend="processes", n_workers=w)
        ).build_graph(clean_batch)
        assert_graphs_identical(serial.graph, result.graph)


def partition_contents(workdir):
    """``(partition, superkmers)`` of every non-empty partition on disk."""
    from repro.msp.inspect import inspect_partition_dir

    return [(p.partition, p.n_superkmers)
            for p in inspect_partition_dir(workdir).partitions]


def test_process_backend_disk_artifacts_match_serial(clean_batch, tmp_path):
    """Same graph, and the workdirs hold the same partitions."""
    outs = {}
    for backend in ("serial", "processes"):
        work = tmp_path / backend / "work"
        cfg = CFG if backend == "serial" else CFG.with_(
            backend="processes", n_workers=2
        )
        outs[backend] = (ParaHash(cfg).build_graph(clean_batch, workdir=work),
                         work)
    serial_result, serial_work = outs["serial"]
    procs_result, procs_work = outs["processes"]
    assert_graphs_identical(serial_result.graph, procs_result.graph)
    assert partition_contents(serial_work) == partition_contents(procs_work)
    assert partition_contents(serial_work)


def test_process_backend_reports_per_worker_records(genomic_batch):
    result = ParaHash(
        CFG.with_(backend="processes", n_workers=2)
    ).build_graph(genomic_batch)
    records = result.worker_records
    assert set(records) == {"proc0", "proc1"}
    assert sum(len(r.partitions) for r in records.values()) > 0
    assert all(r.items_processed > 0 for r in records.values())


# -- crash containment ------------------------------------------------------------


def _vanishing_worker(worker_id: int, victim: int):
    if worker_id == victim:
        os._exit(17)  # simulate a segfault / OOM kill: no result, no traceback
    time.sleep(0.05)
    return worker_id


def _raising_worker(worker_id: int, victim: int):
    if worker_id == victim:
        raise RuntimeError(f"worker {worker_id} exploded on purpose")
    time.sleep(0.05)
    return worker_id


def test_crashed_worker_surfaces_without_hanging():
    t0 = time.perf_counter()
    with pytest.raises(WorkerCrashed):
        run_workers(_vanishing_worker, 3, args=(1,), timeout=30.0)
    # The whole point: a vanished worker must not block until timeout.
    assert time.perf_counter() - t0 < 20.0


def test_raising_worker_carries_traceback():
    with pytest.raises(WorkerFailed) as excinfo:
        run_workers(_raising_worker, 3, args=(2,), timeout=30.0)
    assert "exploded on purpose" in str(excinfo.value)


def test_run_workers_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        run_workers(_raising_worker, 0)


def _reporting_worker(worker_id: int, n_events: int, gap: float,
                      quiet_after: float, *, request):
    for i in range(n_events):
        time.sleep(gap)
        request(i)
    time.sleep(quiet_after)
    return worker_id


def _recording(seen: list):
    """A request handler that records each payload and answers it."""

    def on_request(worker_id, payload):
        seen.append(payload)
        return {worker_id: None}

    return on_request


def test_steady_progress_outlives_timeout():
    """The hang guard measures silence, not the run's total length."""
    seen = []
    results = run_workers(
        _reporting_worker, 1, args=(8, 0.4, 0.0), timeout=1.0,
        on_request=_recording(seen),
    )
    assert results == [0]
    assert seen == list(range(8))


def test_silent_worker_past_timeout_raises():
    """Alive but silent for longer than ``timeout`` after its last event."""
    seen = []
    t0 = time.perf_counter()
    with pytest.raises(WorkerCrashed):
        run_workers(
            _reporting_worker, 1, args=(1, 0.0, 60.0), timeout=1.0,
            on_request=_recording(seen),
        )
    assert seen == [0]
    assert time.perf_counter() - t0 < 20.0


#: A parent stuck in its request handler, killed there: worker 0 waits
#: for a reply (as a Step-1 report waits for the barrier) and worker 1
#: is writing a message larger than the socket buffer (a subgraph).
_STUCK_PARENT = """\
import os
import time
from repro.parallel.pool import run_workers

def worker(worker_id, *, request):
    os.write(1, b"%d\\n" % os.getpid())  # one write: lines never interleave
    if worker_id == 0:
        request("report")
    else:
        time.sleep(0.5)
        request(bytes(8 << 20))

def on_request(worker_id, payload):
    time.sleep(600)
    return {}

run_workers(worker, 2, on_request=on_request)
"""


@pytest.mark.skipif(not os.path.isdir("/proc"),
                    reason="reads the workers' states from /proc")
def test_waiting_workers_exit_when_the_parent_is_killed():
    child = subprocess.Popen(
        [sys.executable, "-c", _STUCK_PARENT],
        env=dict(os.environ, PYTHONPATH=_SRC),
        stdout=subprocess.PIPE, text=True,
    )
    pids = []
    try:
        for _ in range(2):
            pids.append(int(child.stdout.readline()))
        time.sleep(1.0)  # worker 1 is now blocked in its write
        child.kill()
        child.wait(timeout=30.0)
        deadline = time.monotonic() + 10.0
        while (not all(map(_has_exited, pids))
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert all(map(_has_exited, pids))
    finally:
        child.kill()
        child.wait(timeout=30.0)
        child.stdout.close()
        for pid in pids:
            if not _has_exited(pid):
                os.kill(pid, signal.SIGKILL)


# -- big-k (k > 31): two-word keys end-to-end ------------------------------------

BIGK_CFG = ParaHashConfig(k=45, p=15, n_partitions=16, n_input_pieces=4)


def test_bigk_processes_matches_serial_pipelined(genomic_batch):
    serial = ParaHash(BIGK_CFG).build_graph(genomic_batch)
    procs = ParaHash(
        BIGK_CFG.with_(backend="processes", n_workers=2)
    ).build_graph(genomic_batch)
    assert serial.graph.n_vertices > 0
    assert serial.graph.equals(procs.graph)


def test_bigk_processes_disk_artifacts_match_serial(clean_batch, tmp_path):
    """Big k: same graph, and the workdirs hold the same partitions."""
    outs = {}
    for backend in ("serial", "processes"):
        work = tmp_path / backend / "work"
        cfg = BIGK_CFG if backend == "serial" else BIGK_CFG.with_(
            backend="processes", n_workers=2
        )
        outs[backend] = (ParaHash(cfg).build_graph(clean_batch, workdir=work),
                         work)
    serial_result, serial_work = outs["serial"]
    procs_result, procs_work = outs["processes"]
    assert serial_result.graph.equals(procs_result.graph)
    assert partition_contents(serial_work) == partition_contents(procs_work)
    assert partition_contents(serial_work)


def test_bigk_processes_fallback_on_undersized_tables(clean_batch):
    """An undersized Property-1 estimate cannot change the graph: a
    partition's owner builds from its rows and sizes no table."""
    from repro.core.estimator import SizingPolicy

    class Undersized(SizingPolicy):
        def capacity_for(self, n_kmers: int) -> int:
            return 32

    serial = ParaHash(BIGK_CFG).build_graph(clean_batch)
    procs = ParaHash(BIGK_CFG.with_(
        backend="processes", n_workers=2, sizing=Undersized(),
    )).build_graph(clean_batch)
    assert serial.graph.equals(procs.graph)


# -- CI backend x k matrix leg ----------------------------------------------------
#
# In CI the `matrix` suite runs this module with REPRO_MATRIX_K and
# REPRO_MATRIX_BACKEND set (k in {21, 45} x backend in {serial,
# processes}); locally the k=45 processes cell runs by default.

MATRIX_K = int(os.environ.get("REPRO_MATRIX_K", "45"))
MATRIX_BACKEND = os.environ.get("REPRO_MATRIX_BACKEND", "processes")


def test_matrix_cell_cli_build_matches_serial(genomic_batch, tmp_path):
    """`repro build` at the (k, backend) cell equals the serial build."""
    from repro.cli import main as cli_main
    from repro.dna.io import save_read_batch
    from repro.graph.compare import compare_graphs

    k, backend = MATRIX_K, MATRIX_BACKEND
    reads_file = tmp_path / "reads.fastq"
    save_read_batch(reads_file, genomic_batch, fmt="fastq")
    p = "9" if k <= 31 else "15"
    base = ["build", "--input", str(reads_file), "--k", str(k), "--p", p,
            "--partitions", "16"]
    serial_out = tmp_path / "serial.phdbg"
    assert cli_main(base + ["--backend", "serial",
                            "--output", str(serial_out)]) == 0
    cell_out = tmp_path / "cell.phdbg"
    argv = base + ["--backend", backend, "--output", str(cell_out)]
    if backend != "serial":
        argv += ["--workers", "2"]
    assert cli_main(argv) == 0

    if k <= 31:
        from repro.graph.serialize import load_graph as load
    else:
        from repro.bigk.serialize import load_big_graph as load
    a, b = load(serial_out), load(cell_out)
    comparison = compare_graphs(a, b)
    assert comparison.jaccard == 1.0
    assert comparison.n_only_a == comparison.n_only_b == 0
    assert np.array_equal(a.counts, b.counts)


# -- configuration plumbing -------------------------------------------------------


def test_config_rejects_unknown_backend():
    for gone in ("gpu", "threads"):
        with pytest.raises(ValueError):
            ParaHashConfig(k=21, p=9, backend=gone)
    with pytest.raises(ValueError):
        ParaHashConfig(k=21, p=9, n_workers=-1)


def test_config_worker_resolution():
    assert BACKENDS == ("serial", "processes")
    assert ParaHashConfig(k=21, p=9, n_workers=6).workers() == 6
    auto = ParaHashConfig(k=21, p=9).workers()
    assert auto == max(1, os.cpu_count() or 1)
