"""Shared-memory lifecycle regression tests.

The ownership discipline (DESIGN.md): the process that *creates* a
segment owns it and must ``unlink()`` on every exit path — including
failure paths; attachers only ``close()``.  These tests assert the
system-level consequence: after a run that fails at any stage, no
named shared-memory segment survives in ``/dev/shm``.

The static side of the same discipline is lint rule R6
(:mod:`repro.checks.lint`); these tests pin the dynamic behavior the
rule is a proxy for.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.config import ParaHashConfig
from repro.core.parahash import ParaHash
from repro.parallel.pool import WorkerFailed
from repro.parallel import backend as backend_mod
from repro.parallel.shm import share_read_batch

CFG = ParaHashConfig(k=21, p=9, n_partitions=16, n_input_pieces=4)

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="crash injection monkeypatches the worker module, needs fork",
)

needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="leak check reads the named-segment directory",
)


def _segments() -> set[str]:
    """Named shared-memory blocks currently alive (semaphores excluded).

    POSIX semaphores (``sem.*``) share the directory and are reclaimed
    by GC of lock objects, not by segment unlink — they are not what
    these tests assert about.
    """
    gc.collect()
    return {
        name for name in os.listdir("/dev/shm")
        if not name.startswith("sem.")
    }


def _exploding_step2(job):
    raise RuntimeError(f"step2 exploded on partition {job.partition}")


@needs_dev_shm
@needs_fork
def test_failed_pipelined_run_leaves_no_segments(genomic_batch, monkeypatch):
    """Worker failure mid-pipeline: the read-batch segment is unlinked."""
    monkeypatch.setattr(backend_mod, "_process_step2_job", _exploding_step2)
    before = _segments()
    with pytest.raises(WorkerFailed):
        ParaHash(
            CFG.with_(backend="processes", n_workers=2)
        ).build_graph(genomic_batch)
    assert _segments() - before == set()


@needs_dev_shm
def test_share_read_batch_copy_failure_unlinks():
    """A copy that blows up mid-share must not orphan the segment."""

    class BadCodes:
        shape = (4, 4)  # sized like an array, unassignable as one

    class FakeBatch:
        codes = BadCodes()

    before = _segments()
    with pytest.raises(Exception):
        share_read_batch(FakeBatch())
    assert _segments() - before == set()


BIGK_CFG = ParaHashConfig(k=45, p=15, n_partitions=16, n_input_pieces=4)


@needs_dev_shm
@needs_fork
def test_failed_bigk_pipelined_run_leaves_no_segments(
        genomic_batch, monkeypatch):
    """Two-word (k > 31) runs obey the same ownership discipline: a
    worker failure mid-pipeline unlinks the batch segment."""
    monkeypatch.setattr(backend_mod, "_process_step2_job", _exploding_step2)
    before = _segments()
    with pytest.raises(WorkerFailed):
        ParaHash(
            BIGK_CFG.with_(backend="processes", n_workers=2)
        ).build_graph(genomic_batch)
    assert _segments() - before == set()


@needs_dev_shm
def test_successful_bigk_run_leaves_no_segments(clean_batch):
    before = _segments()
    result = ParaHash(
        BIGK_CFG.with_(backend="processes", n_workers=2)
    ).build_graph(clean_batch)
    assert result.graph.n_vertices > 0
    assert _segments() - before == set()


_SIGNAL_CHILD = """\
import sys, time
from repro.core.config import ParaHashConfig
from repro.core.parahash import ParaHash
from repro.dna.simulate import random_genome, simulate_reads
from repro.parallel import backend as backend_mod

marker = sys.argv[1]

def _parked_step2(job):
    open(marker, "w").write("started")
    time.sleep(120)
    raise RuntimeError("unreachable")

backend_mod._process_step2_job = _parked_step2
reads = simulate_reads(random_genome(3000, seed=11), n_reads=500,
                       read_length=80, mean_errors=1.0, seed=12)
cfg = ParaHashConfig(k=21, p=9, n_partitions=16, n_input_pieces=4)
ParaHash(cfg.with_(backend="processes", n_workers=2)).build_graph(reads)
"""


@needs_dev_shm
@needs_fork
@pytest.mark.parametrize("signo", [signal.SIGTERM, signal.SIGINT])
def test_signal_mid_run_leaves_no_segments(tmp_path, signo):
    """SIGTERM/SIGINT while workers hold shm: the parent's signal path
    must terminate the pool and unlink every owned segment before
    exiting — no operator Ctrl-C or service shutdown may leak."""
    marker = tmp_path / "step2_started"
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    before = _segments()
    proc = subprocess.Popen(
        [sys.executable, "-c", _SIGNAL_CHILD, str(marker)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120.0
        while not marker.exists():
            if proc.poll() is not None:
                pytest.fail(f"child exited early ({proc.returncode})")
            if time.monotonic() > deadline:
                pytest.fail("step2 never started")
            time.sleep(0.02)
        os.kill(proc.pid, signo)
        proc.wait(timeout=60.0)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on fail
            proc.kill()
            proc.wait()
    assert proc.returncode != 0
    assert _segments() - before == set()


@needs_dev_shm
def test_successful_run_leaves_no_segments(clean_batch):
    before = _segments()
    result = ParaHash(
        CFG.with_(backend="processes", n_workers=2)
    ).build_graph(clean_batch)
    assert result.graph.n_vertices > 0
    assert _segments() - before == set()
