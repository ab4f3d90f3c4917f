"""SIGKILL-mid-build resume coverage: the service's raison d'être.

A child process runs a job whose Step-2 tasks are slowed by the
``step2_delay`` fault-injection knob; the parent SIGKILLs it right
after the first per-partition manifest lands, then resumes.  The
resumed run must re-run *only* the unfinished partitions (pre-kill
manifests keep their ``created`` stamps) and the final graph must equal
a fresh serial build.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.config import ParaHashConfig
from repro.core.parahash import ParaHash
from repro.graph.compare import compare_graphs
from repro.graph.serialize import load_graph
from repro.service.jobstore import JobSpec, JobStore
from repro.service.runner import run_job

_SRC = str(Path(__file__).resolve().parents[1] / "src")

_CHILD = """\
import sys
from repro.service.jobstore import JobStore
from repro.service.runner import run_job
run_job(JobStore(sys.argv[1]).load(sys.argv[2]))
"""

N_PARTITIONS = 6
STEP2_DELAY = 0.4


def _spawn_and_kill_mid_step2(record, root) -> dict[str, float]:
    """Run the job in a child, SIGKILL it after >=1 Step-2 manifest.

    Returns the manifest stamps that survived the kill.
    """
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(root), record.job_id],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if list(record.manifest_dir.glob("step2_p*.json")):
                break
            if proc.poll() is not None:
                pytest.fail(f"job finished before the kill "
                            f"(exit {proc.returncode}); raise the delay")
            time.sleep(0.02)
        else:
            pytest.fail("no step2 manifest appeared within 120s")
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30.0)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on fail
            proc.kill()
            proc.wait()
    assert proc.returncode == -signal.SIGKILL
    survived = {
        path.stem: json.loads(path.read_text())["created"]
        for path in record.manifest_dir.glob("step2_p*.json")
    }
    # the kill must land mid-Step-2: some partitions done, some not
    assert 1 <= len(survived) < N_PARTITIONS
    return survived


@pytest.fixture
def killed_job(tmp_path, reads_file):
    root = tmp_path / "jobs"
    store = JobStore(root)
    record = store.create(JobSpec(
        input=str(reads_file), k=15, p=4, n_partitions=N_PARTITIONS,
        n_step1_tasks=2, step2_delay=STEP2_DELAY,
    ))
    survived = _spawn_and_kill_mid_step2(record, root)
    return root, record, survived


class TestResumeAfterKill:
    def test_resume_reruns_only_unfinished_partitions(
            self, killed_job, genomic_batch):
        root, record, survived = killed_job
        # a SIGKILLed owner cannot stamp a terminal state
        assert record.status == "running"

        elapsed = -time.monotonic()
        run_job(record)
        elapsed += time.monotonic()
        assert record.status == "done"

        after = {
            path.stem: json.loads(path.read_text())["created"]
            for path in record.manifest_dir.glob("step2_p*.json")
        }
        assert len(after) == N_PARTITIONS
        for stage, created in survived.items():
            assert after[stage] == created  # finished work not repeated
        # only the unfinished partitions paid the injected delay
        n_rerun = N_PARTITIONS - len(survived)
        assert elapsed < STEP2_DELAY * (n_rerun + 2)

        serial = ParaHash(
            ParaHashConfig(k=15, p=4, n_partitions=N_PARTITIONS)
        ).build_graph(genomic_batch).graph
        diff = compare_graphs(load_graph(record.graph_path), serial)
        assert diff.n_only_a == 0
        assert diff.n_only_b == 0
        assert diff.n_shared > 0

    def test_resume_via_cli(self, killed_job):
        root, record, survived = killed_job
        env = dict(os.environ, PYTHONPATH=_SRC)
        out = subprocess.run(
            [sys.executable, "-m", "repro", "resume", record.job_id,
             "--root", str(root)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert record.status == "done"
        # second resume short-circuits: everything already done
        again = subprocess.run(
            [sys.executable, "-m", "repro", "resume", record.job_id,
             "--root", str(root)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert again.returncode == 0, again.stderr

    def test_resume_unknown_job_fails_cleanly(self, tmp_path):
        root = tmp_path / "jobs"
        root.mkdir()
        env = dict(os.environ, PYTHONPATH=_SRC)
        out = subprocess.run(
            [sys.executable, "-m", "repro", "resume", "19700101-000000-0",
             "--root", str(root)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 2
        assert "no such job" in (out.stderr + out.stdout)
