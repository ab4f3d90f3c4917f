"""Tests for repro.service.pool (multi-tenant lanes over one pool).

The pool tests patch ``repro.service.pool.run_task`` with a scriptable
fake *before* the workers fork, so the children inherit it — the same
monkeypatch-through-fork idiom the backend crash tests use.
"""

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.service.pool as pool_mod
from repro.service.pool import (
    LaneStalled,
    ServicePool,
    SessionCancelled,
    TasksFailed,
)

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="fake-task injection monkeypatches the pool module, needs fork",
)

pytestmark = needs_fork

_SRC = str(Path(__file__).resolve().parents[1] / "src")

# Opens a pool, prints its worker pids, then waits to be killed.
_POOL_CHILD = """\
import multiprocessing as mp
import time
from repro.service.pool import ServicePool
pool = ServicePool(n_workers=2, n_lanes=1).start()
print(" ".join(str(p.pid) for p in mp.active_children()), flush=True)
time.sleep(600)
"""


def _fake_run_task(task: dict) -> dict:
    kind = task.get("kind")
    if kind == "sleep":
        time.sleep(float(task["seconds"]))
        return {"slept": task["seconds"], "value": task.get("value")}
    if kind == "boom":
        raise RuntimeError("scripted task failure")
    if kind == "die":
        os._exit(43)
    return {"value": task.get("value")}


@pytest.fixture
def fake_tasks(monkeypatch):
    monkeypatch.setattr(pool_mod, "run_task", _fake_run_task)


class TestSessionBasics:
    def test_round_trip(self, fake_tasks):
        with ServicePool(n_workers=2, n_lanes=2) as pool:
            session = pool.open_session()
            try:
                session.submit([{"kind": "echo", "value": i}
                                for i in range(5)])
                results = session.wait(stall_timeout=30.0)
            finally:
                pool.release(session)
            assert sorted(r["value"] for r in results.values()) == [0, 1, 2,
                                                                    3, 4]

    def test_incremental_on_done(self, fake_tasks):
        seen = []
        with ServicePool(n_workers=2, n_lanes=1) as pool:
            session = pool.open_session()
            try:
                session.submit([{"kind": "echo", "value": i}
                                for i in range(4)])
                session.wait(stall_timeout=30.0,
                             on_done=lambda tid, r: seen.append(r["value"]))
            finally:
                pool.release(session)
        assert sorted(seen) == [0, 1, 2, 3]

    def test_task_error_contained_to_task(self, fake_tasks):
        """A raising task fails its session; the worker survives."""
        with ServicePool(n_workers=1, n_lanes=2) as pool:
            session = pool.open_session()
            try:
                session.submit([{"kind": "boom"}, {"kind": "echo",
                                                   "value": 9}])
                with pytest.raises(TasksFailed) as exc_info:
                    session.wait(stall_timeout=30.0)
                assert "scripted task failure" in str(exc_info.value)
            finally:
                pool.release(session)
            # the worker that ran "boom" is still serving
            session2 = pool.open_session()
            try:
                session2.submit([{"kind": "echo", "value": 1}])
                assert len(session2.wait(stall_timeout=30.0)) == 1
            finally:
                pool.release(session2)
            assert pool.n_worker_restarts == 0

    def test_lane_exhaustion_times_out(self, fake_tasks):
        with ServicePool(n_workers=1, n_lanes=1) as pool:
            session = pool.open_session()
            try:
                with pytest.raises(TimeoutError):
                    pool.open_session(timeout=0.05)
            finally:
                pool.release(session)
            # released lane is reusable
            session2 = pool.open_session(timeout=5.0)
            pool.release(session2)

    def test_weight_validation(self, fake_tasks):
        with ServicePool(n_workers=1, n_lanes=1) as pool:
            with pytest.raises(ValueError):
                pool.open_session(claim_weight=0)


class TestCancellation:
    def test_cancel_pending_work(self, fake_tasks):
        with ServicePool(n_workers=1, n_lanes=1) as pool:
            session = pool.open_session()
            session.submit([{"kind": "sleep", "seconds": 0.2}
                            for _ in range(8)])
            time.sleep(0.1)  # let a task start
            session.cancel()
            with pytest.raises(SessionCancelled):
                session.wait(stall_timeout=10.0)
            pool.release(session)
            # the lane serves the next tenant
            session2 = pool.open_session()
            try:
                session2.submit([{"kind": "echo", "value": 5}])
                results = session2.wait(stall_timeout=30.0)
                assert [r["value"] for r in results.values()] == [5]
            finally:
                pool.release(session2)

    def test_submit_after_cancel_rejected(self, fake_tasks):
        with ServicePool(n_workers=1, n_lanes=1) as pool:
            session = pool.open_session()
            session.cancel()
            with pytest.raises(SessionCancelled):
                session.submit([{"kind": "echo"}])
            pool.release(session)


class TestCrashContainment:
    def test_worker_death_fails_only_its_session(self, fake_tasks):
        """One job's worker-killing task must not touch its neighbor."""
        with ServicePool(n_workers=2, n_lanes=2) as pool:
            victim = pool.open_session()
            neighbor = pool.open_session()
            outcome = {}

            def drive_neighbor():
                neighbor.submit([{"kind": "sleep", "seconds": 0.05,
                                  "value": i} for i in range(6)])
                outcome["neighbor"] = neighbor.wait(stall_timeout=30.0)

            t = threading.Thread(target=drive_neighbor)
            t.start()
            try:
                victim.submit([{"kind": "die"}])
                with pytest.raises(TasksFailed) as exc_info:
                    victim.wait(stall_timeout=30.0)
                assert "died" in str(exc_info.value)
                t.join(timeout=30.0)
                assert not t.is_alive()
                assert len(outcome["neighbor"]) == 6
                assert pool.n_worker_restarts >= 1
            finally:
                pool.release(victim)
                pool.release(neighbor)

    def test_replacement_worker_serves(self, fake_tasks):
        with ServicePool(n_workers=1, n_lanes=1) as pool:
            session = pool.open_session()
            session.submit([{"kind": "die"}])
            with pytest.raises(TasksFailed):
                session.wait(stall_timeout=30.0)
            pool.release(session)
            session2 = pool.open_session()
            try:
                session2.submit([{"kind": "echo", "value": 1}])
                assert len(session2.wait(stall_timeout=30.0)) == 1
            finally:
                pool.release(session2)


class TestFairness:
    def test_claim_batches_follow_weights(self, fake_tasks):
        """Weight-2 tenants are served two tasks per worker visit."""
        with ServicePool(n_workers=2, n_lanes=2) as pool:
            heavy = pool.open_session(claim_weight=2)
            light = pool.open_session(claim_weight=1)
            try:
                tasks = [{"kind": "sleep", "seconds": 0.03, "value": i}
                         for i in range(10)]
                heavy.submit(tasks)
                light.submit(tasks)
                heavy.wait(stall_timeout=30.0)
                light.wait(stall_timeout=30.0)
                heavy_batches = [b["n_tasks"]
                                 for b in heavy.describe()["claim_batches"]]
                light_batches = [b["n_tasks"]
                                 for b in light.describe()["claim_batches"]]
            finally:
                pool.release(heavy)
                pool.release(light)
        assert all(b == 1 for b in light_batches)
        assert max(heavy_batches) == 2  # backlog served in weighted pairs
        assert sum(heavy_batches) == 10
        assert sum(light_batches) == 10

    def test_describe_exposes_weight(self, fake_tasks):
        with ServicePool(n_workers=1, n_lanes=1) as pool:
            session = pool.open_session(claim_weight=3)
            try:
                assert session.describe()["claim_weight"] == 3
            finally:
                pool.release(session)


class TestStallDetection:
    def test_stall_raises_instead_of_hanging(self, fake_tasks):
        with ServicePool(n_workers=1, n_lanes=1) as pool:
            session = pool.open_session()
            try:
                session.submit([{"kind": "sleep", "seconds": 30.0}])
                with pytest.raises(LaneStalled):
                    session.wait(stall_timeout=0.3)
            finally:
                pool.release(session)


class TestPoolLifecycle:
    def test_describe(self, fake_tasks):
        with ServicePool(n_workers=2, n_lanes=3) as pool:
            doc = pool.describe()
            assert doc["n_workers"] == 2
            assert doc["free_lanes"] == 3
            session = pool.open_session()
            assert pool.describe()["busy_lanes"] == [session.lane_id]
            pool.release(session)

    def test_double_close_is_safe(self, fake_tasks):
        pool = ServicePool(n_workers=1, n_lanes=1).start()
        pool.close()
        pool.close()

    def test_validation(self):
        with pytest.raises(ValueError):
            ServicePool(n_workers=0)
        with pytest.raises(ValueError):
            ServicePool(n_lanes=0)
        with pytest.raises(RuntimeError):
            ServicePool(n_workers=1, n_lanes=1).open_session()


def _has_exited(pid: int) -> bool:
    """Gone, or a zombie: a container's init may never reap it."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


class TestParentDispatch:
    def test_backlog_has_no_capacity_limit(self, fake_tasks):
        """More tasks than a fixed-size queue would hold all complete."""
        with ServicePool(n_workers=2, n_lanes=1) as pool:
            session = pool.open_session(claim_weight=3)
            try:
                session.submit([{"kind": "echo", "value": i}
                                for i in range(5000)])
                results = session.wait(stall_timeout=60.0)
                batches = session.describe()["claim_batches"]
            finally:
                pool.release(session)
        assert sorted(r["value"] for r in results.values()) == list(
            range(5000))
        assert sum(b["n_tasks"] for b in batches) == 5000
        assert max(b["n_tasks"] for b in batches) == 3

    def test_result_sent_before_a_crash_is_kept(self, fake_tasks):
        """A worker dies mid-batch: only the task it died on fails."""
        seen = []
        with ServicePool(n_workers=1, n_lanes=1) as pool:
            session = pool.open_session(claim_weight=2)
            try:
                echo_id, die_id = session.submit(
                    [{"kind": "echo", "value": 7}, {"kind": "die"}])
                with pytest.raises(TasksFailed) as exc_info:
                    session.wait(stall_timeout=30.0,
                                 on_done=lambda tid, r: seen.append((tid, r)))
                batches = session.describe()["claim_batches"]
            finally:
                pool.release(session)
            assert pool.n_worker_restarts == 1
        assert batches == [{"worker": 0, "n_tasks": 2}]
        assert seen == [(echo_id, {"value": 7})]
        assert list(exc_info.value.errors) == [die_id]
        assert "died" in exc_info.value.errors[die_id]

    @pytest.mark.skipif(not os.path.isdir("/proc"),
                        reason="reads worker states from /proc")
    def test_workers_exit_when_the_parent_is_killed(self):
        child = subprocess.Popen(
            [sys.executable, "-c", _POOL_CHILD],
            env=dict(os.environ, PYTHONPATH=_SRC),
            stdout=subprocess.PIPE, text=True,
        )
        pids = []
        try:
            pids = [int(pid) for pid in child.stdout.readline().split()]
            assert len(pids) == 2
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
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
