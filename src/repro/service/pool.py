"""One shared process pool, many concurrent jobs: the service's engine.

The parent decides who runs what, as §III-E's queue does: it keeps
every open session's pending tasks, and whenever a worker is idle it
sends that worker up to ``claim_weight`` tasks from the next session
with a backlog, visiting sessions round-robin.  So when two jobs
compete for the same workers, a weight-2 job is handed two tasks per
worker visit against a weight-1 neighbor's one — observable in the
claim batches the parent records and the status API reports.
``n_lanes`` caps how many sessions are open at once; a session's
``lane`` is the slot it holds.

Each worker owns one pipe, made when it is spawned: it blocks on the
pipe for its next batch and sends one report per task back on it.  A
pipe write is synchronous (no feeder thread), so a result sent before
a crash is in the parent's buffer when the crash is seen.

Crash containment is per *job*, not per pool:

* a task that **raises** is reported as that task's failure — the
  worker survives and serves the next batch;
* a worker that **dies** (segfault, OOM kill) shows as end-of-file on
  its pipe once the reports it sent are read.  The parent fails the
  tasks it sent that worker and has not heard back about, on their own
  session, and spawns a replacement.  Neighbor jobs never see it.
* a parent that is **SIGKILLed** cannot tell anyone; its workers'
  pipes then read end-of-file (each forked worker closes its copies of
  the parent's ends, see :func:`repro.parallel.pool.spawn_worker`), so
  they exit on their own and a dead service never leaves processes
  behind.

A cancelled or released session's backlog never leaves the parent;
tasks already sent to a worker finish and their reports are ignored.
"""

from __future__ import annotations

import multiprocessing as mp
import signal
import threading
import time
import traceback
from collections import deque
from multiprocessing.connection import wait as wait_ready

from ..parallel.pool import default_context, spawn_worker
from .tasks import run_task


class TasksFailed(RuntimeError):
    """One or more tasks of a session failed; carries per-task errors."""

    def __init__(self, errors: dict) -> None:
        lines = "\n".join(
            f"  {tid}: {text.strip().splitlines()[-1]}"
            for tid, text in sorted(errors.items())
        )
        super().__init__(f"{len(errors)} task(s) failed:\n{lines}")
        self.errors = errors


class SessionCancelled(RuntimeError):
    """The session was cancelled while tasks were pending."""


class LaneStalled(RuntimeError):
    """No task activity within the stall timeout — work was lost."""


def _service_worker(conn) -> None:
    """Body of one pool worker: receive a batch, run it, report each task.

    Lives until the pool terminates it or the parent vanishes.  Tasks
    are file-based by design, so no shared memory is involved.
    """
    try:
        # Die promptly on the pool's terminate(); see parallel.pool.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - exotic host
        pass
    while True:
        try:
            batch = conn.recv()
        except EOFError:
            return  # the parent closed its end, or died
        for task in batch:
            try:
                report = ("done", run_task(task))
            except Exception:
                report = ("task_error", traceback.format_exc())
            try:
                conn.send(report)
            except OSError:
                return  # the parent died mid-batch


class LaneSession:
    """One job's tenancy of one lane: submit tasks, wait, observe.

    Parent-side only.  All mutable state is guarded by ``_cond`` (the
    pool's pump thread delivers into it; the runner thread waits on
    it).  The pool takes ``_cond`` while holding its own lock, never
    the other way round.
    """

    def __init__(self, pool: "ServicePool", lane_id: int,
                 claim_weight: int) -> None:
        self.pool = pool
        self.lane_id = lane_id
        self.claim_weight = claim_weight
        self._cond = threading.Condition()
        self._seq = 0
        self._backlog: deque[tuple[str, dict]] = deque()
        self._pending: set[str] = set()
        self._done: dict[str, dict] = {}
        self._delivered: set[str] = set()
        self._errors: dict[str, str] = {}
        self._claim_batches: list[dict] = []
        self._cancelled = False
        self.released = False

    # -- submission --------------------------------------------------------------

    def submit(self, tasks: list[dict]) -> list[str]:
        """Name and queue tasks, then hand them to idle workers."""
        task_ids = []
        with self._cond:
            if self._cancelled:
                raise SessionCancelled("submit on a cancelled session")
            if self.released:
                raise RuntimeError("submit on a released session")
            for task in tasks:
                task_id = f"L{self.lane_id}t{self._seq:04d}"
                self._seq += 1
                self._pending.add(task_id)
                self._backlog.append((task_id, task))
                task_ids.append(task_id)
        self.pool._dispatch()
        return task_ids

    def _take_batch(self, worker_id: int) -> list[tuple[str, dict]]:
        """Pop up to ``claim_weight`` queued tasks for one worker."""
        with self._cond:
            n = min(self.claim_weight, len(self._backlog))
            if n:
                self._claim_batches.append(
                    {"worker": worker_id, "n_tasks": n}
                )
            return [self._backlog.popleft() for _ in range(n)]

    # -- event delivery (called by the pool's pump thread) -----------------------

    def _deliver(self, kind: str, task_id: str, payload) -> None:
        with self._cond:
            if task_id in self._pending:
                self._pending.discard(task_id)
                if kind == "done":
                    self._done[task_id] = payload
                else:
                    self._errors[task_id] = payload
                self._cond.notify_all()

    # -- waiting -----------------------------------------------------------------

    def wait(self, stall_timeout: float = 600.0,
             on_done=None) -> dict[str, dict]:
        """Block until every submitted task settled; return results.

        ``on_done(task_id, result)`` fires for each completion *as it
        arrives* (outside the session lock) — the runner's hook for
        writing per-partition manifests incrementally, which is what
        makes mid-stage kills resumable.

        ``stall_timeout`` bounds *inactivity*, not total runtime: it
        resets on every settlement, and backstops a task that hangs.
        """
        deadline = time.monotonic() + stall_timeout
        while True:
            with self._cond:
                fresh = [
                    tid for tid in self._done if tid not in self._delivered
                ]
                self._delivered.update(fresh)
                if not fresh:
                    if self._cancelled:
                        raise SessionCancelled("session cancelled")
                    if not self._pending:
                        break
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        lost = sorted(self._pending)
                        raise LaneStalled(
                            f"no task activity for {stall_timeout:.0f}s; "
                            f"unsettled: {lost[:8]}"
                            + ("..." if len(lost) > 8 else "")
                        )
                    self._cond.wait(min(0.2, remaining))
                    continue
            for task_id in fresh:
                if on_done is not None:
                    on_done(task_id, self._done[task_id])
            deadline = time.monotonic() + stall_timeout
        with self._cond:
            if self._errors:
                raise TasksFailed(dict(self._errors))
            return dict(self._done)

    # -- control -----------------------------------------------------------------

    def cancel(self) -> None:
        """Stop serving this session; pending tasks will never settle."""
        with self._cond:
            self._cancelled = True
            self._backlog.clear()
            self._pending.clear()
            self._cond.notify_all()

    def describe(self) -> dict:
        """Fairness observability: weights and claim batches."""
        with self._cond:
            return {
                "lane": self.lane_id,
                "claim_weight": self.claim_weight,
                "n_pending": len(self._pending),
                "n_done": len(self._done),
                "n_errors": len(self._errors),
                "claim_batches": list(self._claim_batches),
            }


class ServicePool:
    """The shared worker pool all jobs of one service instance use."""

    def __init__(self, n_workers: int = 2, n_lanes: int = 4,
                 ctx: mp.context.BaseContext | None = None) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if n_lanes < 1:
            raise ValueError("n_lanes must be >= 1")
        self.n_workers = n_workers
        self.n_lanes = n_lanes
        self._ctx = ctx or default_context()
        self._lock = threading.Lock()
        self._free_cond = threading.Condition(self._lock)
        self._free = list(range(n_lanes))
        self._sessions: dict[int, LaneSession] = {}
        self._turn = 0  # the lane the next round-robin visit starts at
        self._procs: list = []
        self._conns: list = []
        # Per worker: the (session, task id) pairs sent to it and not
        # yet reported, in the order it runs them.  Empty means idle.
        self._held: list[deque] = [deque() for _ in range(n_workers)]
        self._pump_thread: threading.Thread | None = None
        self._closing = False
        self._started = False
        self.n_worker_restarts = 0

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "ServicePool":
        if self._started:
            return self
        self._started = True
        for worker_id in range(self.n_workers):
            proc, conn = self._spawn_worker(worker_id)
            self._procs.append(proc)
            self._conns.append(conn)
        self._pump_thread = threading.Thread(
            target=self._pump, name="service-pool-pump", daemon=True
        )
        self._pump_thread.start()
        return self

    def _spawn_worker(self, worker_id: int):
        return spawn_worker(self._ctx, _service_worker, (),
                            f"repro-service-{worker_id}")

    def close(self) -> None:
        with self._lock:
            if self._closing:
                return
            self._closing = True
        # Stop the pump before terminating workers: the pump respawns
        # dead workers, and a respawn landing in ``_procs`` after the
        # terminate loop below would leave an untracked live process.
        if self._pump_thread is not None:
            self._pump_thread.join(timeout=10.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=10.0)
        for conn in self._conns:
            conn.close()

    def __enter__(self) -> "ServicePool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- sessions ----------------------------------------------------------------

    def open_session(self, claim_weight: int = 1,
                     timeout: float = 30.0) -> LaneSession:
        """Claim a free lane for one job; blocks while all lanes busy."""
        if claim_weight < 1:
            raise ValueError("claim_weight must be >= 1")
        if not self._started:
            raise RuntimeError("pool not started")
        deadline = time.monotonic() + timeout
        with self._free_cond:
            while not self._free:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"all {self.n_lanes} lanes busy for {timeout:.0f}s"
                    )
                self._free_cond.wait(remaining)
            lane_id = self._free.pop(0)
            session = LaneSession(self, lane_id, claim_weight)
            self._sessions[lane_id] = session
        return session

    def release(self, session: LaneSession) -> None:
        """Return a session's lane to the free list; drop its backlog."""
        if session.released:
            return
        session.released = True
        with self._free_cond:
            if self._sessions.get(session.lane_id) is session:
                del self._sessions[session.lane_id]
            self._free.append(session.lane_id)
            self._free_cond.notify_all()

    # -- dispatch: the parent hands out the tasks --------------------------------

    def _dispatch(self) -> None:
        """Send every idle worker a batch from the next backlogged session."""
        with self._lock:
            if self._closing:
                return
            for worker_id, held in enumerate(self._held):
                if held:
                    continue
                session, batch = self._next_batch(worker_id)
                if not batch:
                    return
                held.extend((session, task_id) for task_id, _ in batch)
                try:
                    self._conns[worker_id].send([task for _, task in batch])
                except OSError:
                    pass  # the worker is dead; the pump fails its batch

    def _next_batch(self, worker_id: int):
        """Round-robin over lanes: the first session with a backlog
        gives up to its claim weight.  Caller holds ``_lock``."""
        for step in range(self.n_lanes):
            lane_id = (self._turn + step) % self.n_lanes
            session = self._sessions.get(lane_id)
            batch = session._take_batch(worker_id) if session else []
            if batch:
                self._turn = lane_id + 1
                return session, batch
        return None, []

    # -- pump: worker reports + worker liveness ----------------------------------

    def _pump(self) -> None:
        while True:
            with self._lock:
                if self._closing:
                    return
                conns = list(self._conns)
            for conn in wait_ready(conns, timeout=0.2):
                worker_id = conns.index(conn)
                try:
                    kind, payload = conn.recv()
                except (EOFError, OSError):
                    self._replace_worker(worker_id)
                    continue
                with self._lock:
                    session, task_id = self._held[worker_id].popleft()
                session._deliver(kind, task_id, payload)
                self._dispatch()

    def _replace_worker(self, worker_id: int) -> None:
        """Contain a worker death: fail what it held, respawn it."""
        proc = self._procs[worker_id]
        proc.join(timeout=5.0)
        with self._lock:
            if self._closing:
                return
            held = list(self._held[worker_id])
            self._held[worker_id].clear()
            self._conns[worker_id].close()
            self.n_worker_restarts += 1
            # Respawn under the ``_closing`` check: done outside the
            # lock, close() could terminate the old proc list and miss
            # a replacement stored just after.
            self._procs[worker_id], self._conns[worker_id] = (
                self._spawn_worker(worker_id)
            )
        reason = (
            f"worker {worker_id} died (exit code {proc.exitcode}) "
            f"while holding this task"
        )
        for session, task_id in held:
            session._deliver("task_error", task_id, reason)
        self._dispatch()

    # -- observability -----------------------------------------------------------

    def describe(self) -> dict:
        with self._lock:
            busy = sorted(self._sessions)
            return {
                "n_workers": self.n_workers,
                "n_lanes": self.n_lanes,
                "busy_lanes": busy,
                "free_lanes": len(self._free),
                "n_worker_restarts": self.n_worker_restarts,
            }
