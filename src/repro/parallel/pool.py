"""A small crash-safe process fan-out.

``concurrent.futures`` is deliberately not used: the backend's workers
claim their own work from a shared queue (work stealing), so
the pool's only jobs are (1) start one process per worker, (2) collect
one result message per worker, and (3) **never hang** — a worker that
dies without reporting (segfault, ``os._exit``, OOM kill) must surface
as a clean :class:`WorkerCrashed` error, with the remaining workers
terminated, instead of a parent blocked on a queue forever.

Workers send ``("ok", worker_id, payload)`` or ``("error", worker_id,
traceback_text)`` through a queue; the parent polls the queue with a
short timeout and watches process liveness between polls.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import signal
import threading
import time
import traceback
from typing import Any, Callable


class WorkerCrashed(RuntimeError):
    """A worker process exited without reporting a result."""


class WorkerFailed(RuntimeError):
    """A worker process raised; carries the worker's traceback text."""


class PoolInterrupted(RuntimeError):
    """The parent received SIGTERM/SIGINT while workers were running.

    Raised *synchronously* inside :func:`run_workers`' poll loop so the
    normal teardown runs: workers are terminated, and every enclosing
    ``try/finally`` in the caller — which is where shared-memory
    segments are owned — unlinks its segments before the process exits.
    Without this conversion a SIGTERM would kill the parent mid-run and
    orphan every live segment in ``/dev/shm``.
    """


def _install_signal_handlers() -> dict | None:
    """Convert SIGTERM/SIGINT into :class:`PoolInterrupted` for the
    duration of a pool run; returns the previous handlers (or ``None``
    when not on the main thread, where handlers cannot be changed)."""
    if threading.current_thread() is not threading.main_thread():
        return None

    def handler(signum: int, frame) -> None:
        raise PoolInterrupted(
            f"received signal {signum} while running workers; pool torn "
            f"down and owned segments unlinked"
        )

    previous: dict = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, handler)
        except (ValueError, OSError):  # pragma: no cover - exotic host
            pass
    return previous


def _restore_signal_handlers(previous: dict | None) -> None:
    if not previous:
        return
    for sig, old in previous.items():
        try:
            signal.signal(sig, old)
        except (ValueError, OSError):  # pragma: no cover - exotic host
            pass


def default_context() -> mp.context.BaseContext:
    """The start method the backend uses.

    ``fork`` when the platform offers it (cheap on Linux, and lock
    bundles / numpy state inherit for free), else the platform default
    (``spawn`` on macOS/Windows — every worker entry point in this
    package is a top-level picklable function for exactly that case).
    """
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platform
        return mp.get_context()


def _worker_shell(fn: Callable, args: tuple, out: mp.queues.Queue,
                  worker_id: int, pass_emit: bool) -> None:
    try:
        # The parent converts SIGTERM to PoolInterrupted for *its own*
        # cleanup; a forked worker inherits that handler, which would
        # turn the pool's terminate() into a slow graceful unwind.
        # Workers die promptly: restore the default disposition.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - exotic host
        pass
    try:
        if pass_emit:
            def emit(payload: Any) -> None:
                out.put(("event", worker_id, payload))

            payload = fn(worker_id, *args, emit=emit)
        else:
            payload = fn(worker_id, *args)
        out.put(("ok", worker_id, payload))
    except BaseException:
        out.put(("error", worker_id, traceback.format_exc()))


def run_workers(
    fn: Callable,
    n_workers: int,
    args: tuple = (),
    ctx: mp.context.BaseContext | None = None,
    poll_seconds: float = 0.25,
    timeout: float | None = 600.0,
    on_event: Callable[[int, Any], None] | None = None,
) -> list[Any]:
    """Run ``fn(worker_id, *args)`` in ``n_workers`` processes.

    Returns the workers' payloads indexed by worker id.  Raises
    :class:`WorkerFailed` when any worker raised (all others are joined
    first so shared resources quiesce) and :class:`WorkerCrashed` when a
    worker vanished without a result; in both cases surviving workers
    are terminated before the error propagates, so the caller can
    release shared segments safely.  ``timeout`` bounds the time since
    the last message of any kind (result or event): a pool whose
    workers all stay alive but silent that long raises
    :class:`WorkerCrashed`, while a run that keeps reporting may take
    as long as it needs.

    With ``on_event`` set, workers are additionally handed an
    ``emit(payload)`` keyword callable; every emitted payload is
    delivered to ``on_event(worker_id, payload)`` *in the parent*,
    inline with the result-poll loop.  This is the pipelined backend's
    mid-run channel: workers announce spill completion while still
    running, and the parent's merger reacts between liveness polls.  An
    exception from ``on_event`` tears the pool down like any parent
    failure (workers are terminated in the ``finally``), so a failing
    merger can never strand workers.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    ctx = ctx or default_context()
    # From here to the final restore, SIGTERM/SIGINT raise
    # PoolInterrupted in this (main) thread: the poll loop below exits
    # through its finally (workers terminated) and the caller's own
    # finally blocks run (owned shm segments unlinked) before the
    # process dies — a clean drain-or-abort instead of an orphaned run.
    previous_handlers = _install_signal_handlers()
    out: mp.queues.Queue = ctx.Queue()
    procs = [
        ctx.Process(target=_worker_shell,
                    args=(fn, args, out, w, on_event is not None),
                    name=f"repro-worker-{w}", daemon=True)
        for w in range(n_workers)
    ]
    results: list[Any] = [None] * n_workers
    reported = [False] * n_workers
    failure: tuple[str, int, str] | None = None
    try:
        for p in procs:
            p.start()
        last_message = time.monotonic()
        while not all(reported):
            try:
                kind, worker_id, payload = out.get(timeout=poll_seconds)
            except queue_mod.Empty:
                silent = time.monotonic() - last_message
                if timeout is not None and silent > timeout:
                    raise WorkerCrashed(
                        f"workers {_pending(reported)} sent no message "
                        f"for {timeout:g}s"
                    )
                dead = [
                    w for w, p in enumerate(procs)
                    if not reported[w] and not p.is_alive()
                ]
                # A dead worker may still have a message in flight;
                # drain once more before declaring the crash.
                if dead and _queue_idle(out):
                    codes = {w: procs[w].exitcode for w in dead}
                    raise WorkerCrashed(
                        f"worker(s) died without reporting a result "
                        f"(exit codes {codes}); inputs may be partially "
                        f"processed"
                    )
                continue
            last_message = time.monotonic()
            if kind == "event":
                if on_event is not None:
                    on_event(worker_id, payload)
                continue
            reported[worker_id] = True
            if kind == "ok":
                results[worker_id] = payload
            elif failure is None:
                failure = (kind, worker_id, payload)
        if failure is not None:
            _, worker_id, tb = failure
            raise WorkerFailed(
                f"worker {worker_id} raised:\n{tb.rstrip()}"
            )
        return results
    finally:
        try:
            for p in procs:
                if p.is_alive():
                    p.terminate()
            for p in procs:
                p.join(timeout=10.0)
            out.close()
        finally:
            _restore_signal_handlers(previous_handlers)


def _pending(reported: list[bool]) -> list[int]:
    return [w for w, done in enumerate(reported) if not done]


def _queue_idle(out: mp.queues.Queue) -> bool:
    """True when one final grace poll finds the result queue empty."""
    try:
        # Peek is impossible on mp queues; a short blocking get that
        # times out is the reliable emptiness test.  A message arriving
        # here is pushed back via the internal buffer-free path by
        # returning False and letting the main loop re-poll.
        item = out.get(timeout=0.5)
    except queue_mod.Empty:
        return True
    out.put(item)
    return False
