"""A small crash-safe process fan-out.

``concurrent.futures`` is deliberately not used: the parent hands out
the work itself, so the pool's only jobs are (1) start one process per
worker, each owning one duplex pipe, (2) answer the workers' requests
and collect one result message per worker, and (3) **never hang** — a
worker that dies without reporting (segfault, ``os._exit``, OOM kill)
must surface as a clean :class:`WorkerCrashed` error, with the
remaining workers terminated, instead of a parent blocked forever.

Workers send ``("request", payload)``, ``("ok", payload)`` or
``("error", traceback_text)`` on their pipe.  A pipe write is
synchronous, so whatever a worker sent before it died is read before
its pipe reads end-of-file.
"""

from __future__ import annotations

import multiprocessing as mp
import signal
import threading
import time
import traceback
import weakref
from multiprocessing.connection import wait as wait_ready
from typing import Any, Callable


class WorkerCrashed(RuntimeError):
    """A worker process exited without reporting a result."""


class WorkerFailed(RuntimeError):
    """A worker process raised; carries the worker's traceback text."""


class PoolInterrupted(RuntimeError):
    """The parent received SIGTERM/SIGINT while workers were running.

    Raised *synchronously* inside :func:`run_workers`' wait loop so the
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


#: The parent's end of every worker pipe this process has made.  A
#: forked worker inherits copies of them all and closes those first
#: (:func:`_child_main`): while a copy is open in a worker, a dead
#: parent's end never reads as end-of-file there, and a write to it
#: blocks for good once the socket buffer is full.
_PARENT_ENDS: weakref.WeakSet = weakref.WeakSet()


def spawn_worker(ctx: mp.context.BaseContext, target: Callable, args: tuple,
                 name: str):
    """Start ``target(conn, *args)`` in a new process that owns one end
    of a fresh duplex pipe; returns ``(process, parent_end)``.

    Once the parent has died, the worker's reads on ``conn`` raise
    ``EOFError`` and its writes ``OSError``, so a worker never outlives
    a SIGKILLed parent by more than the task it is running.
    """
    conn, child_conn = ctx.Pipe()
    _PARENT_ENDS.add(conn)
    proc = ctx.Process(target=_child_main, args=(target, child_conn, *args),
                       name=name, daemon=True)
    try:
        proc.start()
    finally:
        # The worker's end now lives in the worker alone, so its exit
        # reads as end-of-file here.
        child_conn.close()
    return proc, conn


def _child_main(target: Callable, conn, *args) -> None:
    for parent_end in list(_PARENT_ENDS):
        parent_end.close()
    target(conn, *args)


def _worker_shell(conn, fn: Callable, args: tuple, worker_id: int,
                  pass_request: bool) -> None:
    try:
        # The parent converts SIGTERM to PoolInterrupted for *its own*
        # cleanup; a forked worker inherits that handler, which would
        # turn the pool's terminate() into a slow graceful unwind.
        # Workers die promptly: restore the default disposition.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - exotic host
        pass
    try:
        if pass_request:
            def request(payload: Any) -> Any:
                conn.send(("request", payload))
                return conn.recv()

            payload = fn(worker_id, *args, request=request)
        else:
            payload = fn(worker_id, *args)
        conn.send(("ok", payload))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:
            pass  # the parent died: nobody is left to report to


def run_workers(
    fn: Callable,
    n_workers: int,
    args: tuple = (),
    timeout: float | None = 600.0,
    on_request: Callable[[int, Any], dict[int, Any]] | None = None,
) -> list[Any]:
    """Run ``fn(worker_id, *args)`` in ``n_workers`` processes.

    Returns the workers' payloads indexed by worker id.  Raises
    :class:`WorkerFailed` as soon as a worker raised and
    :class:`WorkerCrashed` when a worker's pipe reads end-of-file (or
    its process ends) before it reported; in both cases the other
    workers are terminated before the error propagates, so the caller
    can release shared segments safely.  ``timeout`` bounds the time
    since the last message of any kind (result or request): a pool
    whose workers all stay alive but silent that long raises
    :class:`WorkerCrashed`, while a run that keeps reporting may take
    as long as it needs.

    With ``on_request`` set, workers are additionally handed a
    ``request(payload)`` keyword callable that blocks until the parent
    replies.  Every request is delivered to ``on_request(worker_id,
    payload)`` *in the parent*, which returns the replies to send now
    as ``{worker_id: reply}``: a request it cannot answer yet is held
    (left out) and answered by a later call's return value.  An
    exception from ``on_request`` tears the pool down like any parent
    failure (workers are terminated in the ``finally``), so a failing
    dispatcher can never strand workers, and a worker waiting on its
    pipe exits once this process has died (see :func:`spawn_worker`),
    so a SIGKILLed parent strands none either.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    ctx = default_context()
    # From here to the final restore, SIGTERM/SIGINT raise
    # PoolInterrupted in this (main) thread: the wait loop below exits
    # through its finally (workers terminated) and the caller's own
    # finally blocks run (owned shm segments unlinked) before the
    # process dies — a clean drain-or-abort instead of an orphaned run.
    previous_handlers = _install_signal_handlers()
    procs: list = []
    conns: list = []
    results: list[Any] = [None] * n_workers
    reported = [False] * n_workers
    try:
        for w in range(n_workers):
            proc, conn = spawn_worker(
                ctx, _worker_shell,
                (fn, args, w, on_request is not None),
                f"repro-worker-{w}")
            procs.append(proc)
            conns.append(conn)
        last_message = time.monotonic()
        while not all(reported):
            pending = _pending(reported)
            wait_s = None if timeout is None else max(
                0.0, last_message + timeout - time.monotonic())
            ready = wait_ready(
                [conns[w] for w in pending]
                + [procs[w].sentinel for w in pending], timeout=wait_s)
            if not ready:
                raise WorkerCrashed(
                    f"workers {pending} sent no message for {timeout:g}s"
                )
            for w in pending:
                if not conns[w].poll():
                    if procs[w].sentinel in ready:
                        raise _crashed(w, procs[w])
                    continue
                try:
                    kind, payload = conns[w].recv()
                except (EOFError, OSError):
                    raise _crashed(w, procs[w]) from None
                last_message = time.monotonic()
                if kind == "request":
                    for target, reply in on_request(w, payload).items():
                        try:
                            conns[target].send(reply)
                        except OSError:
                            pass  # a dead worker: its pipe reads EOF next
                elif kind == "ok":
                    reported[w] = True
                    results[w] = payload
                else:
                    raise WorkerFailed(
                        f"worker {w} raised:\n{payload.rstrip()}"
                    )
        return results
    finally:
        try:
            for p in procs:
                if p.is_alive():
                    p.terminate()
            for p in procs:
                p.join(timeout=10.0)
            for conn in conns:
                conn.close()
        finally:
            _restore_signal_handlers(previous_handlers)


def _crashed(worker_id: int, proc) -> WorkerCrashed:
    proc.join(timeout=1.0)
    return WorkerCrashed(
        f"worker {worker_id} died without reporting a result (exit code "
        f"{proc.exitcode}); inputs may be partially processed"
    )


def _pending(reported: list[bool]) -> list[int]:
    return [w for w, done in enumerate(reported) if not done]
