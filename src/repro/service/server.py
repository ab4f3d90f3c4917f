"""The asyncio HTTP front end: submit, watch, cancel, fetch.

Stdlib only (``asyncio.start_server`` + hand-rolled HTTP/1.1 parsing —
the container has no aiohttp, and the API surface is five endpoints).
The event loop never blocks on a build: each accepted job runs on its
own thread, which acquires a lane from the shared
:class:`~repro.service.pool.ServicePool`, drives
:func:`~repro.service.runner.run_job`, and releases the lane — so many
jobs proceed concurrently over one pool, weighted by their
``claim_weight``.

Endpoints
---------

=======  ==========================  =======================================
POST     ``/jobs``                   submit a job (body = JobSpec JSON)
GET      ``/jobs``                   list all jobs with status
GET      ``/jobs/<id>``              one job's status + live fairness view
POST     ``/jobs/<id>/cancel``       cancel a queued/running job
POST     ``/jobs/<id>/resume``       re-run a failed/killed job's stages
GET      ``/jobs/<id>/artifact``     download the final ``graph.phdbg``
GET      ``/healthz``                liveness + pool occupancy
=======  ==========================  =======================================
"""

from __future__ import annotations

import asyncio
import json
import threading

from .jobstore import JobError, JobSpec, JobStore
from .pool import ServicePool
from .runner import run_job

_MAX_BODY = 1 << 20  # job specs are small; anything bigger is abuse


class _ActiveJob:
    """Parent-side handle for one accepted job's worker thread."""

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self.thread: threading.Thread | None = None
        self.session = None
        self._lock = threading.Lock()
        self._cancel_requested = False

    def attach_session(self, session) -> bool:
        """Record the acquired lane; False if cancel already arrived."""
        with self._lock:
            if self._cancel_requested:
                return False
            self.session = session
            return True

    def cancel(self) -> None:
        with self._lock:
            self._cancel_requested = True
            session = self.session
        if session is not None:
            session.cancel()

    def describe_session(self) -> dict | None:
        with self._lock:
            session = self.session
        return session.describe() if session is not None else None


class ServiceApp:
    """Routing + job lifecycle over one store and one pool."""

    def __init__(self, store: JobStore, pool: ServicePool,
                 lane_timeout: float = 3600.0,
                 stall_timeout: float = 600.0) -> None:
        self.store = store
        self.pool = pool
        self.lane_timeout = lane_timeout
        self.stall_timeout = stall_timeout
        self._lock = threading.Lock()
        self._active: dict[str, _ActiveJob] = {}

    # -- job lifecycle -----------------------------------------------------------

    def submit(self, spec: JobSpec) -> str:
        record = self.store.create(spec)
        self._launch(record)
        return record.job_id

    def resume(self, job_id: str) -> None:
        record = self.store.load(job_id)  # raises JobError if unknown
        with self._lock:
            active = self._active.get(job_id)
        if active is not None and record.status in ("cancelled", "failed"):
            # The job's thread has stamped its final state and is only
            # returning its lane; a resume waits for it, not refuses.
            # (A launch stamps ``queued`` before it registers, so a
            # final state here never belongs to a thread still to run.)
            active.thread.join()
        if record.status == "done":
            raise JobError(f"job {job_id} already completed")
        self._launch(record, requeue=True)

    def _launch(self, record, requeue: bool = False) -> None:
        active = _ActiveJob(record.job_id)

        def drive() -> None:
            session = None
            try:
                session = self.pool.open_session(
                    claim_weight=record.spec.claim_weight,
                    timeout=self.lane_timeout,
                )
                if not active.attach_session(session):
                    record.set_state("cancelled")
                    return
                run_job(record, session, stall_timeout=self.stall_timeout)
            except Exception:
                # run_job already stamped failed/cancelled into
                # status.json; a lane-acquisition timeout needs its own.
                if record.status == "queued":
                    record.set_state("failed",
                                     error="no pool lane became free")
            finally:
                if session is not None:
                    self.pool.release(session)
                with self._lock:
                    self._active.pop(record.job_id, None)

        active.thread = threading.Thread(
            target=drive, name=f"job-{record.job_id}", daemon=True
        )
        with self._lock:
            if record.job_id in self._active:
                raise JobError(f"job {record.job_id} is already active")
            if requeue:
                record.set_state("queued")
            self._active[record.job_id] = active
        active.thread.start()

    def cancel(self, job_id: str) -> dict:
        record = self.store.load(job_id)
        with self._lock:
            active = self._active.get(job_id)
        if active is not None:
            active.cancel()
        elif record.status in ("queued", "running"):
            # Not active in *this* server (e.g. killed owner): the status
            # alone flips; nothing is executing.
            record.set_state("cancelled")
        return record.describe()

    def describe_job(self, job_id: str) -> dict:
        record = self.store.load(job_id)
        doc = record.describe()
        with self._lock:
            active = self._active.get(job_id)
        if active is not None:
            doc["active"] = True
            lane = active.describe_session()
            if lane is not None:
                doc["lane"] = lane
        else:
            doc["active"] = False
        return doc

    # -- routing -----------------------------------------------------------------

    def route(self, method: str, path: str,
              body: bytes) -> tuple[int, bytes, str]:
        """Dispatch one request; returns (status, payload, content-type)."""
        try:
            return self._route(method, path, body)
        except JobError as exc:
            return _json_reply(404 if "no such job" in str(exc) else 400,
                               {"error": str(exc)})
        except Exception as exc:  # never let a handler kill the server
            return _json_reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _route(self, method: str, path: str,
               body: bytes) -> tuple[int, bytes, str]:
        parts = [p for p in path.split("?", 1)[0].split("/") if p]
        if parts == ["healthz"] and method == "GET":
            return _json_reply(200, {"ok": True,
                                     "pool": self.pool.describe()})
        if parts == ["jobs"]:
            if method == "GET":
                return _json_reply(200, {
                    "jobs": [r.describe() for r in self.store.list_jobs()]
                })
            if method == "POST":
                try:
                    doc = json.loads(body or b"{}")
                except json.JSONDecodeError as exc:
                    return _json_reply(400, {"error": f"bad JSON: {exc}"})
                job_id = self.submit(JobSpec.from_dict(doc))
                return _json_reply(201, {"id": job_id})
        if len(parts) == 2 and parts[0] == "jobs" and method == "GET":
            return _json_reply(200, self.describe_job(parts[1]))
        if len(parts) == 3 and parts[0] == "jobs":
            job_id, action = parts[1], parts[2]
            if action == "cancel" and method == "POST":
                return _json_reply(200, self.cancel(job_id))
            if action == "resume" and method == "POST":
                self.resume(job_id)
                return _json_reply(202, {"id": job_id, "resumed": True})
            if action == "artifact" and method == "GET":
                record = self.store.load(job_id)
                if record.status != "done" \
                        or not record.graph_path.is_file():
                    return _json_reply(409, {
                        "error": f"job {job_id} has no finished artifact "
                                 f"(status: {record.status})"
                    })
                return (200, record.graph_path.read_bytes(),
                        "application/octet-stream")
        return _json_reply(404, {"error": f"no route {method} {path}"})


def _json_reply(status: int, doc: dict) -> tuple[int, bytes, str]:
    return (status,
            json.dumps(doc, indent=2, sort_keys=True).encode("utf-8"),
            "application/json")


_REASONS = {200: "OK", 201: "Created", 202: "Accepted",
            400: "Bad Request", 404: "Not Found", 409: "Conflict",
            500: "Internal Server Error"}


async def _handle_connection(app: ServiceApp,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
    try:
        request_line = await asyncio.wait_for(reader.readline(), timeout=30)
        words = request_line.decode("latin1").split()
        if len(words) < 2:
            return
        method, path = words[0].upper(), words[1]
        headers: dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout=30)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY:
            status, payload, ctype = _json_reply(
                400, {"error": "request body too large"})
        else:
            body = await reader.readexactly(length) if length else b""
            # Handlers may touch locks and disk; keep the loop responsive.
            status, payload, ctype = await asyncio.get_running_loop() \
                .run_in_executor(None, app.route, method, path, body)
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin1") + payload)
        await writer.drain()
    except (asyncio.IncompleteReadError, asyncio.TimeoutError,
            ConnectionError):
        pass  # client went away; nothing to answer
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:  # pragma: no cover - raced close
            pass


async def serve(app: ServiceApp, host: str = "127.0.0.1",
                port: int = 8541,
                ready: threading.Event | None = None,
                bound: list | None = None) -> None:
    """Serve until cancelled.  ``ready``/``bound`` report the actual
    bind (port 0 picks a free port) to a waiting thread."""
    server = await asyncio.start_server(
        lambda r, w: _handle_connection(app, r, w), host=host, port=port
    )
    if bound is not None:
        bound.append(server.sockets[0].getsockname()[:2])
    if ready is not None:
        ready.set()
    async with server:
        await server.serve_forever()


class ServerHandle:
    """A server running on a background thread (tests, embedding)."""

    def __init__(self, app: ServiceApp, host: str, port: int,
                 thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop,
                 server_task: "asyncio.Task") -> None:
        self.app = app
        self.host = host
        self.port = port
        self._thread = thread
        self._loop = loop
        self._server_task = server_task

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        """Stop accepting, drain in-flight requests, stop the loop."""

        async def shutdown() -> None:
            self._server_task.cancel()
            try:
                await self._server_task
            except asyncio.CancelledError:
                pass
            # In-flight connection handlers finish in milliseconds;
            # drain rather than cancel so none logs a late error.
            others = [
                task for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]
            if others:
                await asyncio.wait(others, timeout=5.0)
            asyncio.get_running_loop().stop()

        asyncio.run_coroutine_threadsafe(shutdown(), self._loop)
        self._thread.join(timeout=10.0)


def serve_in_thread(app: ServiceApp, host: str = "127.0.0.1",
                    port: int = 0) -> ServerHandle:
    """Start the HTTP server on a daemon thread; returns its handle."""
    ready = threading.Event()
    bound: list = []
    tasks: list = []
    loop = asyncio.new_event_loop()

    def runner() -> None:
        asyncio.set_event_loop(loop)
        tasks.append(
            loop.create_task(serve(app, host, port, ready=ready,
                                   bound=bound))
        )
        loop.run_forever()
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()

    thread = threading.Thread(target=runner, name="repro-serve",
                              daemon=True)
    thread.start()
    if not ready.wait(timeout=10.0):
        raise RuntimeError("HTTP server failed to start")
    actual_host, actual_port = bound[0]
    return ServerHandle(app, actual_host, actual_port, thread, loop,
                        tasks[0])
