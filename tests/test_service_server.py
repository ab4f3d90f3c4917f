"""End-to-end tests for the asyncio HTTP front end (repro serve)."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service.jobstore import JobStore
from repro.service.pool import ServicePool
from repro.service.server import ServiceApp, serve_in_thread


@pytest.fixture
def service(tmp_path):
    pool = ServicePool(n_workers=2, n_lanes=2).start()
    app = ServiceApp(JobStore(tmp_path / "jobs"), pool,
                     lane_timeout=120.0, stall_timeout=120.0)
    handle = serve_in_thread(app)
    yield handle.url, app
    handle.stop()
    pool.close()


def http(method: str, url: str, doc: dict | None = None):
    """One request; returns (status, parsed-or-raw body)."""
    body = json.dumps(doc).encode() if doc is not None else None
    request = urllib.request.Request(url, data=body, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            payload = reply.read()
            status = reply.status
            ctype = reply.headers.get("Content-Type", "")
    except urllib.error.HTTPError as exc:
        payload = exc.read()
        status = exc.code
        ctype = exc.headers.get("Content-Type", "")
    if ctype == "application/json":
        return status, json.loads(payload)
    return status, payload


def spec_doc(reads_file, **over) -> dict:
    doc = {"input": str(reads_file), "k": 15, "p": 4,
           "n_partitions": 4, "n_step1_tasks": 1}
    doc.update(over)
    return doc


def wait_status(url: str, job_id: str, want: tuple,
                timeout: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, doc = http("GET", f"{url}/jobs/{job_id}")
        assert status == 200
        if doc["status"] in want:
            return doc
        time.sleep(0.05)
    pytest.fail(f"job {job_id} never reached {want}")


class TestEndpoints:
    def test_healthz(self, service):
        url, _ = service
        status, doc = http("GET", f"{url}/healthz")
        assert status == 200
        assert doc["ok"] is True
        assert doc["pool"]["n_workers"] == 2

    def test_submit_watch_fetch(self, service, reads_file):
        url, _ = service
        status, doc = http("POST", f"{url}/jobs", spec_doc(reads_file))
        assert status == 201
        job_id = doc["id"]

        status, listing = http("GET", f"{url}/jobs")
        assert status == 200
        assert job_id in [j["id"] for j in listing["jobs"]]

        wait_status(url, job_id, ("done",))
        status, payload = http("GET", f"{url}/jobs/{job_id}/artifact")
        assert status == 200
        assert payload[:4] == b"PHDB"

    def test_artifact_before_done_conflicts(self, service, reads_file):
        url, _ = service
        _, doc = http("POST", f"{url}/jobs",
                      spec_doc(reads_file, step2_delay=0.5))
        job_id = doc["id"]
        status, reply = http("GET", f"{url}/jobs/{job_id}/artifact")
        assert status == 409
        assert "no finished artifact" in reply["error"]
        http("POST", f"{url}/jobs/{job_id}/cancel")
        wait_status(url, job_id, ("cancelled", "done"))

    def test_unknown_job_404(self, service):
        url, _ = service
        status, doc = http("GET", f"{url}/jobs/19700101-000000-0")
        assert status == 404
        assert "no such job" in doc["error"]

    def test_bad_spec_400(self, service):
        url, _ = service
        status, doc = http("POST", f"{url}/jobs", {"k": 15})
        assert status == 400
        assert "input" in doc["error"]

    def test_minimizer_longer_than_a_word_400(self, service, reads_file):
        # Rejected at submit, not inside the job's Step-1 task.
        url, _ = service
        status, doc = http("POST", f"{url}/jobs",
                           spec_doc(reads_file, k=45, p=40))
        assert status == 400
        assert "p must be <= 31" in doc["error"]

    def test_unknown_route_404(self, service):
        url, _ = service
        status, _ = http("GET", f"{url}/frobnicate")
        assert status == 404

    def test_cancel_then_resume(self, service, reads_file):
        url, _ = service
        _, doc = http("POST", f"{url}/jobs",
                      spec_doc(reads_file, step2_delay=0.4))
        job_id = doc["id"]
        status, doc = http("POST", f"{url}/jobs/{job_id}/cancel")
        assert status == 200
        wait_status(url, job_id, ("cancelled",))

        status, doc = http("POST", f"{url}/jobs/{job_id}/resume")
        assert status == 202
        final = wait_status(url, job_id, ("done",))
        assert final["status"] == "done"

    def test_resume_active_job_rejected(self, service, reads_file):
        url, _ = service
        _, doc = http("POST", f"{url}/jobs",
                      spec_doc(reads_file, step2_delay=0.3))
        job_id = doc["id"]
        status, reply = http("POST", f"{url}/jobs/{job_id}/resume")
        assert status == 400
        assert "already active" in reply["error"]
        http("POST", f"{url}/jobs/{job_id}/cancel")
        wait_status(url, job_id, ("cancelled", "done"))


def test_resume_waits_for_cancelled_job_to_leave(tmp_path, reads_file,
                                                 monkeypatch):
    """A resume landing after the job thread stamped ``cancelled`` but
    before it left the active set waits for it instead of answering
    "already active".  The job thread is held in that window (inside
    its lane release) until the resume is under way."""
    from repro.service.jobstore import JobSpec

    pool = ServicePool(n_workers=2, n_lanes=2).start()
    app = ServiceApp(JobStore(tmp_path / "jobs"), pool,
                     lane_timeout=120.0, stall_timeout=120.0)
    in_window = threading.Event()
    gate = threading.Event()
    real_release = pool.release

    def held_release(session):
        in_window.set()
        assert gate.wait(60.0)
        real_release(session)

    monkeypatch.setattr(pool, "release", held_release)
    try:
        job_id = app.submit(JobSpec.from_dict(
            spec_doc(reads_file, step2_delay=2.0)))
        app.cancel(job_id)
        assert in_window.wait(60.0)
        record = app.store.load(job_id)
        assert record.status == "cancelled"
        assert app.describe_job(job_id)["active"]
        threading.Timer(0.2, gate.set).start()
        app.resume(job_id)
        deadline = time.monotonic() + 120.0
        while record.status != "done" and time.monotonic() < deadline:
            time.sleep(0.05)
        assert record.status == "done"
    finally:
        gate.set()
        pool.close()


class TestMultiTenancy:
    def test_two_weighted_jobs_share_the_pool(self, service, reads_file):
        """Both jobs run concurrently; weights visible via the API."""
        url, _ = service
        _, heavy = http("POST", f"{url}/jobs",
                        spec_doc(reads_file, claim_weight=2,
                                 step2_delay=0.2, n_partitions=6))
        _, light = http("POST", f"{url}/jobs",
                        spec_doc(reads_file, claim_weight=1,
                                 step2_delay=0.2, n_partitions=6))
        lanes = {}
        deadline = time.monotonic() + 60.0
        while len(lanes) < 2 and time.monotonic() < deadline:
            for job_id in (heavy["id"], light["id"]):
                _, doc = http("GET", f"{url}/jobs/{job_id}")
                if doc.get("active") and "lane" in doc:
                    lanes[job_id] = doc["lane"]
            time.sleep(0.02)
        assert lanes[heavy["id"]]["claim_weight"] == 2
        assert lanes[light["id"]]["claim_weight"] == 1
        assert lanes[heavy["id"]]["lane"] != lanes[light["id"]]["lane"]
        for job_id in (heavy["id"], light["id"]):
            wait_status(url, job_id, ("done",))
