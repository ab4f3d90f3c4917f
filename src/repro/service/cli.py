"""Service subcommands: ``serve``, ``submit``, ``jobs``, ``resume``.

``serve`` runs the daemon (pool + HTTP API) in the foreground.
``submit`` talks to a running daemon over HTTP (stdlib ``urllib``).
``jobs`` prefers the daemon when ``--url`` is given, else reads job
directories straight off disk — status is durable, so listing works
against a dead service too.  ``resume`` re-runs a killed/failed job's
unfinished stages inline (no daemon required), which is the recovery
path after the machine itself went down.
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.error
import urllib.request
from pathlib import Path

from ..util.tables import render_table


def add_service_commands(sub) -> None:
    """Register the service subcommands on the main repro parser."""
    p = sub.add_parser("serve", help="run the job service daemon (HTTP API)")
    p.add_argument("--root", required=True,
                   help="service state directory (jobs live under it)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8541)
    p.add_argument("--workers", type=int, default=2,
                   help="pool worker processes shared by all jobs")
    p.add_argument("--lanes", type=int, default=4,
                   help="max concurrently running jobs")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit", help="submit a build job to a running daemon")
    p.add_argument("--url", default="http://127.0.0.1:8541",
                   help="daemon base URL")
    p.add_argument("--input", required=True, help="FASTA/FASTQ reads")
    p.add_argument("--k", type=int, default=15)
    p.add_argument("--p", type=int, default=4, help="minimizer length")
    p.add_argument("--partitions", type=int, default=8)
    p.add_argument("--step1-tasks", type=int, default=2)
    p.add_argument("--weight", type=int, default=1,
                   help="claim weight (relative share of the pool)")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("jobs", help="list jobs (from a daemon or from disk)")
    p.add_argument("--root", help="service state directory (offline listing)")
    p.add_argument("--url", help="daemon base URL (live listing)")
    p.set_defaults(func=cmd_jobs)

    p = sub.add_parser("resume",
                       help="re-run a killed/failed job's unfinished stages")
    p.add_argument("job_id")
    p.add_argument("--root", required=True,
                   help="service state directory the job lives under")
    p.add_argument("--workers", type=int, default=0,
                   help="run stage tasks across this many pool processes "
                        "(0 = inline, single process)")
    p.set_defaults(func=cmd_resume)


def cmd_serve(args: argparse.Namespace) -> int:
    from .jobstore import JobStore
    from .pool import ServicePool
    from .server import ServiceApp, serve_in_thread

    store = JobStore(args.root)
    with ServicePool(n_workers=args.workers, n_lanes=args.lanes) as pool:
        app = ServiceApp(store, pool)
        handle = serve_in_thread(app, host=args.host, port=args.port)
        print(f"serving jobs from {store.root} on {handle.url} "
              f"({args.workers} workers, {args.lanes} lanes); Ctrl-C stops")
        try:
            handle._thread.join()
        except KeyboardInterrupt:
            print("\nshutting down")
            handle.stop()
    return 0


def _http(url: str, method: str = "GET", doc: dict | None = None) -> dict:
    data = json.dumps(doc).encode() if doc is not None else None
    req = urllib.request.Request(url, data=data, method=method,
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        try:
            detail = json.loads(exc.read()).get("error", "")
        except Exception:
            detail = ""
        raise SystemExit(f"error: {exc.code} {exc.reason}"
                         + (f": {detail}" if detail else ""))
    except urllib.error.URLError as exc:
        raise SystemExit(f"error: cannot reach {url}: {exc.reason}")


def cmd_submit(args: argparse.Namespace) -> int:
    spec = {
        "input": str(Path(args.input).resolve()),
        "k": args.k, "p": args.p,
        "n_partitions": args.partitions,
        "n_step1_tasks": args.step1_tasks,
        "claim_weight": args.weight,
    }
    reply = _http(f"{args.url.rstrip('/')}/jobs", "POST", spec)
    print(reply["id"])
    return 0


def _job_rows(docs: list[dict]) -> list[list[str]]:
    rows = []
    for doc in docs:
        spec = doc.get("spec", {})
        rows.append([
            doc.get("id", "?"),
            doc.get("status", "?"),
            str(spec.get("k", "?")),
            str(spec.get("n_partitions", "?")),
            str(doc.get("claim_weight", spec.get("claim_weight", "?"))),
            doc.get("stage", "-") or "-",
        ])
    return rows


def cmd_jobs(args: argparse.Namespace) -> int:
    if args.url:
        docs = _http(f"{args.url.rstrip('/')}/jobs")["jobs"]
    elif args.root:
        from .jobstore import JobStore

        docs = [r.describe() for r in JobStore(args.root).list_jobs()]
    else:
        print("error: pass --url (live) or --root (offline)",
              file=sys.stderr)
        return 2
    if not docs:
        print("no jobs")
        return 0
    print(render_table(
        ["job", "status", "k", "parts", "weight", "stage"],
        _job_rows(docs),
    ))
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    from .jobstore import JobError, JobStore
    from .pool import ServicePool
    from .runner import JobFailed, run_job

    store = JobStore(args.root)
    try:
        record = store.load(args.job_id)
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if record.status == "done":
        print(f"{record.job_id}: already done -> {record.graph_path}")
        return 0
    print(f"resuming {record.job_id} (was: {record.status})")
    try:
        if args.workers > 0:
            with ServicePool(n_workers=args.workers, n_lanes=1) as pool:
                session = pool.open_session(
                    claim_weight=record.spec.claim_weight)
                try:
                    path = run_job(record, session)
                finally:
                    pool.release(session)
        else:
            path = run_job(record)
    except JobFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    status = record.read_status()
    print(f"{record.job_id}: done -> {path} "
          f"(stages re-run where stale; "
          f"{status.get('step2_skipped', 0)} partition(s) skipped)")
    return 0
