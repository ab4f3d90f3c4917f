"""Reads-to-graph benchmark: throughput, CPU, memory and set-up time.

Run from the repository root::

    python3 perfbench/run.py --workload chr14_k27_procs --seed 1 --seconds 45 --trace 0

The workload's reads are generated from ``--seed`` and written to a
FASTQ file; the graph the program must build is computed once by an
independent reference construction and cached as a digest.  Builds then
run in a closed loop -- one at a time, each in a fresh interpreter
(``child.py``) -- until ``--seconds`` have passed.  Every build is
checked: it fails if it raises, if its graph file differs from the
oracle, or if it leaves a new ``/dev/shm`` entry behind.

With ``--trace 0`` the last line reports the end-to-end metrics as
medians over the measured builds; with ``--trace 1`` untraced and
traced builds alternate and it reports the per-layer metrics of the
median traced build.  Host diagnostics (steal time, load average, CPU
count) go on the line before.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from common import (
    SRC,
    WORK,
    WORKLOADS,
    Workload,
    generate_reads,
    graph_digest,
    host_snapshot,
    iqr_share,
    load_built_graph,
    median,
    reference_graph,
    shm_entries,
    tree_rss_bytes,
    write_json,
)

CHILD = Path(__file__).resolve().parent / "child.py"
#: Builds measured per run at the least, however long they take.
MIN_BUILDS = 3
#: A build that has not ended after this long counts as failed.
BUILD_TIMEOUT_S = 120.0
#: Interval between RSS samples of a multi-process build's process tree.
RSS_SAMPLE_S = 0.05

END_TO_END_UNITS = {"kmers_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}


def prepare(w: Workload, seed: int) -> dict:
    """Write the workload's FASTQ and cache its oracle digest.

    Both are kept under ``.perfbench_work`` keyed by (workload, seed), so
    a repeated run reuses them; neither is part of any timing.
    """
    from repro.dna.io import save_read_batch

    base = WORK / f"{w.name}-seed{seed}"
    fastq = base / "reads.fastq"
    meta_path = base / "oracle.json"
    if meta_path.exists() and fastq.exists():
        meta = json.loads(meta_path.read_text())
        if meta.get("workload") == asdict(w) and meta.get("seed") == seed:
            return meta
    base.mkdir(parents=True, exist_ok=True)
    reads = generate_reads(w, seed)
    save_read_batch(fastq, reads)
    oracle = reference_graph(reads, w.k)
    meta = {
        "workload": asdict(w),
        "seed": seed,
        "fastq": str(fastq),
        "digest": graph_digest(oracle),
        "n_vertices": oracle.n_vertices,
        "n_kmers": int(oracle.total_kmer_instances()),
    }
    write_json(meta_path, meta)
    return meta


def run_build(w: Workload, meta: dict, trace: bool, tag: str) -> dict:
    """One checked build in a fresh interpreter.

    Returns the child's report plus ``setup_s``, ``peak_rss`` and the
    failure reason (``None`` when the build was correct).
    """
    build_dir = WORK / "builds" / tag
    shutil.rmtree(build_dir, ignore_errors=True)
    build_dir.mkdir(parents=True)
    graph_path = build_dir / "graph.phdbg"
    spec = {
        "src": str(SRC), "input": meta["fastq"], "output": str(graph_path),
        "workdir": str(build_dir / "parts") if w.on_disk else None,
        "k": w.k, "p": w.p, "n_partitions": w.n_partitions,
        "backend": w.backend, "n_workers": w.n_workers, "trace": trace,
        "spans": str(WORK / "traces" / f"{w.name}-seed{meta['seed']}.json"),
    }
    shm_before = shm_entries()
    stdout_path = build_dir / "stdout"
    stderr_path = build_dir / "stderr"
    sample_tree = w.backend == "processes"
    peak_tree = 0
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(spec)],
                                stdout=out, stderr=err)
        deadline = t_spawn + BUILD_TIMEOUT_S
        try:
            while True:
                try:
                    proc.wait(timeout=RSS_SAMPLE_S if sample_tree else
                              max(0.01, deadline - time.monotonic()))
                    break
                except subprocess.TimeoutExpired:
                    if time.monotonic() > deadline:
                        raise
                    if sample_tree:
                        peak_tree = max(peak_tree, tree_rss_bytes(proc.pid))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    report: dict = {"failure": None}
    leaked = shm_entries() - shm_before
    if proc.returncode != 0:
        tail = stderr_path.read_text(errors="replace").strip().splitlines()[-3:]
        report["failure"] = f"exit {proc.returncode}: {' | '.join(tail)}"
    else:
        report.update(json.loads(stdout_path.read_text().strip().splitlines()[-1]))
        report["setup_s"] = report["t_ready"] - t_spawn
        report["peak_rss"] = max(peak_tree, report["hwm_self"])
        digest = graph_digest(load_built_graph(graph_path, w.k))
        if digest != meta["digest"]:
            report["failure"] = "graph differs from the oracle"
        elif report["n_kmers"] != meta["n_kmers"]:
            report["failure"] = "k-mer count differs from the oracle"
    if leaked and report["failure"] is None:
        report["failure"] = f"leaked /dev/shm entries {sorted(leaked)}"
    shutil.rmtree(build_dir, ignore_errors=True)
    return report


class Loop:
    """Closed-loop driver: counts every build, keeps the correct ones."""

    def __init__(self, w: Workload, meta: dict) -> None:
        self.w = w
        self.meta = meta
        self.attempted = 0
        self.failures: list[str] = []

    def build(self, trace: bool = False) -> dict | None:
        self.attempted += 1
        report = run_build(self.w, self.meta, trace, f"{self.w.name}-{os.getpid()}")
        if report["failure"] is not None:
            self.failures.append(report["failure"])
            print(f"build {self.attempted} failed: {report['failure']}",
                  file=sys.stderr)
            return None
        print(f"build {self.attempted}{' traced' if trace else ''}: "
              f"wall {report['wall_s']:.3f}s cpu {report['cpu_s']:.3f}s "
              f"rss {report['peak_rss'] / 2**20:.1f}MB "
              f"setup {report['setup_s']:.3f}s", file=sys.stderr)
        return report


def end_to_end(loop: Loop, seconds: float) -> dict:
    """Medians of the four end-to-end metrics over the measured builds."""
    loop.build()  # warm-up: checked and counted, not measured
    builds: list[dict] = []
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or len(builds) < MIN_BUILDS:
        report = loop.build()
        if report is not None:
            builds.append(report)
        if loop.attempted > 10 * MIN_BUILDS and not builds:
            break
    if not builds:
        return {}
    n_kmers = loop.meta["n_kmers"]
    values = {
        "kmers_per_s": [n_kmers / b["wall_s"] for b in builds],
        "cpu_s": [b["cpu_s"] for b in builds],
        "peak_rss_mb": [b["peak_rss"] / 2**20 for b in builds],
        "setup_s": [b["setup_s"] for b in builds],
    }
    for name, series in values.items():
        print(f"{name}: median {median(series):.6g}, iqr/median "
              f"{iqr_share(series):.3f}, n={len(series)}", file=sys.stderr)
    return {name: {"value": median(series), "unit": END_TO_END_UNITS[name]}
            for name, series in values.items()}


def layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("_skew", "_ratio", "_per_op", "load_factor")):
        return "ratio"
    return "count"


def per_layer(loop: Loop, seconds: float) -> tuple[dict, bool]:
    """Per-layer metrics of the median traced build.

    Untraced and traced builds alternate, so ``trace_overhead_s`` compares
    builds made under the same host conditions.  Returns the metrics and
    whether every traced build's layer self times plus ``unaccounted_s``
    summed to its wall time.
    """
    loop.build()  # warm-up
    plain: list[float] = []
    traced: list[dict] = []
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or len(traced) < MIN_BUILDS:
        report = loop.build()
        if report is not None:
            plain.append(report["wall_s"])
        report = loop.build(trace=True)
        if report is not None:
            traced.append(report["layers"])
        if loop.attempted > 20 * MIN_BUILDS and not traced:
            break
    if not traced or not plain:
        return {}, False
    consistent = True
    for layers in traced:
        total = sum(v for k, v in layers.items() if k.startswith("self."))
        total += layers["unaccounted_s"]
        if abs(total - layers["traced_wall_s"]) > 1e-6 or layers["unaccounted_s"] < -1e-6:
            consistent = False
    traced.sort(key=lambda layers: layers["traced_wall_s"])
    chosen = dict(traced[(len(traced) - 1) // 2])
    chosen["trace_overhead_s"] = chosen["traced_wall_s"] - median(plain)
    return ({name: {"value": value, "unit": layer_units(name)}
             for name, value in chosen.items()}, consistent)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source ({SRC / 'repro'}) is missing; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    w = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    meta = prepare(w, args.seed)
    print(f"inputs ready in {time.perf_counter() - t0:.1f}s: "
          f"{meta['n_kmers']} k-mer instances, {meta['n_vertices']} vertices",
          file=sys.stderr)

    loop = Loop(w, meta)
    host_before = host_snapshot()
    if args.trace:
        metrics, consistent = per_layer(loop, args.seconds)
    else:
        metrics, consistent = end_to_end(loop, args.seconds), True
    host_after = host_snapshot()
    shutil.rmtree(WORK / "builds", ignore_errors=True)
    if not metrics:
        print("error: no build succeeded: " + "; ".join(loop.failures[:3]),
              file=sys.stderr)
        return 1
    diagnostics = {
        "steal_s": round(host_after["steal_s"] - host_before["steal_s"], 3),
        "loadavg_1m": host_before["loadavg_1m"],
        "cpu_count": host_before["cpu_count"],
        "ref_kernel_s": [round(host_before["ref_kernel_s"], 4),
                         round(host_after["ref_kernel_s"], 4)],
        "consistent_trace": consistent,
    }
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": not loop.failures and consistent,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
