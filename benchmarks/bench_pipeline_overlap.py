"""Barrier vs pipelined process backend (the PR's perf gate).

Times the disk-backed two-step workflow with the ``processes`` backend
in its two driver modes on the bench-smoke shape:

* **barrier** — ``pipeline=False, preaggregate=False``: Step 1 runs to
  completion, every spill group is merged, then a second worker pool
  runs Step 2 (the PR-2 behavior);
* **pipelined** — ``pipeline=True, preaggregate=True``: one pool runs
  both steps, the parent merger finalizes partitions onto the ready
  queue while workers are still partitioning/hashing, and each
  partition's kmer instances are grouped into one counter row per
  vertex before touching the shared tables.

Both graphs are verified bit-identical to a serial build, and the
report is written as ``BENCH_pipeline.json`` (CI uploads it as an
artifact and gates on it).

Standalone usage (what the ``bench-smoke`` CI job runs)::

    python benchmarks/bench_pipeline_overlap.py --smoke \
        --output BENCH_pipeline.json --check benchmarks/baselines.json

``--check`` compares the pipelined/barrier speedup against a
**core-count-aware** threshold::

    threshold = min_speedup        if cpu_count >= workers
    threshold = min_speedup_small  otherwise

On a multi-core runner the full ``min_speedup`` (1.25x) applies —
overlap plus pre-aggregation must beat the barrier by a quarter.  On a
constrained machine (e.g. a 1-core container) Step-1/Step-2 overlap
cannot buy wall-clock, so the gate falls back to ``min_speedup_small``,
which still demands that pre-aggregation and the saved second pool
spawn leave the pipelined driver no slower than the barrier one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

# Allow running the file directly from a source checkout.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

from repro.core.config import ParaHashConfig
from repro.core.parahash import ParaHash
from repro.dna.simulate import HUMAN_CHR14_LIKE

#: Worker count used for both drivers.
SMOKE_WORKERS = 4
FULL_WORKERS = 8

#: Dataset scale per mode (fraction of the chr14-like profile).
SMOKE_SCALE = 1.0
FULL_SCALE = 4.0


def _graphs_equal(a, b) -> bool:
    return (
        a.k == b.k
        and np.array_equal(a.vertices, b.vertices)
        and np.array_equal(a.counts, b.counts)
    )


def _time_build(config: ParaHashConfig, reads, repeats: int):
    """Best-of-``repeats`` disk-backed wall time; returns (seconds, graph)."""
    best = float("inf")
    graph = None
    for _ in range(repeats):
        with tempfile.TemporaryDirectory(prefix="bench-pipeline-") as work:
            t0 = time.perf_counter()
            result = ParaHash(config).build_graph(reads, workdir=work)
            best = min(best, time.perf_counter() - t0)
        graph = result.graph
    return best, graph


def measure(smoke: bool = True, repeats: int = 2,
            workers: int | None = None) -> dict:
    """Run both drivers and return the BENCH_pipeline.json payload."""
    scale = SMOKE_SCALE if smoke else FULL_SCALE
    workers = workers or (SMOKE_WORKERS if smoke else FULL_WORKERS)
    profile = HUMAN_CHR14_LIKE.scaled(scale)
    reads = profile.generate_reads()
    config = ParaHashConfig(
        k=27, p=11, n_partitions=32, n_input_pieces=8,
        backend="processes", n_workers=workers,
    )

    serial_graph = ParaHash(
        config.with_(backend="serial", pipeline=False)
    ).build_graph(reads).graph

    barrier_cfg = config.with_(pipeline=False, preaggregate=False)
    pipelined_cfg = config.with_(pipeline=True, preaggregate=True)
    barrier_seconds, barrier_graph = _time_build(barrier_cfg, reads, repeats)
    pipelined_seconds, pipelined_graph = _time_build(
        pipelined_cfg, reads, repeats
    )
    for label, graph in (("barrier", barrier_graph),
                         ("pipelined", pipelined_graph)):
        if not _graphs_equal(graph, serial_graph):
            raise AssertionError(
                f"{label} process backend produced a different graph "
                f"than the serial backend"
            )

    return {
        "benchmark": "pipeline_overlap",
        "mode": "smoke" if smoke else "full",
        "cpu_count": os.cpu_count() or 1,
        "dataset": {
            "profile": profile.name,
            "genome_size": profile.genome_size,
            "n_reads": reads.n_reads,
            "read_length": reads.read_length,
        },
        "config": {
            "k": config.k,
            "p": config.p,
            "n_partitions": config.n_partitions,
            "workers": workers,
        },
        "repeats": repeats,
        "barrier_seconds": round(barrier_seconds, 4),
        "pipelined_seconds": round(pipelined_seconds, 4),
        "speedup": round(barrier_seconds / pipelined_seconds, 4),
        "graphs_identical": True,
        "n_vertices": int(serial_graph.n_vertices),
    }


def check_against_baseline(report: dict, baseline_path: str | Path) -> list[str]:
    """Gate the report against ``benchmarks/baselines.json``.

    Returns a list of violations (empty = pass).  See the module
    docstring for the core-count-aware threshold formula.
    """
    baselines = json.loads(Path(baseline_path).read_text())
    spec = baselines["pipeline_overlap"]
    gate_workers = int(spec["workers"])
    cores = int(report.get("cpu_count") or 1)
    if cores >= gate_workers:
        threshold = float(spec["min_speedup"])
    else:
        threshold = float(spec["min_speedup_small"])
    violations: list[str] = []
    speedup = float(report["speedup"])
    if speedup < threshold:
        violations.append(
            f"pipelined/barrier speedup is {speedup:.2f}x, below the "
            f"threshold {threshold:.2f}x "
            f"(min_speedup={spec['min_speedup']}, "
            f"min_speedup_small={spec['min_speedup_small']}, "
            f"cpu_count={cores}, gate_workers={gate_workers})"
        )
    if not report.get("graphs_identical"):
        violations.append("pipelined graphs were not identical to serial")
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="barrier vs pipelined process-backend benchmark"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="small dataset + short sweep (the CI gate)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timing repeats (best-of)")
    parser.add_argument("--output", default="BENCH_pipeline.json",
                        help="where to write the JSON report")
    parser.add_argument("--check", metavar="BASELINES",
                        help="gate against a baselines.json; exit 1 on "
                             "regression")
    args = parser.parse_args(argv)

    report = measure(smoke=args.smoke, repeats=args.repeats)
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"barrier:   {report['barrier_seconds']:.3f}s")
    print(f"pipelined: {report['pipelined_seconds']:.3f}s "
          f"= {report['speedup']:.2f}x "
          f"({report['n_vertices']:,} vertices, "
          f"{report['cpu_count']} cores)")
    print(f"wrote {args.output}")

    if args.check:
        violations = check_against_baseline(report, args.check)
        if violations:
            for v in violations:
                print(f"REGRESSION: {v}", file=sys.stderr)
            return 1
        print("baseline check passed")
    return 0


# -- pytest mode (nightly benchmark suite) ---------------------------------------


def test_pipeline_overlap_speedup(benchmark):
    from conftest import emit_report, run_once

    report = run_once(benchmark, lambda: measure(smoke=True, repeats=1))
    emit_report(
        "pipeline_overlap",
        "Process backend: pipelined streaming vs barrier drivers",
        ["driver", "seconds"],
        [
            ["barrier", f"{report['barrier_seconds']:.3f}"],
            ["pipelined", f"{report['pipelined_seconds']:.3f}"],
        ],
        notes=(
            f"speedup {report['speedup']:.2f}x on "
            f"{report['cpu_count']} cores; graphs bit-identical to "
            f"serial."
        ),
    )
    assert report["graphs_identical"]
    # The full overlap dividend needs real cores to overlap on.
    if (os.cpu_count() or 1) >= 4:
        assert report["speedup"] >= 1.25


if __name__ == "__main__":
    sys.exit(main())
