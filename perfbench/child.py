"""One build in a fresh interpreter: FASTQ file in, graph file out.

Usage (normally started by ``run.py``)::

    python3 perfbench/child.py '<json spec>'

Runs the calls ``repro build`` makes -- ``load_read_batch`` ->
``ParaHash.build_graph`` -> ``save_graph``/``save_big_graph`` -- with
the workload's configuration, and prints one JSON line: the monotonic
time at which set-up ended (imports done, build about to start), the
build's wall and CPU seconds, and this process's peak RSS.  Because
every build gets its own process, the peak RSS belongs to this build
alone.

With ``"trace": true`` the layer wrappers of :mod:`tracing` are
installed before set-up ends and the line also carries the per-layer
metrics, computed from the spans, the result's telemetry and (for the
processes backend) standalone calls into the parallel layer made after
the build.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from common import cpu_seconds, peak_rss_self


def _noop_worker(worker_id: int) -> int:
    return worker_id


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _parallel_standalone(result, reads, cfg) -> dict:
    """Time pool spawn and shm set-up at this build's sizes."""
    from repro.core.estimator import next_power_of_two
    from repro.parallel.pool import run_workers
    from repro.parallel.shm import create_table_segment, share_read_batch

    t0 = time.perf_counter()
    run_workers(_noop_worker, cfg.workers())
    pool_spawn_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    batch_seg = share_read_batch(reads)
    share_reads_s = time.perf_counter() - t0
    shm_bytes = batch_seg.spec.nbytes
    batch_seg.unlink()

    segments = []
    try:
        t0 = time.perf_counter()
        for sub in result.subgraphs:
            kmers = max(1, sub.total_kmer_instances())
            capacity = next_power_of_two(max(2, cfg.sizing.capacity_for(kmers)))
            segments.append(create_table_segment(capacity, cfg.k))
        shm_create_s = time.perf_counter() - t0
        shm_bytes += sum(seg.spec.nbytes for seg in segments)
    finally:
        for seg in segments:
            seg.unlink()
    return {
        "parallel.pool_spawn_s": pool_spawn_s,
        "parallel.shm_create_s": shm_create_s,
        "parallel.share_reads_s": share_reads_s,
        "parallel.shm_bytes": shm_bytes,
    }


def layer_metrics(summary: dict, result, reads, cfg, wall_s: float,
                  input_bytes: int, graph_bytes: int) -> dict:
    """Per-layer metrics of one traced build."""
    import numpy as np

    by = summary["by_name"]
    layer = summary["by_layer"]

    def spent(*names: str) -> float:
        return sum(by.get(name, 0.0) for name in names)

    stats = result.hash_stats
    graph = result.graph
    part_kmers = [sub.total_kmer_instances() for sub in result.subgraphs]
    occupied = sum(t[0] for t in summary["tables"])
    capacity = sum(t[1] for t in summary["tables"])
    parallel = cfg.backend == "processes"
    items = [r.items_processed for r in result.worker_records.values()]
    metrics = {
        "dna.parse_s": spent("io.load_read_batch"),
        "dna.input_bytes": input_bytes,
        "msp.partition_s": layer["msp"],
        "msp.superkmers": result.n_superkmers,
        "msp.partition_bytes": result.partition_bytes,
        "msp.partition_skew": _ratio(max(part_kmers, default=0),
                                     float(np.mean(part_kmers)) if part_kmers else 0),
        "step2.expand_s": spent("subgraph.block_observations",
                                "construct.block_observations_2w"),
        "step2.preaggregate_s": spent("subgraph.preaggregate_observations",
                                      "construct.preaggregate_observations_2w"),
        "step2.observations": stats.ops,
        "step2.collapse_ratio": _ratio(int(np.count_nonzero(graph.counts)), stats.ops),
        "table.insert_s": spent("ConcurrentHashTable.insert_batch",
                                "TwoWordHashTable.insert_batch"),
        "table.to_graph_s": spent("ConcurrentHashTable.to_graph",
                                  "TwoWordHashTable.to_graph"),
        "table.probes_per_op": _ratio(stats.probes, stats.ops),
        "table.load_factor": _ratio(occupied, capacity),
        "table.regrows": sum(n for key, n in summary["errors"].items()
                             if key.endswith(".insert_batch:TableFullError")),
        "table.bytes": sum(t[2] for t in summary["tables"]),
        "graph.merge_s": spent("merge.merge_disjoint", "construct.merge_bigk_disjoint"),
        "graph.serialize_s": spent("serialize.save_graph", "serialize.save_big_graph"),
        "graph.vertices": graph.n_vertices,
        "graph.bytes": graph_bytes,
        "parallel.step1_s": result.timings.msp_seconds if parallel else 0.0,
        "parallel.step2_s": result.timings.hashing_seconds if parallel else 0.0,
        "parallel.io_s": result.timings.io_seconds if parallel else 0.0,
        "parallel.worker_skew": _ratio(max(items, default=0),
                                       float(np.mean(items)) if items else 0),
        "parallel.pool_spawn_s": 0.0,
        "parallel.shm_create_s": 0.0,
        "parallel.share_reads_s": 0.0,
        "parallel.shm_bytes": 0,
    }
    for name, seconds in layer.items():
        metrics[f"self.{name}_s"] = seconds
    metrics["traced_wall_s"] = wall_s
    metrics["unaccounted_s"] = wall_s - sum(layer.values())
    if parallel:
        metrics.update(_parallel_standalone(result, reads, cfg))
    return metrics


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import repro.bigk.serialize
    import repro.dna.io
    import repro.graph.serialize
    from repro.core.config import ParaHashConfig
    from repro.core.parahash import ParaHash

    cfg = ParaHashConfig(k=spec["k"], p=spec["p"], n_partitions=spec["n_partitions"],
                         backend=spec["backend"], n_workers=spec["n_workers"])
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    t_ready = time.monotonic()

    # Looked up through the modules at call time, so that the tracer's
    # wrappers (installed above) are the ones called.
    if cfg.k > 31:
        save = repro.bigk.serialize.save_big_graph
    else:
        save = repro.graph.serialize.save_graph
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    reads = repro.dna.io.load_read_batch(spec["input"])
    result = ParaHash(cfg).build_graph(reads, workdir=spec["workdir"])
    graph_bytes = save(spec["output"], result.graph)
    wall_s = time.perf_counter() - t0
    cpu_s = cpu_seconds() - cpu0

    out = {
        "t_ready": t_ready,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "hwm_self": peak_rss_self(),
        "n_kmers": result.n_kmers,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(Path(spec["spans"]))
        out["layers"] = layer_metrics(
            tracer.summary(), result, reads, cfg, wall_s,
            os.path.getsize(spec["input"]), graph_bytes,
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
