"""The work units pool workers execute for the job service.

Service tasks are deliberately *file-based*: a task reads its inputs
from the job directory and writes its outputs back there (atomically,
temp + rename, where a torn file could be mistaken for a finished one).
No shared memory crosses the process boundary — a task description is
a plain picklable dict, and everything a worker produces is durable the
moment the task returns.  That is what makes the service's checkpoints
real: a SIGKILL between two tasks loses *nothing*, and a SIGKILL inside
a task loses only that task.

Task kinds
----------

``step1``  one input piece -> per-partition superkmer spill files.
           The worker streams the reads file one scanner batch at a
           time and keeps, from each batch, the rows
           ``split_bounds(n_pieces)[piece]``, so it never holds more
           than one batch of reads.  It spills them with
           :func:`repro.msp.partitioner.spill_reads`, the piece id as
           the writer id, so file names are deterministic and a re-run
           overwrites a dead attempt's partial spills.

``step2``  one partition's spill files -> one subgraph ``.phdbg`` file.
           Builds the partition's subgraph as its single owner
           (:func:`repro.core.subgraph.build_partition`) and saves it
           atomically.  ``delay`` sleeps first — the fault-injection
           window tests SIGKILL into.

The final subgraph union runs in the *parent* (a cheap, sequential file
fold); see :mod:`repro.service.runner`.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from ..core.subgraph import build_partition
from ..dna.io import iter_read_batches
from ..dna.reads import ReadBatch
from ..graph.serialize import save_graph
from ..msp.partitioner import spill_reads


class TaskFailed(RuntimeError):
    """A task raised; carries the task description for attribution."""


def atomic_replace(tmp: Path, final: Path) -> None:
    """Publish a finished artifact: readers see nothing or all of it."""
    os.replace(tmp, final)


def run_task(task: dict) -> dict:
    """Execute one task description; returns its result document."""
    kind = task.get("kind")
    if kind == "step1":
        return _run_step1(task)
    if kind == "step2":
        return _run_step2(task)
    raise TaskFailed(f"unknown task kind {kind!r}")


def _run_step1(task: dict) -> dict:
    piece, n_pieces = int(task["piece"]), int(task["n_pieces"])
    # split_bounds() returns fewer ranges than asked for a small batch,
    # so a piece may get no rows of it.
    rows = (
        ReadBatch(codes=batch.codes[lo:hi])
        for batch in iter_read_batches(task["input"])
        for lo, hi in batch.split_bounds(n_pieces)[piece:piece + 1]
    )
    report = spill_reads(rows, task["spill_dir"], piece, int(task["k"]),
                         int(task["p"]), int(task["n_partitions"]))
    return {
        "kind": "step1",
        "piece": piece,
        "n_reads": report.n_reads,
        "n_superkmers": report.n_superkmers,
        "spills": {part: str(path) for part, path in report.paths.items()},
    }


def _run_step2(task: dict) -> dict:
    delay = float(task.get("delay", 0.0))
    if delay > 0:
        # Fault-injection window: a SIGKILL landing here leaves the
        # partition unfinished (no manifest, no subgraph file) and a
        # resume re-runs exactly this partition.
        time.sleep(delay)
    partition = int(task["partition"])
    built = build_partition(task["partition_files"], int(task["k"]))
    out_path = Path(task["out_path"])
    tmp = out_path.with_name(out_path.name + ".tmp")
    n_bytes = save_graph(tmp, built.graph)
    atomic_replace(tmp, out_path)
    return {
        "kind": "step2",
        "partition": partition,
        "path": str(out_path),
        "bytes": int(n_bytes),
        "n_vertices": int(built.graph.n_vertices),
        "n_kmers": int(built.stats.ops),
    }
