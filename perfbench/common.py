"""Shared pieces of the reads-to-graph benchmark.

Workload definitions, input generation, the oracle digest, the
per-process resource probes and the small statistics helpers used by
both the benchmark driver (``run.py``) and the per-build child
(``child.py``).  Nothing here imports the program at module import
time: the child must be able to time the program's imports itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


@dataclass(frozen=True)
class Workload:
    """One benchmark input and the build configuration run on it."""

    name: str
    genome_size: int
    coverage: float
    mean_errors: float
    k: int
    backend: str
    read_length: int = 101
    p: int = 11
    n_partitions: int = 32
    n_workers: int = 0
    on_disk: bool = False

    def n_reads(self) -> int:
        return max(1, round(self.coverage * self.genome_size / self.read_length))


# Genome sizes are scaled down from the profiles they follow (chr14 to
# half of human_chr14_like, lowcov to a quarter of 400 kb) so that one
# measured run holds well over ten builds and the pure-Python k=45
# oracle stays near 10 s.  lowcov uses lambda=1.0 errors per read, not
# 2.0: at 2.0 the input has ~0.77 distinct vertices per instance, above
# the 0.714 the default table sizing provisions, so whether a
# partition's table overflows and regrows depends on the seed, and the
# build time with it (0-2 regrows, 0.8-3.1 s per build across ten
# seeds).  procs runs one worker: with two, a build kept both vCPUs of a
# 2-vCPU host busy, so its wall time also measured whatever else ran
# beside it (its CPU time stayed steady while its throughput spread by
# a quarter).  A serial chr14 workload was dropped so that the two left
# fit longer runs into the same total time; see NOISE.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("chr14_k27_procs", genome_size=50_000, coverage=42.0,
                 mean_errors=0.6, k=27, backend="processes", n_workers=1,
                 on_disk=True),
        Workload("lowcov_k45_serial", genome_size=100_000, coverage=8.0,
                 mean_errors=1.0, k=45, backend="serial"),
    )
}


def generate_reads(w: Workload, seed: int):
    """The workload's read set for ``seed`` (deterministic)."""
    from repro.dna.simulate import DatasetProfile

    profile = DatasetProfile(
        name=w.name, genome_size=w.genome_size, read_length=w.read_length,
        coverage=w.coverage, mean_errors=w.mean_errors, seed=seed,
    )
    return profile.generate_reads()


# -- oracle ------------------------------------------------------------------


def graph_digest(graph) -> str:
    """SHA-256 over a graph's k, vertex planes and counters.

    Works for both the one-word store (``vertices``) and the two-word
    store (``vertices_hi``/``vertices_lo``); counters are widened to
    uint64 so the digest does not depend on the table's counter dtype.
    """
    import numpy as np

    h = hashlib.sha256()
    h.update(f"k={graph.k};".encode())
    if hasattr(graph, "vertices_hi"):
        planes = (graph.vertices_hi, graph.vertices_lo)
    else:
        planes = (graph.vertices,)
    for plane in planes:
        h.update(np.ascontiguousarray(plane, dtype=np.uint64).tobytes())
    h.update(np.ascontiguousarray(graph.counts, dtype=np.uint64).tobytes())
    return h.hexdigest()


def reference_graph(reads, k: int):
    """Ground truth that bypasses MSP and every hash table."""
    if k <= 31:
        from repro.graph.build import build_reference_graph

        return build_reference_graph(reads, k)
    from repro.bigk.store import build_reference_bigk_slow

    return build_reference_bigk_slow(reads, k)


def load_built_graph(path: Path, k: int):
    if k <= 31:
        from repro.graph.serialize import load_graph

        return load_graph(path)
    from repro.bigk.serialize import load_big_graph

    return load_big_graph(path)


# -- resource probes ---------------------------------------------------------


def cpu_seconds() -> float:
    """User+sys CPU of this process plus every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_self() -> int:
    """Peak resident set of this process's address space, in bytes.

    Read from ``VmHWM``, which starts afresh at ``exec``.  ``ru_maxrss``
    does not: Linux carries the spawning parent's peak across ``exec``
    into the child, so it would report the benchmark's own memory.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


_PAGE = os.sysconf("SC_PAGE_SIZE")


def _children(pid: int) -> list[int]:
    """Direct children of ``pid``, from its threads' ``children`` files."""
    kids: list[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", "rb") as f:
                kids.extend(int(c) for c in f.read().split())
        except OSError:
            continue
    return kids


def tree_rss_bytes(root_pid: int) -> int:
    """Summed resident set of ``root_pid`` and all its descendants.

    Shared pages (forked copy-on-write memory, shm segments) count once
    per process that maps them, as RSS does.  The tree is walked through
    the ``children`` files, so a sample reads a handful of files however
    many other processes the host runs; the sampler then takes little
    CPU from the build it watches.
    """
    tree = {root_pid}
    frontier = [root_pid]
    while frontier:
        kids = [c for c in _children(frontier.pop()) if c not in tree]
        tree.update(kids)
        frontier.extend(kids)
    total = 0
    for pid in tree:
        try:
            with open(f"/proc/{pid}/statm", "rb") as f:
                total += int(f.read().split()[1]) * _PAGE
        except (OSError, IndexError, ValueError):
            continue
    return total


def host_snapshot() -> dict:
    """Steal seconds so far, 1-minute load average and CPU count."""
    steal = 0.0
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        steal = int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return {"steal_s": steal, "loadavg_1m": os.getloadavg()[0],
            "cpu_count": os.cpu_count(), "ref_kernel_s": reference_kernel_s()}


def reference_kernel_s() -> float:
    """Seconds for a fixed sort kernel: how fast the host is right now.

    A diagnostic only.  It moves with noisy neighbours and frequency
    changes that ``/proc/stat`` steal time does not show.
    """
    import numpy as np

    keys = np.random.default_rng(0).integers(0, 2**63, size=2_000_000,
                                             dtype=np.uint64)
    t0 = time.perf_counter()
    for _ in range(5):
        np.sort(keys)
    return time.perf_counter() - t0


# -- statistics --------------------------------------------------------------


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def iqr_share(values: list[float]) -> float:
    """(Q3 - Q1) / median, with the quartiles Python's ``quantiles`` gives."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload))
    tmp.replace(path)
