"""Calibrated device cost models (the GPU/CPU substitution substrate).

The paper's testbed is two 10-core Xeon E5-2660 CPUs and two Tesla K40m
GPUs.  Neither is available here, so devices are modeled: each device
converts *measured algorithm work* (bases scanned in MSP, hash-table
operations and probe counts in Step 2 — all produced by really running
the kernels in :mod:`repro.core`) into simulated seconds through a
small set of rate constants.

The calibration constants encode the paper's observed ratios rather
than absolute hardware speeds:

* 20 CPU threads hash about as fast as one K40 GPU ("the hashing
  performance on the 20-core CPU is comparable to ... a Nvidia K40",
  §V-C1) — enforced by matching effective op rates;
* the GPU is several times faster than the CPU at the regular,
  bandwidth-bound MSP scan (§III-D offloads minimizer computation);
* per-op hashing cost grows once a table outgrows the device's fast
  memory — the locality effect that makes hashing faster with more,
  smaller partitions (Fig 7) — and the GPU additionally pays a warp
  divergence penalty proportional to probe-length variance (§III-D);
* GPU work pays PCIe transfer at a fixed bandwidth, not overlapped
  with device compute (the paper does not overlap them, §IV).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.subgraph import HashStats

#: Bytes per hash-table entry slot (state + key + 9 counters), used to
#: reason about working-set size.
ENTRY_BYTES = 45


@dataclass(frozen=True)
class MspWork:
    """Measured Step 1 work for one input piece."""

    n_reads: int
    n_bases: int
    n_superkmers: int
    in_bytes: int
    out_bytes: int


@dataclass(frozen=True)
class HashWork:
    """Measured Step 2 work for one superkmer partition."""

    n_kmers: int
    ops: int
    probes: int
    inserts: int
    table_bytes: int
    in_bytes: int
    out_bytes: int

    @classmethod
    def from_stats(cls, stats: HashStats, n_kmers: int, table_bytes: int,
                   in_bytes: int, out_bytes: int) -> "HashWork":
        return cls(
            n_kmers=n_kmers,
            ops=stats.ops,
            probes=stats.probes,
            inserts=stats.inserts,
            table_bytes=table_bytes,
            in_bytes=in_bytes,
            out_bytes=out_bytes,
        )


class Device:
    """Base interface: convert measured work into simulated seconds."""

    name: str

    def msp_seconds(self, work: MspWork) -> float:
        raise NotImplementedError

    def hash_seconds(self, work: HashWork) -> float:
        raise NotImplementedError

    def transfer_seconds(self, work: MspWork | HashWork) -> float:
        """Host<->device transfer cost (zero for host processors)."""
        return 0.0

    def fits(self, work: MspWork | HashWork) -> bool:
        """Whether the work item's memory footprint fits this device.

        The paper's K40m has 12 GB of device memory; a partition whose
        hash table exceeds it cannot be offloaded, which is one of the
        reasons the partition count bounds the per-partition table size
        (§V-B2).  Host processors always fit (host memory holds the data
        anyway).
        """
        return True

    def total_seconds(self, work: MspWork | HashWork) -> float:
        if isinstance(work, MspWork):
            return self.msp_seconds(work) + self.transfer_seconds(work)
        return self.hash_seconds(work) + self.transfer_seconds(work)


def locality_factor(table_bytes: int, fast_bytes: int, miss_penalty: float) -> float:
    """Per-op slowdown once the table exceeds the fast-memory size.

    Fraction of random accesses that miss fast memory is approximately
    ``1 - fast/table`` for a uniformly accessed table; each miss costs
    ``miss_penalty`` times a hit.
    """
    if table_bytes <= fast_bytes:
        return 1.0
    miss_fraction = 1.0 - fast_bytes / table_bytes
    return 1.0 + miss_penalty * miss_fraction


@dataclass(frozen=True)
class CpuDevice(Device):
    """A multi-core CPU.

    ``base_ops_per_sec`` is the per-thread hash-op throughput on an
    in-cache table; MSP scanning is expressed in bases/second per
    thread.  Parallel efficiency < 1 models synchronization overhead
    (the paper measures a log-log scaling slope of about -1, i.e. high
    efficiency).
    """

    name: str = "cpu"
    n_threads: int = 20
    hash_ops_per_sec: float = 6.0e6  # per thread, in-cache
    msp_bases_per_sec: float = 2.5e6  # per thread; O(LKP) scan is heavy
    cache_bytes: int = 8 << 20  # effective per-socket LLC working set
    miss_penalty: float = 2.2
    parallel_efficiency: float = 0.95
    io_share: float = 0.0  # fraction of threads stolen by IO parsing

    def _effective_threads(self) -> float:
        usable = self.n_threads * (1.0 - self.io_share)
        return max(1.0, usable * self.parallel_efficiency)

    def msp_seconds(self, work: MspWork) -> float:
        return work.n_bases / (self.msp_bases_per_sec * self._effective_threads())

    def hash_seconds(self, work: HashWork) -> float:
        factor = locality_factor(work.table_bytes, self.cache_bytes, self.miss_penalty)
        ops = work.ops + work.probes
        return ops * factor / (self.hash_ops_per_sec * self._effective_threads())

    def hash_seconds_with_threads(self, work: HashWork, n_threads: int,
                                  contention_ops: int = 0) -> float:
        """Hashing time at an explicit thread count (the Fig 9 sweep).

        ``contention_ops`` adds serialized work for lock waits; with
        state-transfer locking it is one event per insert, which is why
        scaling stays near-linear.
        """
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        factor = locality_factor(work.table_bytes, self.cache_bytes, self.miss_penalty)
        ops = work.ops + work.probes
        eff = max(1.0, n_threads * self.parallel_efficiency)
        parallel = ops * factor / (self.hash_ops_per_sec * eff)
        serial = contention_ops * factor / self.hash_ops_per_sec
        return parallel + serial * (1.0 - 1.0 / n_threads)


@dataclass(frozen=True)
class GpuDevice(Device):
    """A many-core GPU with PCIe-attached memory.

    ``hash_ops_per_sec`` is the aggregate device throughput on an
    in-fast-memory table.  Divergence: threads of a warp walking
    different probe lengths serialize, modeled as a constant factor on
    probe work (probe lengths are data-dependent and irregular).
    """

    name: str = "gpu0"
    n_sms: int = 15
    hash_ops_per_sec: float = 1.9e8  # aggregate, in fast memory
    msp_bases_per_sec: float = 6.0e7  # aggregate; regular, coalesced scan
    fast_bytes: int = 12 << 20  # L2 + shared memory working set
    miss_penalty: float = 1.4  # high-bandwidth DRAM softens misses
    divergence_factor: float = 1.6  # warp serialization on probes
    pcie_bytes_per_sec: float = 10.0e9
    memory_bytes: int = 12 << 30  # K40m device memory

    def fits(self, work: MspWork | HashWork) -> bool:
        if isinstance(work, HashWork):
            return work.table_bytes + work.in_bytes <= self.memory_bytes
        return work.in_bytes + work.out_bytes <= self.memory_bytes

    def msp_seconds(self, work: MspWork) -> float:
        return work.n_bases / self.msp_bases_per_sec

    def hash_seconds(self, work: HashWork) -> float:
        factor = locality_factor(work.table_bytes, self.fast_bytes, self.miss_penalty)
        ops = work.ops + self.divergence_factor * work.probes
        return ops * factor / self.hash_ops_per_sec

    def transfer_seconds(self, work: MspWork | HashWork) -> float:
        """PCIe cost: ship the input partition down and the result up."""
        if isinstance(work, MspWork):
            moved = work.in_bytes + work.out_bytes
        else:
            moved = work.in_bytes + work.table_bytes
        return moved / self.pcie_bytes_per_sec


def default_cpu(n_threads: int = 20) -> CpuDevice:
    """The paper's dual E5-2660 (2 x 10 cores) as one CPU device."""
    return CpuDevice(name="cpu", n_threads=n_threads)


def default_gpu(index: int = 0) -> GpuDevice:
    """One Tesla K40m-class device."""
    return GpuDevice(name=f"gpu{index}")
