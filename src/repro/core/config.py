"""ParaHash run configuration.

Defaults follow the paper's experimental setup (§V-A/V-B): K = 27,
minimizer length P = 11 for medium inputs (19 for the big dataset),
λ = 2 and α ∈ [0.5, 0.8] for table sizing, and a partition count that
keeps each hash table comfortably small.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from .estimator import SizingPolicy

#: Execution backends of :meth:`repro.core.parahash.ParaHash.build_graph`.
BACKENDS = ("serial", "threads", "processes")

#: Hash-table layouts: one flat table per partition, or the partition's
#: segment sliced by hash prefix into shards with private lock regions
#: (:mod:`repro.parallel.sharded`).
TABLE_LAYOUTS = ("flat", "sharded")

#: Insert protocols: the paper's EMPTY->LOCKED->OCCUPIED state transfer,
#: or the lock-free single-CAS publish (no LOCKED intermediate state).
INSERT_PROTOCOLS = ("locked", "lockfree")


@dataclass(frozen=True)
class ParaHashConfig:
    """Parameters of a ParaHash run.

    Attributes
    ----------
    k:
        Kmer length (vertex size).  The paper uses 27 for both datasets.
        ``k <= 31`` packs into one word; ``33 <= k <= 63`` uses the
        split-key two-word substrate (:mod:`repro.bigk`), whose high
        plane needs at least one base, so ``k = 32`` is rejected.
    p:
        Minimizer length; larger P balances partitions better but
        fragments superkmers (Fig 6).  Must satisfy ``1 <= p <= k``,
        and ``p <= 31`` always — minimizers stay one-word even for
        big k (superkmer decomposition only looks at P-length
        substrings).
    n_partitions:
        Number of superkmer partitions (and subgraphs).  The paper uses
        512 for gigabyte-scale inputs, 960 for 100 GB+.
    n_input_pieces:
        How many equal pieces Step 1 splits the input into (pipeline
        granularity).
    sizing:
        Hash-table sizing policy (Property 1 parameters λ and α).
    n_threads:
        Worker threads for Step 2's real-thread path; 1 selects the
        vectorized batch path.
    backend:
        Execution backend for the end-to-end driver: ``"serial"`` (one
        process, vectorized kernels), ``"threads"`` (the §III-E
        work-stealing queue across ``n_workers`` threads), or
        ``"processes"`` (worker processes over shared memory — see
        :mod:`repro.parallel.backend`).
    n_workers:
        Worker count for the ``threads``/``processes`` backends;
        0 means auto (the machine's CPU count).
    pipeline:
        ``processes`` backend only: stream Step-2 partition claims
        through the cross-process ready queue while Step 1 is still
        partitioning (§III-E overlap), instead of barriering between
        the steps.
    preaggregate:
        Group each partition's kmer instances by vertex and insert one
        9-counter row per distinct vertex (one probe walk per vertex;
        stats stay protocol-equivalent) instead of every ``(vertex,
        slot)`` observation on its own.
    calibrate:
        ``processes`` backend only: run a short warm-up measurement
        pass, fit the :mod:`repro.hetsim.device` model to this host,
        and size per-worker chunk/partition claim weights from it.
    table_layout:
        ``"flat"`` keeps one table per partition; ``"sharded"`` slices
        each partition's table by hash prefix into ``n_shards`` shards,
        each with a private state plane and lock-stripe region, so
        concurrent inserts mostly stay inside their own shard (see
        :mod:`repro.parallel.sharded`).
    insert_protocol:
        ``"locked"`` runs the paper's EMPTY->LOCKED->OCCUPIED state
        transfer; ``"lockfree"`` claims the slot by CASing the key/tag
        word directly — publication *is* the claim, there is no LOCKED
        intermediate state (counts stay atomic fetch-adds).
    n_shards:
        Shard count for ``table_layout="sharded"``; must be a power of
        two.  Ignored by the flat layout.
    """

    k: int = 27
    p: int = 11
    n_partitions: int = 32
    n_input_pieces: int = 4
    sizing: SizingPolicy = field(default_factory=SizingPolicy)
    n_threads: int = 1
    backend: str = "serial"
    n_workers: int = 0
    pipeline: bool = True
    preaggregate: bool = True
    calibrate: bool = False
    table_layout: str = "flat"
    insert_protocol: str = "locked"
    n_shards: int = 8

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.k > 63 or self.k == 32:
            raise ValueError(
                f"k must be in 1..31 (one-word keys) or 33..63 "
                f"(two-word keys), got {self.k}"
            )
        if not 1 <= self.p <= self.k:
            raise ValueError(f"need 1 <= p <= k, got p={self.p}, k={self.k}")
        if self.p > 31:
            raise ValueError("minimizer length p must be <= 31 (one word)")
        if self.n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        if self.n_input_pieces < 1:
            raise ValueError("n_input_pieces must be >= 1")
        if self.n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.n_workers < 0:
            raise ValueError("n_workers must be >= 0 (0 = auto)")
        if self.table_layout not in TABLE_LAYOUTS:
            raise ValueError(
                f"table_layout must be one of {TABLE_LAYOUTS}, "
                f"got {self.table_layout!r}"
            )
        if self.insert_protocol not in INSERT_PROTOCOLS:
            raise ValueError(
                f"insert_protocol must be one of {INSERT_PROTOCOLS}, "
                f"got {self.insert_protocol!r}"
            )
        if self.n_shards < 1 or self.n_shards & (self.n_shards - 1):
            raise ValueError(
                f"n_shards must be a positive power of two, got {self.n_shards}"
            )

    def workers(self) -> int:
        """Resolved worker count for the parallel backends (>= 1)."""
        if self.n_workers > 0:
            return self.n_workers
        return max(1, os.cpu_count() or 1)

    def with_(self, **changes) -> "ParaHashConfig":
        """A modified copy (convenience for sweeps)."""
        return replace(self, **changes)


#: Paper defaults for a medium dataset (Human Chr14 class).
MEDIUM_GENOME_CONFIG = ParaHashConfig(k=27, p=11, n_partitions=32)

#: Paper defaults for a big dataset (Bumblebee class).
BIG_GENOME_CONFIG = ParaHashConfig(k=27, p=19, n_partitions=64)
