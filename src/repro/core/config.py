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
BACKENDS = ("serial", "processes")


def check_k_p(k: int, p: int) -> None:
    """Raise ``ValueError`` unless ``k`` and ``p`` are a buildable pair.

    The rules of :class:`ParaHashConfig` below; the job service applies
    the same ones to a submitted job.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > 63 or k == 32:
        raise ValueError(
            f"k must be in 1..31 (one-word keys) or 33..63 "
            f"(two-word keys), got {k}"
        )
    if not 1 <= p <= k:
        raise ValueError(f"need 1 <= p <= k, got p={p}, k={k}")
    if p > 31:
        raise ValueError("minimizer length p must be <= 31 (one word)")


@dataclass(frozen=True)
class ParaHashConfig:
    """Parameters of a ParaHash run.

    Attributes
    ----------
    k:
        Kmer length (vertex size).  The paper uses 27 for both datasets.
        Keys take ``W = key_width(k)`` uint64 planes
        (:mod:`repro.dna.kmer`): one for ``k`` in 1..31, two for
        ``33 <= k <= 63``.  The leading plane needs at least one base,
        so ``k = 32`` is rejected; raising the 63 ceiling is the only
        change wider keys need.
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
        granularity); the processes backend raises it to two per worker
        (:meth:`step1_pieces`).
    sizing:
        Hash-table sizing policy (Property 1 parameters λ and α) of the
        paper's shared table (:func:`repro.core.hashtable.build_subgraph_table`),
        which the measured :mod:`repro.hetsim` workloads run.  The build
        paths give each partition a single owner and need no table.
    backend:
        Execution backend for the end-to-end driver: ``"serial"`` (one
        process, vectorized kernels) or ``"processes"`` (worker
        processes claiming partitions through the §III-E work-stealing
        queue — see :mod:`repro.parallel.backend`).
    n_workers:
        Worker count for the ``processes`` backend; 0 means auto (the
        machine's CPU count).  The ``serial`` backend always runs one
        thread.
    """

    k: int = 27
    p: int = 11
    n_partitions: int = 32
    n_input_pieces: int = 4
    sizing: SizingPolicy = field(default_factory=SizingPolicy)
    backend: str = "serial"
    n_workers: int = 0

    def __post_init__(self) -> None:
        check_k_p(self.k, self.p)
        if self.n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        if self.n_input_pieces < 1:
            raise ValueError("n_input_pieces must be >= 1")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.n_workers < 0:
            raise ValueError("n_workers must be >= 0 (0 = auto)")

    def workers(self) -> int:
        """Resolved worker count for the processes backend (>= 1)."""
        if self.n_workers > 0:
            return self.n_workers
        return max(1, os.cpu_count() or 1)

    def step1_pieces(self) -> int:
        """How many read chunks Step 1 splits the input into.

        ``n_input_pieces`` on the serial backend; on the processes one
        at least two per worker, so each worker has a chunk to start on
        and one to steal.
        """
        if self.backend == "serial":
            return self.n_input_pieces
        return max(self.n_input_pieces, 2 * self.workers())

    def with_(self, **changes) -> "ParaHashConfig":
        """A modified copy (convenience for sweeps)."""
        return replace(self, **changes)


#: Paper defaults for a medium dataset (Human Chr14 class).
MEDIUM_GENOME_CONFIG = ParaHashConfig(k=27, p=11, n_partitions=32)

#: Paper defaults for a big dataset (Bumblebee class).
BIG_GENOME_CONFIG = ParaHashConfig(k=27, p=19, n_partitions=64)
