"""End-to-end big-K construction: MSP + two-word concurrent hashing.

The MSP step is K-agnostic as long as the minimizer length P fits one
word (P <= 31): superkmer decomposition and partition routing only look
at P-length substrings.  What changes for K > 31 is kmer generation
from the partition blocks and the hash table's key width — both
provided here over the two-word substrate.

The union of all subgraphs is validated (in the test suite) against the
pure-Python big-K reference builder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.estimator import SizingPolicy
from ..core.hashtable import HashStats
from ..core.subgraph import (
    build_subgraph,
    instance_slots,
    observation_pairs,
    vertex_rows,
)
from ..dna.reads import ReadBatch
from ..msp.partitioner import partition_reads
from ..msp.records import SuperkmerBlock, pack_windows
from .kmer2w import LO_BASES, canonical2w_with_flip, check_2w_k, hi_bases
from .store import BigDeBruijnGraph, graph_from_plane_pairs


def flat_kmers_2w(block: SuperkmerBlock) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All two-word kmers of a block with their flat base positions.

    The big-K twin of :meth:`SuperkmerBlock.flat_kmers`: the high plane
    packs the ``k - 32`` leading bases of each kmer and the low plane
    the 32 trailing ones, both by :func:`pack_windows` doubling.
    """
    k = block.k
    hb = hi_bases(k)
    if block.n_superkmers == 0:
        empty = np.zeros(0, dtype=np.uint64)
        return empty, empty.copy(), np.zeros(0, dtype=np.int64)
    positions = block.kmer_positions()
    hi = pack_windows(block.bases, hb)[positions]
    lo = pack_windows(block.bases[hb:], LO_BASES)[positions]
    return hi, lo, positions


def block_observations_2w(
    block: SuperkmerBlock,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(hi, lo, slots)`` per kmer instance (big-K Step 2 input).

    The two-word twin of :func:`repro.core.subgraph.block_observations`:
    canonical key planes plus the ``(3, n)`` counter slots of
    :func:`repro.core.subgraph.instance_slots`.
    """
    if block.n_superkmers == 0:
        empty = np.zeros(0, dtype=np.uint64)
        return empty, empty.copy(), np.zeros((3, 0), dtype=np.int8)
    hi, lo, positions = flat_kmers_2w(block)
    can_hi, can_lo, flip = canonical2w_with_flip(hi, lo, block.k)
    return can_hi, can_lo, instance_slots(block, positions, flip)


def preaggregate_observations_2w(
    hi: np.ndarray, lo: np.ndarray, slots: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group two-word observations into one counter row per vertex.

    The two-word twin of
    :func:`repro.core.subgraph.preaggregate_observations`: a two-key
    lexsort over the instances' ``(hi, lo)`` planes groups them by
    vertex, so each distinct vertex pays a single probe walk in
    :meth:`TwoWordHashTable.insert_batch`.  Returns ``(hi, lo, rows)``
    in ascending key order.
    """
    order = np.lexsort((lo, hi))
    shi, slo = hi[order], lo[order]
    new = np.ones(shi.size, dtype=bool)
    new[1:] = (shi[1:] != shi[:-1]) | (slo[1:] != slo[:-1])
    inverse = np.empty(shi.size, dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    firsts = np.nonzero(new)[0]
    return shi[firsts], slo[firsts], vertex_rows(inverse, firsts.size, slots)


@dataclass
class BigKSubgraphResult:
    graph: BigDeBruijnGraph
    stats: HashStats
    capacity: int
    n_regrows: int = 0


def build_subgraph_2w(
    block: SuperkmerBlock, policy: SizingPolicy | None = None,
    allow_regrow: bool = True, preaggregate: bool = False,
    protocol: str = "locked", table_layout: str = "flat",
    n_shards: int = 8,
) -> BigKSubgraphResult:
    """One subgraph through the two-word concurrent hash table.

    ``preaggregate``, ``allow_regrow`` and
    ``protocol``/``table_layout``/``n_shards`` behave exactly as in
    :func:`repro.core.subgraph.build_subgraph`; every combination
    produces the identical graph.
    """
    check_2w_k(block.k)
    result = build_subgraph(block, policy=policy, allow_regrow=allow_regrow,
                            preaggregate=preaggregate, protocol=protocol,
                            table_layout=table_layout, n_shards=n_shards)
    return BigKSubgraphResult(graph=result.graph, stats=result.stats,
                              capacity=result.capacity,
                              n_regrows=result.n_regrows)


def build_subgraph_2w_sortmerge(block: SuperkmerBlock) -> BigDeBruijnGraph:
    """Sort-merge oracle for the two-word hash path."""
    return graph_from_plane_pairs(
        block.k, *observation_pairs(*block_observations_2w(block)))


def merge_bigk_disjoint(
    subgraphs: list[BigDeBruijnGraph], k: int | None = None
) -> BigDeBruijnGraph:
    """Union of vertex-disjoint big-K subgraphs.

    ``k`` pins the k of an all-empty merge (defaults to 33 for
    backwards compatibility when no subgraph carries one).
    """
    subgraphs = [g for g in subgraphs if g.n_vertices]
    if not subgraphs:
        from .store import empty_bigk_graph

        return empty_bigk_graph(33 if k is None else k)
    k = subgraphs[0].k
    if any(g.k != k for g in subgraphs):
        raise ValueError("cannot merge graphs with different k")
    hi = np.concatenate([g.vertices_hi for g in subgraphs])
    lo = np.concatenate([g.vertices_lo for g in subgraphs])
    counts = np.concatenate([g.counts for g in subgraphs], axis=0)
    order = np.lexsort((lo, hi))
    hi, lo, counts = hi[order], lo[order], counts[order]
    if hi.size > 1:
        dup = (hi[1:] == hi[:-1]) & (lo[1:] == lo[:-1])
        if dup.any():
            raise ValueError("big-K subgraphs share vertices; partitioning bug")
    return BigDeBruijnGraph(k=k, vertices_hi=hi, vertices_lo=lo, counts=counts)


def build_debruijn_graph_bigk(
    reads: ReadBatch, k: int, p: int = 15, n_partitions: int = 16,
    policy: SizingPolicy | None = None, n_threads: int = 1,
    preaggregate: bool = False,
) -> BigDeBruijnGraph:
    """Full big-K pipeline: MSP partitioning + two-word hashing + merge.

    ``n_threads > 1`` co-processes the partition blocks through the
    §III-E work-stealing queue (the ``threads`` backend's big-k path);
    the merged graph is identical to the sequential run.
    """
    check_2w_k(k)
    if not 1 <= p <= 31:
        raise ValueError("minimizer length p must be in [1, 31]")
    if n_threads < 1:
        raise ValueError("n_threads must be >= 1")
    result = partition_reads(reads, k, p, n_partitions)
    nonempty = [block for block in result.blocks if block.n_superkmers]
    if n_threads > 1 and len(nonempty) > 1:
        from ..concurrentsub.workqueue import run_coprocessed

        workers = {
            f"cpu{t}": (lambda block: build_subgraph_2w(
                block, policy=policy, preaggregate=preaggregate).graph)
            for t in range(n_threads)
        }
        subgraphs, _ = run_coprocessed(
            nonempty, workers, size_of=lambda b: b.total_kmers()
        )
    else:
        subgraphs = [
            build_subgraph_2w(block, policy=policy,
                              preaggregate=preaggregate).graph
            for block in nonempty
        ]
    return merge_bigk_disjoint(subgraphs, k=k)
