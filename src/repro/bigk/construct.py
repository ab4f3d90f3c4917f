"""End-to-end big-K construction: MSP + two-word subgraph kernels.

The MSP step is K-agnostic as long as the minimizer length P fits one
word (P <= 31): superkmer decomposition and partition routing only look
at P-length substrings.  What changes for K > 31 is kmer generation
from the partition blocks and the key width — both
provided here over the two-word substrate.

The union of all subgraphs is validated (in the test suite) against the
pure-Python big-K reference builder.
"""

from __future__ import annotations

import numpy as np

from ..core.subgraph import (
    build_subgraph,
    instance_slots,
    observation_pairs,
    vertex_rows,
)
from ..dna.reads import ReadBatch
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
    vertex.  Returns ``(hi, lo, rows)`` in ascending key order.
    """
    order = np.lexsort((lo, hi))
    shi, slo = hi[order], lo[order]
    new = np.ones(shi.size, dtype=bool)
    new[1:] = (shi[1:] != shi[:-1]) | (slo[1:] != slo[:-1])
    inverse = np.empty(shi.size, dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    firsts = np.nonzero(new)[0]
    return shi[firsts], slo[firsts], vertex_rows(inverse, firsts.size, slots)


#: The owner builder handles both key widths; kept under its two-word name.
build_subgraph_2w = build_subgraph


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
    n_threads: int = 1,
) -> BigDeBruijnGraph:
    """One-call big-K API: the ParaHash driver at a two-word ``k``.

    ``n_threads > 1`` co-processes both steps through the §III-E
    work-stealing queue; the merged graph is identical to the
    sequential run.
    """
    from ..core.config import ParaHashConfig
    from ..core.parahash import ParaHash

    check_2w_k(k)
    config = ParaHashConfig(k=k, p=p, n_partitions=n_partitions,
                            n_threads=n_threads)
    return ParaHash(config).build_graph(reads).graph
