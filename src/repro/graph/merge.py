"""Merging subgraphs into the full De Bruijn graph.

ParaHash constructs one subgraph per superkmer partition; "all subgraphs
generated in Step 2 together constitute the entire De Bruijn graph"
(§III-A).  MSP routes every duplicate of a kmer to the same partition,
so the vertex sets of the subgraphs are **disjoint** — merging is a
disjoint sorted union.  A general (overlap-tolerant, count-adding) merge
is also provided for baselines that do not guarantee disjointness.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..dna.kmer import group_planes, join_planes, sort_order, take_planes
from .dbg import COUNT_DTYPE, N_SLOTS, DeBruijnGraph, empty_graph


class OverlapError(ValueError):
    """Raised when subgraphs expected to be disjoint share vertices."""


def merge_disjoint(subgraphs: Sequence[DeBruijnGraph],
                   k: int | None = None) -> DeBruijnGraph:
    """Union of vertex-disjoint subgraphs (the MSP guarantee).

    ``k`` comes from the inputs (empty ones included); pass it to merge
    an empty list.  Raises :class:`OverlapError` if any vertex appears
    in two subgraphs, which would indicate a partitioning bug.

    Only the key planes are concatenated and sorted.  Each subgraph's
    counter rows are then written straight to their sorted positions in
    the output, one 36-byte row per vertex, so no concatenated copy of
    the counters is made.
    """
    k = _common_k(subgraphs, k)
    subgraphs = [g for g in subgraphs if g.n_vertices]
    if not subgraphs:
        return empty_graph(k)
    planes = np.concatenate([g.planes for g in subgraphs], axis=1)
    order = sort_order(planes, k)
    planes = take_planes(planes, order)
    dup = (planes[:, 1:] == planes[:, :-1]).all(axis=0)
    if dup.any():
        i = int(np.flatnonzero(dup)[0])
        vertex = join_planes(*planes[:, i].tolist())
        raise OverlapError(
            f"vertex {vertex:#x} appears in more than one subgraph; "
            "MSP partitions must be vertex-disjoint"
        )
    n = order.size
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    counts = np.empty((n, N_SLOTS), dtype=COUNT_DTYPE)
    rows = _row_view(counts)
    lo = 0
    for g in subgraphs:
        hi = lo + g.n_vertices
        rows[rank[lo:hi]] = _row_view(np.ascontiguousarray(g.counts))
        lo = hi
    return DeBruijnGraph(k=k, vertices=planes, counts=counts)


def _row_view(counts: np.ndarray) -> np.ndarray:
    """A C-contiguous ``(n, 9)`` counter matrix as ``n`` opaque rows.

    Fancy-indexing one ``np.void`` item per row moves each row as one
    block, which is much faster than a 2-D row assignment.
    """
    row = np.dtype((np.void, N_SLOTS * counts.itemsize))
    return counts.view(row).reshape(counts.shape[0])


def merge_adding(subgraphs: Sequence[DeBruijnGraph],
                 k: int | None = None) -> DeBruijnGraph:
    """General merge: counters of vertices present in several inputs add up.

    The sums are taken in uint64; the graph then refuses a sum past the
    uint32 maximum with :class:`OverflowError`.
    An empty list without ``k`` merges to an empty ``k = 1`` graph.
    """
    k = _common_k(subgraphs, k) if subgraphs or k is not None else 1
    subgraphs = [g for g in subgraphs if g.n_vertices]
    if not subgraphs:
        return empty_graph(k)
    planes = np.concatenate([g.planes for g in subgraphs], axis=1)
    counts = np.concatenate([g.counts for g in subgraphs], axis=0)
    unique, inverse = group_planes(planes, k)
    merged = np.zeros((unique.shape[1], N_SLOTS), dtype=np.uint64)
    np.add.at(merged, inverse, counts)
    return DeBruijnGraph(k=k, vertices=unique, counts=merged)


def _common_k(subgraphs: Sequence[DeBruijnGraph], k: int | None) -> int:
    ks = {g.k for g in subgraphs} | ({k} if k is not None else set())
    if not ks:
        raise ValueError("merging no subgraphs needs an explicit k")
    if len(ks) > 1:
        raise ValueError(f"cannot merge graphs with different k: {sorted(ks)}")
    return ks.pop()
