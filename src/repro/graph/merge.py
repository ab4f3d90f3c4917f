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
from .dbg import N_SLOTS, DeBruijnGraph, empty_graph


class OverlapError(ValueError):
    """Raised when subgraphs expected to be disjoint share vertices."""


def merge_disjoint(subgraphs: Sequence[DeBruijnGraph],
                   k: int | None = None) -> DeBruijnGraph:
    """Union of vertex-disjoint subgraphs (the MSP guarantee).

    ``k`` comes from the inputs (empty ones included); pass it to merge
    an empty list.  Raises :class:`OverlapError` if any vertex appears
    in two subgraphs, which would indicate a partitioning bug.
    """
    k = _common_k(subgraphs, k)
    subgraphs = [g for g in subgraphs if g.n_vertices]
    if not subgraphs:
        return empty_graph(k)
    planes = np.concatenate([g.planes for g in subgraphs], axis=1)
    order = sort_order(planes, k)
    planes = take_planes(planes, order)
    counts = np.concatenate([g.counts for g in subgraphs], axis=0)
    counts = np.take(counts, order, axis=0)
    dup = (planes[:, 1:] == planes[:, :-1]).all(axis=0)
    if dup.any():
        i = int(np.flatnonzero(dup)[0])
        vertex = join_planes(*planes[:, i].tolist())
        raise OverlapError(
            f"vertex {vertex:#x} appears in more than one subgraph; "
            "MSP partitions must be vertex-disjoint"
        )
    return DeBruijnGraph(k=k, vertices=planes, counts=counts)


def merge_adding(subgraphs: Sequence[DeBruijnGraph],
                 k: int | None = None) -> DeBruijnGraph:
    """General merge: counters of vertices present in several inputs add up.

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
