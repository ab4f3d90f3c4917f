"""Reference De Bruijn graph construction (ground truth).

Builds the full graph from a read batch in one pass, without any
partitioning, hashing or concurrency — the semantics every other
construction path in this library (MSP + concurrent hashing, the SOAP
and bcalm baselines) must reproduce exactly.  Two implementations:

* :func:`build_reference_graph` — vectorized with numpy, used for
  benchmarks and large tests;
* :func:`build_reference_graph_slow` — a direct, per-read Python
  transliteration of Definition 3, used to validate the vectorized one
  on small inputs.
"""

from __future__ import annotations

import numpy as np

from ..dna.kmer import canonical_int, canonical_with_flip, iter_kmers, kmers_from_reads
from ..dna.reads import ReadBatch
from .dbg import (
    IN_BASE,
    MULT_SLOT,
    N_SLOTS,
    OUT_BASE,
    DeBruijnGraph,
    empty_graph,
    graph_from_pairs,
    slot_for_predecessor,
    slot_for_successor,
)


def edge_observations(codes: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All ``(canonical vertex, counter slot)`` observations of a batch.

    Returns flat parallel arrays covering, for every read: one
    multiplicity observation per kmer instance, one successor
    observation per adjacent kmer pair (charged to the left kmer), and
    one predecessor observation per pair (charged to the right kmer).
    """
    codes = np.asarray(codes, dtype=np.uint8)
    kmers = kmers_from_reads(codes, k)
    can, flip = canonical_with_flip(kmers, k)
    n_kmers = kmers.shape[1]

    mult_v = can.ravel()
    mult_s = np.full(mult_v.size, MULT_SLOT, dtype=np.uint64)
    if n_kmers < 2:
        return mult_v, mult_s

    next_base = codes[:, k:]  # base following kmer j, for j in [0, nk-2]
    prev_base = codes[:, : n_kmers - 1]  # base preceding kmer j+1
    succ_v = can[:, :-1].ravel()
    succ_s = slot_for_successor(flip[:, :-1], next_base).ravel().astype(np.uint64)
    pred_v = can[:, 1:].ravel()
    pred_s = slot_for_predecessor(flip[:, 1:], prev_base).ravel().astype(np.uint64)

    vertex_ids = np.concatenate([mult_v, succ_v, pred_v])
    slots = np.concatenate([mult_s, succ_s, pred_s])
    return vertex_ids, slots


def build_reference_graph(reads: ReadBatch, k: int) -> DeBruijnGraph:
    """Vectorized whole-input De Bruijn graph construction."""
    if reads.n_reads == 0:
        return empty_graph(k)
    return graph_from_pairs(k, *edge_observations(reads.codes, k))


def build_reference_graph_slow(reads: ReadBatch, k: int) -> DeBruijnGraph:
    """Per-read pure-Python construction; O(N L K), small inputs only."""
    table: dict[int, np.ndarray] = {}

    def counter(v: int) -> np.ndarray:
        row = table.get(v)
        if row is None:
            row = np.zeros(N_SLOTS, dtype=np.uint64)
            table[v] = row
        return row

    for r in range(reads.n_reads):
        codes = reads.codes[r]
        kmer_list = list(iter_kmers(codes, k))
        canon = [canonical_int(km, k) for km in kmer_list]
        flip = [c != km for c, km in zip(canon, kmer_list)]
        for j, c in enumerate(canon):
            counter(c)[MULT_SLOT] += 1
            if j + 1 < len(kmer_list):
                b_next = int(codes[j + k])
                slot = (IN_BASE + (3 - b_next)) if flip[j] else (OUT_BASE + b_next)
                counter(c)[slot] += 1
            if j > 0:
                b_prev = int(codes[j - 1])
                slot = (OUT_BASE + (3 - b_prev)) if flip[j] else (IN_BASE + b_prev)
                counter(c)[slot] += 1

    vertices = np.array(sorted(table), dtype=np.uint64)
    counts = (
        np.stack([table[int(v)] for v in vertices])
        if vertices.size
        else np.zeros((0, N_SLOTS), dtype=np.uint64)
    )
    return DeBruijnGraph(k=k, vertices=vertices, counts=counts)
