"""Pure-Python reference construction for two-word (33 <= K <= 63) graphs.

Ground truth for the two-word tests and benchmark oracles: a per-read
transliteration of Definition 3 over Python-int kmers, split into the
``(hi, lo)`` planes of :class:`repro.graph.dbg.DeBruijnGraph` only at the
end, independently of the key-plane codec.
"""

from __future__ import annotations

import numpy as np

from ..dna.kmer import canonical_int
from ..graph.dbg import MULT_SLOT, N_SLOTS, DeBruijnGraph


def build_reference_bigk_slow(reads, k: int) -> DeBruijnGraph:
    """Pure-Python reference construction for K > 31 (ground truth)."""
    from ..dna.kmer import iter_kmers
    from ..graph.dbg import IN_BASE, OUT_BASE

    table: dict[int, np.ndarray] = {}

    def row(v: int) -> np.ndarray:
        r = table.get(v)
        if r is None:
            r = np.zeros(N_SLOTS, dtype=np.uint64)
            table[v] = r
        return r

    for r_i in range(reads.n_reads):
        codes = reads.codes[r_i]
        kmers = list(iter_kmers(codes, k))
        canon = [canonical_int(km, k) for km in kmers]
        flip = [c != km for c, km in zip(canon, kmers)]
        for j, c in enumerate(canon):
            row(c)[MULT_SLOT] += 1
            if j + 1 < len(kmers):
                b = int(codes[j + k])
                slot = (IN_BASE + (3 - b)) if flip[j] else (OUT_BASE + b)
                row(c)[slot] += 1
            if j > 0:
                b = int(codes[j - 1])
                slot = (OUT_BASE + (3 - b)) if flip[j] else (IN_BASE + b)
                row(c)[slot] += 1

    vertices = sorted(table)
    mask = (1 << 64) - 1
    hi = np.array([v >> 64 for v in vertices], dtype=np.uint64)
    lo = np.array([v & mask for v in vertices], dtype=np.uint64)
    counts = (
        np.stack([table[v] for v in vertices])
        if vertices
        else np.zeros((0, N_SLOTS), dtype=np.uint64)
    )
    return DeBruijnGraph(k=k, vertices=np.stack([hi, lo]), counts=counts)
