"""Big-K support: two-word (31 < K <= 63) kmers, tables and construction.

The paper's hash entries are explicitly not limited to a machine word;
this subpackage provides the multi-word configuration end to end — the
two-plane kmer substrate, a concurrent hash table whose key spans two
words (the case the state-transfer protocol exists for), and the full
MSP + hashing pipeline for K up to 63.
"""

from .compact import compact_unitigs_bigk
from .construct import (
    block_observations_2w,
    build_debruijn_graph_bigk,
    build_subgraph_2w,
    build_subgraph_2w_sortmerge,
    flat_kmers_2w,
    merge_bigk_disjoint,
    preaggregate_observations_2w,
)
from .kmer2w import (
    LO_BASES,
    MAX_2W_K,
    canonical2w_with_flip,
    hi_bases,
    join_planes,
    kmers2w_from_reads,
    less2w,
    revcomp2w,
    split_int,
)
from .serialize import (
    detect_graph_format,
    load_big_graph,
    save_big_graph,
    save_big_subgraphs,
)
from .store import (
    BigDeBruijnGraph,
    build_reference_bigk_slow,
    empty_bigk_graph,
    graph_from_plane_pairs,
)
from .table import TwoWordHashTable, hash_planes, hash_planes_int

__all__ = [
    "BigDeBruijnGraph",
    "LO_BASES",
    "MAX_2W_K",
    "TwoWordHashTable",
    "block_observations_2w",
    "build_debruijn_graph_bigk",
    "build_reference_bigk_slow",
    "build_subgraph_2w",
    "build_subgraph_2w_sortmerge",
    "canonical2w_with_flip",
    "compact_unitigs_bigk",
    "detect_graph_format",
    "empty_bigk_graph",
    "flat_kmers_2w",
    "load_big_graph",
    "preaggregate_observations_2w",
    "save_big_graph",
    "save_big_subgraphs",
    "graph_from_plane_pairs",
    "hash_planes",
    "hash_planes_int",
    "hi_bases",
    "join_planes",
    "kmers2w_from_reads",
    "less2w",
    "merge_bigk_disjoint",
    "revcomp2w",
    "split_int",
]
