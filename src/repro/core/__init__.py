"""ParaHash core: estimator, concurrent hash table, subgraph construction, driver."""

from .config import BIG_GENOME_CONFIG, MEDIUM_GENOME_CONFIG, ParaHashConfig
from .counter import (
    KmerCountTable,
    abundance_filter_reads,
    count_kmers,
    count_kmers_partitioned,
)
from .estimator import (
    SizingPolicy,
    expected_distinct_vertices,
    expected_erroneous_kmers_per_error,
    expected_erroneous_kmers_per_read,
    next_power_of_two,
)
from .hashtable import (
    EMPTY,
    LOCKED,
    OCCUPIED,
    ConcurrentHashTable,
    HashStats,
    TableFullError,
)
from .parahash import (
    ParaHash,
    ParaHashResult,
    StageTimings,
    build_debruijn_graph,
)
from .subgraph import (
    SubgraphResult,
    block_observations,
    build_subgraph,
    build_subgraph_sortmerge,
    build_subgraph_table,
)

__all__ = [
    "BIG_GENOME_CONFIG",
    "ConcurrentHashTable",
    "KmerCountTable",
    "abundance_filter_reads",
    "count_kmers",
    "count_kmers_partitioned",
    "EMPTY",
    "HashStats",
    "LOCKED",
    "MEDIUM_GENOME_CONFIG",
    "OCCUPIED",
    "ParaHash",
    "ParaHashConfig",
    "ParaHashResult",
    "SizingPolicy",
    "StageTimings",
    "SubgraphResult",
    "TableFullError",
    "block_observations",
    "build_debruijn_graph",
    "build_subgraph",
    "build_subgraph_sortmerge",
    "build_subgraph_table",
    "expected_distinct_vertices",
    "expected_erroneous_kmers_per_error",
    "expected_erroneous_kmers_per_read",
    "next_power_of_two",
]
