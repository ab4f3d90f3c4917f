"""De Bruijn graph structures, reference construction, merging, validation."""

from .build import (
    build_reference_graph,
    build_reference_graph_slow,
    edge_observations,
)
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
    vertex_rows,
)
from .compare import (
    GraphComparison,
    compare_graphs,
    multiplicity_correlation,
    variant_regions,
)
from .compact import (
    Unitig,
    compact_unitigs,
    compaction_stats,
    count_junction_vertices,
)
from .merge import OverlapError, merge_adding, merge_disjoint
from .paths import Contig, assembly_metrics, greedy_contigs
from .serialize import (
    GraphFormatError,
    export_tsv,
    import_tsv,
    load_graph,
    load_subgraphs,
    save_graph,
    save_subgraphs,
)
from .validate import (
    GraphValidationError,
    assert_graphs_equal,
    check_canonical_vertices,
    check_edge_symmetry,
    check_edge_weight_conservation,
    check_genome_coverage,
    check_multiplicity_conservation,
    validate_full_graph,
)

__all__ = [
    "Contig",
    "DeBruijnGraph",
    "GraphComparison",
    "compare_graphs",
    "multiplicity_correlation",
    "variant_regions",
    "GraphFormatError",
    "Unitig",
    "assembly_metrics",
    "export_tsv",
    "greedy_contigs",
    "import_tsv",
    "load_graph",
    "load_subgraphs",
    "save_graph",
    "save_subgraphs",
    "compact_unitigs",
    "compaction_stats",
    "count_junction_vertices",
    "GraphValidationError",
    "IN_BASE",
    "MULT_SLOT",
    "N_SLOTS",
    "OUT_BASE",
    "OverlapError",
    "assert_graphs_equal",
    "build_reference_graph",
    "build_reference_graph_slow",
    "check_canonical_vertices",
    "check_edge_symmetry",
    "check_edge_weight_conservation",
    "check_genome_coverage",
    "check_multiplicity_conservation",
    "edge_observations",
    "empty_graph",
    "graph_from_pairs",
    "merge_adding",
    "merge_disjoint",
    "slot_for_predecessor",
    "slot_for_successor",
    "validate_full_graph",
    "vertex_rows",
]
