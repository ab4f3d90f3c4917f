"""Step-2 and merge names of the former two-word path (aliases)."""

from ..core.subgraph import block_observations as block_observations_2w
from ..core.subgraph import build_subgraph as build_subgraph_2w
from ..core.subgraph import preaggregate_observations as preaggregate_observations_2w
from ..graph.merge import merge_disjoint as merge_bigk_disjoint

__all__ = [
    "block_observations_2w",
    "build_subgraph_2w",
    "merge_bigk_disjoint",
    "preaggregate_observations_2w",
]
