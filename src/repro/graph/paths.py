"""Weight-guided greedy contig extraction.

The reason ParaHash records edge multiplicities at all: "Edge weights
are used in determining the traversal paths for assembly" (§II-B).
This module is that consumer — a simple greedy assembler over the
bi-directed graph that, unlike unitig compaction (which stops at every
branch), walks *through* branches by taking the heaviest sufficiently
supported edge.  It is deliberately basic (no bubble popping, no
scaffolding) but turns the constructed graph into contigs and exercises
the weights end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dna.alphabet import decode
from .compact import SIDE_IN, SIDE_OUT, _GraphIndex, _spell, _step
from .dbg import IN_BASE, MULT_SLOT, OUT_BASE, DeBruijnGraph


@dataclass(frozen=True)
class Contig:
    """A greedy walk through the graph."""

    bases: np.ndarray
    n_vertices: int
    mean_multiplicity: float

    def __len__(self) -> int:
        return int(self.bases.size)

    def to_str(self) -> str:
        return decode(self.bases)


def _heaviest_edge(counts_row: np.ndarray, side: int, min_weight: int) -> int | None:
    """Heaviest sufficiently supported edge base on a side, or None.

    Ties break toward the smaller base code (deterministic).
    """
    base_slot = OUT_BASE if side == SIDE_OUT else IN_BASE
    best_base, best_weight = None, min_weight - 1
    for b in range(4):
        weight = int(counts_row[base_slot + b])
        if weight > best_weight:
            best_base, best_weight = b, weight
    return best_base


def _greedy_walk(index: _GraphIndex, start_row: int, start_side: int,
                 visited: np.ndarray, min_weight: int) -> list[tuple[int, int]]:
    """Greedy extension: follow the heaviest edge until stuck."""
    graph = index.graph
    k = graph.k
    path: list[tuple[int, int]] = []
    row, side = start_row, start_side
    while True:
        base = _heaviest_edge(graph.counts[row], side, min_weight)
        if base is None:
            return path
        neighbor, entry_side, _ = _step(index.vertices[row], side, base, k)
        nrow = index.row(neighbor)
        if nrow is None or visited[nrow]:
            return path
        visited[nrow] = True
        exit_side = SIDE_OUT if entry_side == SIDE_IN else SIDE_IN
        path.append((nrow, exit_side))
        row, side = nrow, exit_side


def greedy_contigs(graph: DeBruijnGraph, min_edge_weight: int = 2,
                   min_seed_multiplicity: int = 2) -> list[Contig]:
    """Extract contigs by greedy heaviest-edge walks.

    Seeds are unvisited vertices in decreasing multiplicity order (a
    high-multiplicity seed is almost surely genomic); each seed extends
    in both directions through edges of weight >= ``min_edge_weight``.
    Every vertex joins at most one contig.
    """
    if min_edge_weight < 1:
        raise ValueError("min_edge_weight must be >= 1")
    n = graph.n_vertices
    index = _GraphIndex(graph)
    visited = np.zeros(n, dtype=bool)
    seed_order = np.argsort(graph.counts[:, MULT_SLOT])[::-1]
    contigs: list[Contig] = []
    for row in seed_order:
        row = int(row)
        if visited[row]:
            continue
        if int(graph.counts[row, MULT_SLOT]) < min_seed_multiplicity:
            continue
        visited[row] = True
        back = _greedy_walk(index, row, SIDE_IN, visited, min_edge_weight)
        forward = _greedy_walk(index, row, SIDE_OUT, visited, min_edge_weight)
        chain = [
            (r, SIDE_OUT if s == SIDE_IN else SIDE_IN) for r, s in reversed(back)
        ]
        chain.append((row, SIDE_OUT))
        chain.extend(forward)
        bases = _spell(index, chain)
        rows = [r for r, _ in chain]
        contigs.append(
            Contig(
                bases=bases,
                n_vertices=len(chain),
                mean_multiplicity=float(
                    np.mean([graph.counts[r, MULT_SLOT] for r in rows])
                ),
            )
        )
    return sorted(contigs, key=len, reverse=True)


def assembly_metrics(contigs: list[Contig], genome_size: int) -> dict:
    """NG50-style metrics against a known genome size."""
    lengths = sorted((len(c) for c in contigs), reverse=True)
    total = sum(lengths)
    ng50 = 0
    acc = 0
    for length in lengths:
        acc += length
        if acc >= genome_size / 2:
            ng50 = length
            break
    return {
        "n_contigs": len(contigs),
        "total_bases": total,
        "longest": lengths[0] if lengths else 0,
        "ng50": ng50,
        "genome_fraction_upper": min(1.0, total / genome_size) if genome_size else 0.0,
    }
