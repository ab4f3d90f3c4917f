"""Tests for repro.graph.compact (unitig compaction)."""

import numpy as np
import pytest

from repro.dna.alphabet import decode
from repro.dna.reads import ReadBatch
from repro.dna.simulate import random_genome, simulate_reads
from repro.graph.build import build_reference_graph
from repro.graph.compact import (
    compact_unitigs,
    compaction_stats,
    count_junction_vertices,
)


def genome_str(genome: np.ndarray) -> str:
    return decode(genome)


def revcomp_str(s: str) -> str:
    table = str.maketrans("ACGT", "TGCA")
    return s.translate(table)[::-1]


class TestLinearGenome:
    def test_single_unitig_full_coverage(self):
        # Error-free dense reads of a repeat-free genome compact to one
        # unitig spelling the genome (or its reverse complement).
        genome = random_genome(500, seed=5)
        reads = simulate_reads(genome, 300, 60, mean_errors=0.0, seed=6)
        g = build_reference_graph(reads, 21)
        unitigs = compact_unitigs(g)
        longest = max(unitigs, key=len)
        s = longest.to_str()
        gs = genome_str(genome)
        assert s in gs or revcomp_str(s) in gs
        assert len(s) >= 0.95 * len(gs)

    def test_every_vertex_in_exactly_one_unitig(self, clean_batch):
        g = build_reference_graph(clean_batch, 15)
        unitigs = compact_unitigs(g)
        rows = [r for u in unitigs for r in u.vertex_rows]
        assert sorted(rows) == list(range(g.n_vertices))

    def test_base_count_invariant(self, clean_batch):
        g = build_reference_graph(clean_batch, 15)
        unitigs = compact_unitigs(g)
        total = sum(len(u) for u in unitigs)
        assert total == g.n_vertices + len(unitigs) * (15 - 1)

    def test_unitig_spells_valid_kmers(self, clean_batch):
        # Every kmer of every unitig must be a vertex of the graph.
        from repro.dna.kmer import canonical_int, iter_kmers

        g = build_reference_graph(clean_batch, 15)
        unitigs = compact_unitigs(g)
        for u in unitigs[:20]:
            for kmer in iter_kmers(u.bases, 15):
                assert canonical_int(kmer, 15) in g


class TestBranching:
    def test_branch_breaks_unitig(self):
        # Two reads sharing a prefix then diverging create a branch.
        reads = ReadBatch.from_strs([
            "AAACCCGGGTTTACG",
            "AAACCCGGGTTTTGC",
        ])
        g = build_reference_graph(reads, 7)
        unitigs = compact_unitigs(g)
        assert len(unitigs) >= 2  # cannot be one path
        assert count_junction_vertices(g) >= 1

    def test_junction_count_zero_on_linear(self):
        genome = random_genome(300, seed=9)
        reads = simulate_reads(genome, 200, 50, mean_errors=0.0, seed=10)
        g = build_reference_graph(reads, 21)
        assert count_junction_vertices(g) == 0

    def test_errors_create_junctions(self, tiny_profile):
        genome, reads = tiny_profile.generate()
        g = build_reference_graph(reads, 21)
        assert count_junction_vertices(g) > 0


class TestStats:
    def test_compaction_stats(self, clean_batch):
        g = build_reference_graph(clean_batch, 15)
        unitigs = compact_unitigs(g)
        stats = compaction_stats(unitigs, 15)
        assert stats["n_unitigs"] == len(unitigs)
        assert stats["longest"] >= stats["n50"] > 0
        assert stats["total_bases"] == sum(len(u) for u in unitigs)

    def test_empty_graph(self):
        from repro.graph.dbg import empty_graph

        assert compact_unitigs(empty_graph(15)) == []
        stats = compaction_stats([], 15)
        assert stats["n_unitigs"] == 0

    def test_mean_multiplicity(self):
        reads = ReadBatch.from_strs(["ACGTACC"] * 3)
        g = build_reference_graph(reads, 5)
        unitigs = compact_unitigs(g)
        for u in unitigs:
            assert u.mean_multiplicity == pytest.approx(3.0)
