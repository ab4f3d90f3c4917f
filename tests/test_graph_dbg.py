"""Tests for repro.graph.dbg (the graph store)."""

import numpy as np
import pytest

from repro.dna import alphabet as al
from repro.dna.encoding import codes_to_int
from repro.dna.reads import ReadBatch
from repro.graph.build import build_reference_graph
from repro.graph.dbg import (
    IN_BASE,
    MULT_SLOT,
    OUT_BASE,
    DeBruijnGraph,
    empty_graph,
    graph_from_pairs,
    slot_for_predecessor,
    slot_for_successor,
)


def kmer_of(s: str) -> int:
    return codes_to_int(al.encode(s))


class TestSlotMapping:
    def test_unflipped_successor(self):
        assert slot_for_successor(np.array(False), np.array(2)) == OUT_BASE + 2

    def test_flipped_successor_complements(self):
        assert slot_for_successor(np.array(True), np.array(2)) == IN_BASE + 1

    def test_unflipped_predecessor(self):
        assert slot_for_predecessor(np.array(False), np.array(0)) == IN_BASE + 0

    def test_flipped_predecessor(self):
        assert slot_for_predecessor(np.array(True), np.array(0)) == OUT_BASE + 3

    def test_vectorized(self):
        flips = np.array([False, True, False])
        bases = np.array([0, 1, 3])
        out = slot_for_successor(flips, bases)
        assert out.tolist() == [OUT_BASE + 0, IN_BASE + 2, OUT_BASE + 3]


class TestGraphFromPairs:
    def test_aggregation(self):
        v = np.array([5, 5, 5, 9], dtype=np.uint64)
        s = np.array([MULT_SLOT, MULT_SLOT, 0, MULT_SLOT], dtype=np.uint64)
        g = graph_from_pairs(3, v, s)
        assert g.n_vertices == 2
        assert g.multiplicity(5) == 2
        assert int(g.counts[g.index_of(5), 0]) == 1
        assert g.multiplicity(9) == 1

    def test_empty(self):
        g = graph_from_pairs(5, np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.uint64))
        assert g.n_vertices == 0

    def test_bad_slot(self):
        with pytest.raises(ValueError):
            graph_from_pairs(3, np.array([1], dtype=np.uint64),
                             np.array([9], dtype=np.uint64))

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            graph_from_pairs(3, np.zeros(2, dtype=np.uint64),
                             np.zeros(3, dtype=np.uint64))

    def test_large_k_lexsort_path(self):
        # 2k + 4 > 64 triggers the lexsort fallback; compare both paths
        # by building identical content with a small-k equivalent.
        v = np.array([7, 7, 3, 3, 3], dtype=np.uint64)
        s = np.array([0, 0, 8, 8, 2], dtype=np.uint64)
        fast = graph_from_pairs(27, v, s)  # packed path
        slow = graph_from_pairs(31, v, s)  # 2*31+4 = 66 > 64: lexsort
        assert np.array_equal(fast.vertices, slow.vertices)
        assert np.array_equal(fast.counts, slow.counts)


class TestGraphQueries:
    def graph(self):
        # Reads spelling ACGTA: vertices ACG, CGT, GTA (canonical forms).
        batch = ReadBatch.from_strs(["ACGTA"])
        return build_reference_graph(batch, 3)

    def test_contains(self):
        g = self.graph()
        acg = min(kmer_of("ACG"), kmer_of("CGT"))  # canonical of ACG
        assert acg in g

    def test_successor_weights(self):
        batch = ReadBatch.from_strs(["AACCC", "AACCC"])
        g = build_reference_graph(batch, 3)
        aac = kmer_of("AAC")  # canonical (rc = GTT)
        succ = g.successors(aac)
        # AAC -> ACC observed twice.
        acc = min(kmer_of("ACC"), kmer_of("GGT"))
        assert (acc, 2) in succ

    def test_predecessors_inverse_of_successors(self, genomic_batch):
        g = build_reference_graph(genomic_batch, 15)
        v = int(g.vertices[len(g) // 2])
        for neighbor, _ in g.successors(v):
            back = [u for u, _ in g.predecessors(neighbor)] + [
                u for u, _ in g.successors(neighbor)
            ]
            assert v in back

    def test_degree(self):
        g = self.graph()
        assert all(g.degree(int(v)) >= 1 for v in g.vertices)

    def test_missing_vertex_queries(self):
        g = self.graph()
        assert g.multiplicity(10**15) == 0
        assert g.successors(10**15) == []
        missing = g.edge_counts(10**15)
        assert np.array_equal(missing, np.zeros(8))
        assert missing.dtype == g.counts.dtype == np.uint32

    def test_describe(self):
        g = self.graph()
        d = g.describe()
        assert d["n_vertices"] == g.n_vertices
        assert d["total_kmer_instances"] == 3


class TestGraphTransforms:
    def test_filter_min_multiplicity(self, genomic_batch):
        g = build_reference_graph(genomic_batch, 15)
        filtered = g.filter_min_multiplicity(2)
        assert filtered.n_vertices < g.n_vertices
        assert (filtered.counts[:, MULT_SLOT] >= 2).all()

    def test_filter_keeps_everything_at_one(self, genomic_batch):
        g = build_reference_graph(genomic_batch, 15)
        assert g.filter_min_multiplicity(1).equals(g)

    def test_filter_removes_error_vertices(self, tiny_profile):
        # Error kmers are mostly multiplicity-1; genome kmers at 10x
        # coverage are mostly >= 2.
        genome, reads = tiny_profile.generate()
        g = build_reference_graph(reads, 21)
        filtered = g.filter_min_multiplicity(2)
        # Filtering should remove a noticeable share of vertices but
        # keep the graph near genome size.
        assert filtered.n_vertices < g.n_vertices
        assert filtered.n_vertices >= 0.5 * tiny_profile.genome_size


class TestValidationOfStore:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            DeBruijnGraph(
                k=3,
                vertices=np.array([5, 3], dtype=np.uint64),
                counts=np.zeros((2, 9), dtype=np.uint64),
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            DeBruijnGraph(
                k=3,
                vertices=np.array([3], dtype=np.uint64),
                counts=np.zeros((2, 9), dtype=np.uint64),
            )

    def test_counts_are_uint32_and_refuse_larger_values(self):
        top = np.full((1, 9), 2**32 - 1, dtype=np.uint64)
        g = DeBruijnGraph(k=3, vertices=np.array([3], dtype=np.uint64),
                          counts=top)
        assert g.counts.dtype == np.uint32
        assert g.multiplicity(3) == 2**32 - 1
        for bad in (2**32, -1):
            counts = np.zeros((1, 9), dtype=np.int64 if bad < 0 else np.uint64)
            counts[0, 4] = bad
            with pytest.raises(OverflowError):
                DeBruijnGraph(k=3, vertices=np.array([3], dtype=np.uint64),
                              counts=counts)

    def test_empty_graph(self):
        g = empty_graph(7)
        assert g.n_vertices == 0
        assert g.total_edge_weight() == 0
        assert g.k == 7
