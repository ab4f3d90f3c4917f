"""Tests for repro.graph.build and repro.graph.merge."""

import numpy as np
import pytest

from repro.dna.reads import ReadBatch
from repro.graph.build import (
    build_reference_graph,
    build_reference_graph_slow,
    edge_observations,
)
from repro.graph.dbg import MULT_SLOT, DeBruijnGraph, empty_graph, graph_from_pairs
from repro.graph.merge import OverlapError, merge_adding, merge_disjoint
from repro.graph.validate import assert_graphs_equal


class TestReferenceBuilders:
    def test_fast_equals_slow(self, rng):
        codes = rng.integers(0, 4, size=(25, 40), dtype=np.uint8)
        batch = ReadBatch(codes=codes)
        for k in (3, 11, 20):
            fast = build_reference_graph(batch, k)
            slow = build_reference_graph_slow(batch, k)
            assert_graphs_equal(fast, slow, f"k={k}")

    def test_fig1_example(self):
        # Fig 1 of the paper: TGATG has successors GATGG (weight 2) and
        # GATGA (weight 1) given three reads containing those overlaps.
        reads = ReadBatch.from_strs(["TGATGG", "TGATGG", "TGATGA"])
        g = build_reference_graph(reads, 5)
        from repro.dna import alphabet as al
        from repro.dna.encoding import codes_to_int
        from repro.dna.kmer import canonical_int

        tgatg = canonical_int(codes_to_int(al.encode("TGATG")), 5)
        succ = dict(g.successors(tgatg) + g.predecessors(tgatg))
        gatgg = canonical_int(codes_to_int(al.encode("GATGG")), 5)
        gatga = canonical_int(codes_to_int(al.encode("GATGA")), 5)
        assert succ[gatgg] == 2
        assert succ[gatga] == 1

    def test_empty_batch(self):
        g = build_reference_graph(ReadBatch(codes=np.zeros((0, 0), dtype=np.uint8)), 5)
        assert g.n_vertices == 0

    def test_single_kmer_reads(self):
        batch = ReadBatch.from_strs(["ACGTA", "ACGTA"])
        g = build_reference_graph(batch, 5)
        assert g.n_vertices == 1
        assert g.total_kmer_instances() == 2
        assert g.total_edge_weight() == 0

    def test_strand_symmetry(self, rng):
        # A batch and its reverse-complemented batch build one graph.
        codes = rng.integers(0, 4, size=(20, 30), dtype=np.uint8)
        rc = (codes[:, ::-1] ^ 3).astype(np.uint8)
        g1 = build_reference_graph(ReadBatch(codes=codes), 9)
        g2 = build_reference_graph(ReadBatch(codes=rc), 9)
        assert_graphs_equal(g1, g2, "strand-symmetry")

    def test_edge_observations_sizes(self, small_batch):
        v, s = edge_observations(small_batch.codes, 11)
        n_kmers = small_batch.n_kmers(11)
        pairs = small_batch.n_reads * (small_batch.read_length - 11)
        assert v.size == n_kmers + 2 * pairs
        assert int((s == MULT_SLOT).sum()) == n_kmers


class TestOracleIndependence:
    """The reference graphs share no Step-2 kernel with the build they check.

    With Step 2's sort, grouping, packing and binning kernels raising in
    every module that imported them, the k = 27 and k = 45 references
    still build, and equal the Step-2 graphs built beforehand.
    """

    KERNELS = {
        "repro.dna.kmer": ("sort_order", "group_planes", "group_words",
                           "pack_planes", "pack_spans"),
        "repro.graph.dbg": ("vertex_rows",),
        "repro.core.subgraph": ("superkmer_groups",),
    }

    @pytest.fixture
    def refuse_step2_kernels(self, monkeypatch):
        import importlib
        import sys

        def refuse(*args, **kwargs):
            raise AssertionError("the reference graph used a Step-2 kernel")

        def install():
            for owner, names in self.KERNELS.items():
                defining = importlib.import_module(owner)
                for name in names:
                    kernel = getattr(defining, name)
                    for module_name, module in list(sys.modules.items()):
                        if module_name.startswith("repro") and \
                                getattr(module, name, None) is kernel:
                            monkeypatch.setattr(module, name, refuse)

        return install

    def test_one_word_reference(self, genomic_batch, refuse_step2_kernels):
        from repro.core.subgraph import build_subgraph
        from repro.graph.merge import merge_disjoint
        from repro.msp.partitioner import partition_reads

        blocks = partition_reads(genomic_batch, 27, 11, 4).blocks
        built = merge_disjoint([build_subgraph(b).graph for b in blocks])
        refuse_step2_kernels()
        reference = build_reference_graph(genomic_batch, 27)
        assert_graphs_equal(reference, build_reference_graph_slow(genomic_batch, 27),
                            "k=27")
        assert_graphs_equal(reference, built, "k=27 Step 2")

    def test_two_word_reference(self, genomic_batch, refuse_step2_kernels):
        from repro.bigk.store import build_reference_bigk_slow
        from repro.core.subgraph import (
            build_subgraph,
            instance_observations,
            observation_pairs,
        )
        from repro.msp.partitioner import partition_reads

        # build_reference_graph packs one word; at k = 45 the vectorized
        # reference is graph_from_pairs over one partition's observations.
        (block,) = partition_reads(genomic_batch, 45, 15, 1).blocks
        built = build_subgraph(block).graph
        pairs = observation_pairs(*instance_observations(block))
        refuse_step2_kernels()
        reference = build_reference_bigk_slow(genomic_batch, 45)
        assert graph_from_pairs(45, *pairs).equals(reference)
        assert built.equals(reference)

    def test_refused_kernels_are_step2s(self, genomic_batch, refuse_step2_kernels):
        from repro.core.subgraph import build_subgraph
        from repro.msp.partitioner import partition_reads

        (block,) = partition_reads(genomic_batch, 45, 15, 1).blocks
        refuse_step2_kernels()
        with pytest.raises(AssertionError, match="Step-2 kernel"):
            build_subgraph(block)


class TestMergeDisjoint:
    def split_graph(self, g, parts=3):
        bounds = np.linspace(0, g.n_vertices, parts + 1).astype(int)
        from repro.graph.dbg import DeBruijnGraph

        return [
            DeBruijnGraph(k=g.k, planes=g.planes[:, a:b], counts=g.counts[a:b])
            for a, b in zip(bounds, bounds[1:])
        ]

    @pytest.fixture
    def graph_k45(self, genomic_batch):
        from repro.bigk.store import build_reference_bigk_slow

        return build_reference_bigk_slow(genomic_batch, 45)

    def test_roundtrip(self, genomic_batch):
        g = build_reference_graph(genomic_batch, 15)
        parts = self.split_graph(g, 4)
        assert_graphs_equal(merge_disjoint(parts), g, "merge-roundtrip")

    def test_roundtrip_two_word(self, graph_k45):
        parts = self.split_graph(graph_k45, 4)
        assert merge_disjoint(parts[::-1]).equals(graph_k45)

    def test_order_invariance(self, genomic_batch):
        g = build_reference_graph(genomic_batch, 15)
        parts = self.split_graph(g, 3)
        assert_graphs_equal(merge_disjoint(parts[::-1]), g, "merge-reversed")

    def test_overlap_detected(self, genomic_batch):
        g = build_reference_graph(genomic_batch, 15)
        with pytest.raises(OverlapError):
            merge_disjoint([g, g])

    def test_overlap_detected_two_word(self, graph_k45):
        with pytest.raises(OverlapError):
            merge_disjoint([graph_k45, graph_k45])
        # One shared vertex among otherwise disjoint parts.
        parts = self.split_graph(graph_k45, 3)
        middle = graph_k45.n_vertices // 2
        one = DeBruijnGraph(k=45, planes=graph_k45.planes[:, middle:middle + 1],
                            counts=graph_k45.counts[middle:middle + 1])
        with pytest.raises(OverlapError):
            merge_disjoint([parts[2], one, parts[0], parts[1]])

    @pytest.mark.parametrize("k", [15, 45])
    def test_rows_written_in_place_equal_gather(self, genomic_batch,
                                                graph_k45, k):
        # Vertices dealt to parts at random, so every part's rows land
        # scattered through the output; the parts come in shuffled order.
        g = graph_k45 if k == 45 else build_reference_graph(genomic_batch, k)
        rng = np.random.default_rng(k)
        owner = rng.integers(0, 7, size=g.n_vertices)
        parts = [DeBruijnGraph(k=k, planes=g.planes[:, owner == i],
                               counts=g.counts[owner == i]) for i in range(7)]
        rng.shuffle(parts)
        # Reference: concatenate both planes and counters, then gather.
        planes = np.concatenate([p.planes for p in parts], axis=1)
        counts = np.concatenate([p.counts for p in parts], axis=0)
        order = np.lexsort(planes[::-1])
        merged = merge_disjoint(parts)
        assert merged.counts.dtype == np.uint32
        assert np.array_equal(merged.planes, planes[:, order])
        assert np.array_equal(merged.counts, counts[order])
        assert merged.equals(g)
        shared = DeBruijnGraph(k=k, planes=parts[3].planes[:, :1],
                               counts=parts[3].counts[:1])
        with pytest.raises(OverlapError):
            merge_disjoint(parts[:3] + [shared] + parts[3:])

    def test_empty_inputs_skipped(self, genomic_batch):
        g = build_reference_graph(genomic_batch, 15)
        merged = merge_disjoint([g, empty_graph(15)])
        assert_graphs_equal(merged, g, "merge-with-empty")

    def test_mixed_k_rejected(self, genomic_batch):
        g15 = build_reference_graph(genomic_batch, 15)
        g13 = build_reference_graph(genomic_batch, 13)
        with pytest.raises(ValueError):
            merge_disjoint([g15, g13])


class TestMergeKeepsK:
    def test_empty_one_word_merges_keep_k(self):
        assert merge_disjoint([empty_graph(27)] * 2).k == 27
        assert merge_adding([empty_graph(27)]).k == 27
        assert merge_disjoint([], k=27).k == 27
        with pytest.raises(ValueError):
            merge_disjoint([])
        with pytest.raises(ValueError):
            merge_disjoint([empty_graph(27), empty_graph(21)])

    def test_empty_two_word_merges_keep_k(self):
        g = empty_graph(45)
        assert g.planes.shape == (2, 0)
        assert merge_disjoint([g, g]).k == 45
        assert merge_adding([g]).k == 45
        merged = merge_disjoint([], k=45)
        assert merged.k == 45 and merged.planes.shape == (2, 0)
        one = DeBruijnGraph(k=45, vertices=np.array([[1], [2]], dtype=np.uint64),
                            counts=np.ones((1, 9), dtype=np.uint64))
        with pytest.raises(OverlapError):
            merge_disjoint([one, g, one])


class TestMergeAdding:
    def test_double_merge_doubles_counts(self, genomic_batch):
        g = build_reference_graph(genomic_batch, 15)
        doubled = merge_adding([g, g])
        assert doubled.n_vertices == g.n_vertices
        assert np.array_equal(doubled.counts, g.counts * 2)

    def test_split_batches_merge_to_whole(self, genomic_batch):
        # Building per piece and count-merging equals one-shot building:
        # within-read adjacency only, so splitting by reads is lossless.
        g = build_reference_graph(genomic_batch, 15)
        pieces = genomic_batch.split(3)
        parts = [build_reference_graph(p, 15) for p in pieces]
        assert_graphs_equal(merge_adding(parts), g, "piecewise")

    def test_empty(self):
        assert merge_adding([]).n_vertices == 0

    def test_sum_past_uint32_raises(self):
        def one(mult):
            counts = np.zeros((1, 9), dtype=np.uint64)
            counts[0, MULT_SLOT] = mult
            return DeBruijnGraph(k=5, vertices=np.array([7], dtype=np.uint64),
                                 counts=counts)

        top = 2**32 - 1
        assert merge_adding([one(top - 1), one(1)]).multiplicity(7) == top
        with pytest.raises(OverflowError):
            merge_adding([one(top), one(1)])


class TestGraphFromPairsConsistency:
    def test_matches_reference(self, small_batch):
        v, s = edge_observations(small_batch.codes, 11)
        g = graph_from_pairs(11, v, s)
        ref = build_reference_graph(small_batch, 11)
        assert_graphs_equal(g, ref, "pairs-vs-ref")
