"""Tests for repro.core.subgraph (Step 2 observation generation and build)."""

import numpy as np
import pytest

from repro.core.estimator import SizingPolicy
from repro.core.hashtable import build_subgraph_table
from repro.core.subgraph import (
    block_observations,
    build_subgraph,
    build_subgraph_sortmerge,
    instance_observations,
    observation_pairs,
)
from repro.graph.build import build_reference_graph
from repro.graph.merge import merge_disjoint
from repro.graph.validate import assert_graphs_equal
from repro.msp.partitioner import partition_reads
from repro.msp.records import empty_block


class TestBlockObservations:
    def test_union_over_partitions_equals_reference(self, genomic_batch):
        k = 15
        res = partition_reads(genomic_batch, k=k, p=7, n_partitions=8)
        ref = build_reference_graph(genomic_batch, k)
        subs = [build_subgraph_sortmerge(b) for b in res.blocks if b.n_superkmers]
        assert_graphs_equal(merge_disjoint(subs), ref, "partitioned-union")

    def test_observation_counts(self, small_batch):
        # Per partition: one multiplicity observation per kmer; one
        # successor per kmer except read-final ones; one predecessor per
        # kmer except read-initial ones.
        k = 11
        res = partition_reads(small_batch, k=k, p=5, n_partitions=1)
        block = res.blocks[0]
        v, s = instance_observations(block)
        n_kmers = small_batch.n_kmers(k)
        pairs = small_batch.n_reads * (small_batch.read_length - k)
        assert v.size == n_kmers  # one entry per kmer instance
        assert s.shape == (3, n_kmers)
        assert int((s >= 0).sum()) == n_kmers + 2 * pairs
        flat_v, flat_s = observation_pairs(v, s)
        assert flat_v.size == flat_s.size == n_kmers + 2 * pairs

    def test_empty_block(self):
        v, s = instance_observations(empty_block(11))
        assert v.size == 0 and s.size == 0
        v, s, copies = block_observations(empty_block(11))
        assert v.size == s.size == copies.size == 0

    def test_distinct_superkmers_stand_for_every_instance(self, genomic_batch):
        # At 13x coverage superkmers repeat: one copy of each is
        # expanded, and the copy counts still add up to every instance.
        k = 21
        for block in partition_reads(genomic_batch, k, 9, 4).blocks:
            v, s, copies = block_observations(block)
            assert v.shape[1] == s.shape[1] == copies.size
            assert int(copies.sum()) == block.total_kmers()
            assert v.shape[1] < block.total_kmers()

    def test_extensions_generate_cut_edges(self, genomic_batch):
        # Without extension bases, edges crossing superkmer boundaries
        # would be lost; verify blocks with many partitions still yield
        # the full edge weight.
        k = 15
        ref = build_reference_graph(genomic_batch, k)
        res = partition_reads(genomic_batch, k=k, p=4, n_partitions=16)
        subs = [build_subgraph_sortmerge(b) for b in res.blocks if b.n_superkmers]
        total = sum(g.total_edge_weight() for g in subs)
        assert total == ref.total_edge_weight()


class TestBuildSubgraph:
    def test_hash_equals_sortmerge(self, genomic_batch):
        k = 15
        res = partition_reads(genomic_batch, k=k, p=7, n_partitions=4)
        for block in res.blocks:
            if block.n_superkmers == 0:
                continue
            sorted_ = build_subgraph_sortmerge(block)
            assert build_subgraph(block).graph.equals(sorted_)
            assert build_subgraph_table(block).graph.equals(sorted_)

    def test_threaded_equals_serial(self, genomic_batch):
        k = 15
        res = partition_reads(genomic_batch, k=k, p=7, n_partitions=2)
        block = next(b for b in res.blocks if b.n_superkmers)
        serial = build_subgraph(block)
        threaded = build_subgraph_table(block, n_threads=4)
        assert threaded.graph.equals(serial.graph)
        for field in ("ops", "inserts", "updates", "key_locks",
                      "count_increments"):
            assert getattr(threaded.stats, field) == getattr(serial.stats, field)

    def test_result_telemetry(self, genomic_batch):
        res = partition_reads(genomic_batch, k=15, p=7, n_partitions=2)
        block = next(b for b in res.blocks if b.n_superkmers)
        result = build_subgraph_table(block)
        assert result.n_kmers == block.total_kmers()
        assert result.stats.ops > 0
        assert result.capacity >= result.graph.n_vertices
        assert result.table_bytes > 0
        rows = build_subgraph(block)  # the owner build uses no table
        assert rows.n_kmers == result.n_kmers
        assert rows.capacity == rows.table_bytes == rows.n_regrows == 0
        assert rows.stats.probes == rows.stats.cas_failures == 0

    def test_regrow_on_estimate_violation(self, rng):
        # Coverage < 1 random reads: nearly all kmers distinct, which
        # violates the Property 1 estimate and must trigger regrowth.
        from repro.dna.reads import ReadBatch

        batch = ReadBatch(codes=rng.integers(0, 4, size=(300, 60), dtype=np.uint8))
        res = partition_reads(batch, k=15, p=7, n_partitions=1)
        policy = SizingPolicy(lam=0.5, alpha=0.9)
        result = build_subgraph_table(res.blocks[0], policy=policy)
        assert result.n_regrows > 0
        ref = build_reference_graph(batch, 15)
        assert_graphs_equal(result.graph, ref, "after-regrow")

    def test_regrow_disabled_raises(self, rng):
        from repro.core.hashtable import TableFullError
        from repro.dna.reads import ReadBatch

        batch = ReadBatch(codes=rng.integers(0, 4, size=(300, 60), dtype=np.uint8))
        res = partition_reads(batch, k=15, p=7, n_partitions=1)
        with pytest.raises(TableFullError):
            build_subgraph_table(res.blocks[0],
                                 policy=SizingPolicy(lam=0.5, alpha=0.9),
                                 allow_regrow=False)

    def test_genomic_data_never_regrows(self, genomic_batch):
        # On real coverage data the paper's sizing avoids resizing.
        res = partition_reads(genomic_batch, k=15, p=7, n_partitions=4)
        for block in res.blocks:
            if block.n_superkmers == 0:
                continue
            result = build_subgraph_table(block)  # default lam=2 policy
            assert result.n_regrows == 0
