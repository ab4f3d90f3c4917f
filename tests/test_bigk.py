"""Tests for repro.bigk (two-word kmers, table, construction)."""

import numpy as np
import pytest

from repro.bigk.construct import (
    block_observations_2w,
    build_debruijn_graph_bigk,
    build_subgraph_2w,
    build_subgraph_2w_sortmerge,
    flat_kmers_2w,
    merge_bigk_disjoint,
)
from repro.bigk.kmer2w import (
    canonical2w_with_flip,
    check_2w_k,
    hi_bases,
    join_planes,
    kmers2w_from_reads,
    less2w,
    revcomp2w,
    split_int,
)
from repro.bigk.store import (
    BigDeBruijnGraph,
    build_reference_bigk_slow,
    graph_from_plane_pairs,
)
from repro.bigk.table import TwoWordHashTable, hash_planes, hash_planes_int
from repro.dna.kmer import canonical_int, iter_kmers, revcomp_int
from repro.msp.partitioner import partition_reads

BIG_KS = [33, 41, 48, 63]


class TestKmer2w:
    def test_k_range(self):
        with pytest.raises(ValueError):
            check_2w_k(31)
        with pytest.raises(ValueError):
            check_2w_k(64)
        check_2w_k(33)
        check_2w_k(63)

    def test_split_join_roundtrip(self, rng):
        for k in BIG_KS:
            kmer = int(rng.integers(0, 1 << 62)) | (1 << (2 * k - 2))
            kmer &= (1 << (2 * k)) - 1
            hi, lo = split_int(kmer, k)
            assert join_planes(hi, lo) == kmer
            assert hi < (1 << (2 * hi_bases(k)))

    @pytest.mark.parametrize("k", BIG_KS)
    def test_extraction_matches_scalar(self, rng, k):
        codes = rng.integers(0, 4, size=(6, k + 20), dtype=np.uint8)
        hi, lo = kmers2w_from_reads(codes, k)
        for i in range(6):
            for j, ref in enumerate(iter_kmers(codes[i], k)):
                assert join_planes(hi[i, j], lo[i, j]) == ref

    @pytest.mark.parametrize("k", BIG_KS)
    def test_revcomp_matches_scalar(self, rng, k):
        codes = rng.integers(0, 4, size=(4, k + 10), dtype=np.uint8)
        hi, lo = kmers2w_from_reads(codes, k)
        rhi, rlo = revcomp2w(hi, lo, k)
        kmers = [list(iter_kmers(codes[i], k)) for i in range(4)]
        for i in range(4):
            for j in range(len(kmers[i])):
                assert join_planes(rhi[i, j], rlo[i, j]) == revcomp_int(
                    kmers[i][j], k
                )

    @pytest.mark.parametrize("k", BIG_KS)
    def test_revcomp_involution(self, rng, k):
        codes = rng.integers(0, 4, size=(3, k + 5), dtype=np.uint8)
        hi, lo = kmers2w_from_reads(codes, k)
        rhi, rlo = revcomp2w(hi, lo, k)
        bhi, blo = revcomp2w(rhi, rlo, k)
        assert np.array_equal(bhi, hi) and np.array_equal(blo, lo)

    @pytest.mark.parametrize("k", BIG_KS)
    def test_canonical_matches_scalar(self, rng, k):
        codes = rng.integers(0, 4, size=(4, k + 8), dtype=np.uint8)
        hi, lo = kmers2w_from_reads(codes, k)
        chi, clo, flip = canonical2w_with_flip(hi, lo, k)
        kmers = [list(iter_kmers(codes[i], k)) for i in range(4)]
        for i in range(4):
            for j in range(len(kmers[i])):
                expected = canonical_int(kmers[i][j], k)
                assert join_planes(chi[i, j], clo[i, j]) == expected
                assert bool(flip[i, j]) == (expected != kmers[i][j])

    def test_less2w(self):
        a = np.array([1, 1, 2], dtype=np.uint64)
        al = np.array([5, 5, 0], dtype=np.uint64)
        b = np.array([1, 2, 1], dtype=np.uint64)
        bl = np.array([6, 0, 9], dtype=np.uint64)
        assert less2w(a, al, b, bl).tolist() == [True, True, False]

    def test_read_shorter_than_k(self):
        with pytest.raises(ValueError):
            kmers2w_from_reads(np.zeros((2, 30), dtype=np.uint8), 33)


class TestTwoWordTable:
    def observations(self, rng, k=41, n_distinct=80, n_obs=1200):
        kmers = [int(rng.integers(0, 1 << 60)) for _ in range(n_distinct)]
        kmers = sorted({km & ((1 << (2 * k)) - 1) for km in kmers})
        idx = rng.integers(0, len(kmers), size=n_obs)
        chosen = [kmers[i] for i in idx]
        hi = np.array([split_int(km, k)[0] for km in chosen], dtype=np.uint64)
        lo = np.array([split_int(km, k)[1] for km in chosen], dtype=np.uint64)
        slots = rng.integers(0, 9, size=n_obs).astype(np.int64)
        return chosen, hi, lo, slots

    def test_batch_equals_sortmerge(self, rng):
        k = 41
        _, hi, lo, slots = self.observations(rng, k)
        table = TwoWordHashTable(1024, k)
        table.insert_batch(hi, lo, slots)
        assert table.to_graph().equals(graph_from_plane_pairs(k, hi, lo, slots))

    def test_threaded_equals_batch(self, rng):
        k = 41
        chosen, hi, lo, slots = self.observations(rng, k, n_obs=600)
        serial = TwoWordHashTable(1024, k)
        serial.insert_batch(hi, lo, slots)
        threaded = TwoWordHashTable(1024, k)
        threaded.insert_threaded(chosen, slots, n_threads=4)
        assert threaded.to_graph().equals(serial.to_graph())

    def test_lookup(self, rng):
        k = 41
        chosen, hi, lo, slots = self.observations(rng, k)
        table = TwoWordHashTable(1024, k)
        table.insert_batch(hi, lo, slots)
        row = table.lookup(chosen[0])
        assert row is not None and row.sum() > 0
        assert table.lookup(0) is None or 0 in chosen

    def test_key_locks_once_per_distinct(self, rng):
        k = 41
        chosen, hi, lo, slots = self.observations(rng, k)
        table = TwoWordHashTable(1024, k)
        table.insert_batch(hi, lo, slots)
        assert table.stats.key_locks == len(set(chosen))

    def test_hash_scalar_matches_vectorized(self, rng):
        hi = rng.integers(0, 1 << 60, size=50, dtype=np.uint64)
        lo = rng.integers(0, 1 << 60, size=50, dtype=np.uint64)
        mixed = hash_planes(hi, lo)
        for i in range(0, 50, 7):
            assert int(mixed[i]) == hash_planes_int(int(hi[i]), int(lo[i]))

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            TwoWordHashTable(64, 20)

    def test_memory_bytes(self):
        table = TwoWordHashTable(256, 41)
        assert table.memory_bytes() == 256 * (1 + 8 + 8 + 36)


class TestBigKConstruction:
    @pytest.mark.parametrize("k", [33, 45])
    def test_end_to_end_equals_reference(self, genomic_batch, k):
        slow = build_reference_bigk_slow(genomic_batch, k)
        fast = build_debruijn_graph_bigk(genomic_batch, k, p=13, n_partitions=8)
        assert fast.equals(slow)

    def test_k63(self, clean_batch):
        slow = build_reference_bigk_slow(clean_batch, 63)
        fast = build_debruijn_graph_bigk(clean_batch, 63, p=21, n_partitions=4)
        assert fast.equals(slow)

    def test_flat_kmers_2w_matches_read_extraction(self, genomic_batch):
        k = 41
        res = partition_reads(genomic_batch, k, 13, 1)
        block = res.blocks[0]
        hi, lo, pos = flat_kmers_2w(block)
        assert hi.size == genomic_batch.n_kmers(k)
        # Spot-check against per-record scalar extraction.
        rec = block.record(0)
        expected = list(iter_kmers(rec.bases, k))
        got = [join_planes(hi[i], lo[i]) for i in range(len(expected))]
        assert got == expected

    def test_hash_equals_sortmerge_per_block(self, genomic_batch):
        k = 41
        res = partition_reads(genomic_batch, k, 13, 4)
        for block in res.blocks:
            if block.n_superkmers == 0:
                continue
            hashed = build_subgraph_2w(block).graph
            assert hashed.equals(build_subgraph_2w_sortmerge(block))

    def test_accounting(self, genomic_batch):
        k = 33
        g = build_debruijn_graph_bigk(genomic_batch, k, p=13, n_partitions=8)
        assert g.total_kmer_instances() == genomic_batch.n_kmers(k)
        pairs = genomic_batch.n_reads * (genomic_batch.read_length - k)
        assert g.total_edge_weight() == 2 * pairs

    def test_neighbors(self, clean_batch):
        g = build_debruijn_graph_bigk(clean_batch, 33, p=13, n_partitions=4)
        v = g.vertex_int(len(g) // 2)
        neighbors = g.successors(v) + g.predecessors(v)
        assert neighbors  # interior vertex of a covered genome
        for neighbor, weight in neighbors:
            assert weight >= 1
            assert canonical_int(neighbor, 33) == neighbor

    def test_merge_detects_overlap(self, genomic_batch):
        g = build_debruijn_graph_bigk(genomic_batch, 33, p=13, n_partitions=2)
        with pytest.raises(ValueError):
            merge_bigk_disjoint([g, g])

    def test_observation_counts(self, small_batch):
        k = 33
        res = partition_reads(small_batch, k, 11, 1)
        hi, lo, slots = block_observations_2w(res.blocks[0])
        n_kmers = small_batch.n_kmers(k)
        pairs = small_batch.n_reads * (small_batch.read_length - k)
        assert hi.size == lo.size == n_kmers  # one entry per kmer instance
        assert int((slots >= 0).sum()) == n_kmers + 2 * pairs

    def test_invalid_params(self, genomic_batch):
        with pytest.raises(ValueError):
            build_debruijn_graph_bigk(genomic_batch, 20, p=13)
        with pytest.raises(ValueError):
            build_debruijn_graph_bigk(genomic_batch, 33, p=32)


class TestBigKPreaggregate:
    def test_preaggregate_preserves_observation_totals(self, genomic_batch):
        from repro.bigk.construct import preaggregate_observations_2w

        res = partition_reads(genomic_batch, 45, 15, 4)
        block = max(res.blocks, key=lambda b: b.n_superkmers)
        hi, lo, slots = block_observations_2w(block)
        ahi, alo, rows = preaggregate_observations_2w(hi, lo, slots)
        assert ahi.size == alo.size == rows.shape[0]
        assert rows.shape[1] == 9
        assert ahi.size < hi.size  # a covered genome repeats vertices
        assert int(rows.sum()) == int((slots >= 0).sum())
        assert (rows[:, 8] >= 1).all()  # every vertex was seen
        # Vertex keys are unique.
        assert len(set(zip(ahi.tolist(), alo.tolist()))) == ahi.size

    def test_preaggregate_empty(self):
        from repro.bigk.construct import preaggregate_observations_2w

        e = np.zeros(0, dtype=np.uint64)
        ahi, alo, rows = preaggregate_observations_2w(
            e, e, np.zeros((3, 0), dtype=np.int8)
        )
        assert ahi.size == alo.size == 0 and rows.shape == (0, 9)

    @pytest.mark.parametrize("k", [33, 45])
    def test_preaggregated_build_equals_plain(self, genomic_batch, k):
        plain = build_debruijn_graph_bigk(
            genomic_batch, k, p=13, n_partitions=8, preaggregate=False
        )
        agg = build_debruijn_graph_bigk(
            genomic_batch, k, p=13, n_partitions=8, preaggregate=True
        )
        assert agg.equals(plain)

    def test_counted_insert_stats_order_independent(self, genomic_batch):
        """Row inserts meter ops/updates as if replayed one by one."""
        from repro.bigk.construct import preaggregate_observations_2w
        from repro.core.subgraph import observation_pairs

        res = partition_reads(genomic_batch, 45, 15, 1)
        observations = block_observations_2w(res.blocks[0])

        plain = TwoWordHashTable(1 << 14, 45)
        plain.insert_batch(*observation_pairs(*observations))
        agg = TwoWordHashTable(1 << 14, 45)
        agg.insert_batch(*preaggregate_observations_2w(*observations))

        assert agg.to_graph().equals(plain.to_graph())
        for field in ("ops", "inserts", "updates", "count_increments"):
            assert getattr(agg.stats, field) == getattr(plain.stats, field)
        assert agg.stats.key_locks == plain.stats.key_locks

    def test_insert_batch_rejects_bad_counts(self):
        t = TwoWordHashTable(64, 45)
        one = np.ones(2, dtype=np.uint64)
        with pytest.raises(ValueError):  # three rows for two keys
            t.insert_batch(one, one, np.ones((3, 9), dtype=np.uint64))
        with pytest.raises(ValueError):  # rows must have 9 counters
            t.insert_batch(one, one, np.ones((2, 3), dtype=np.uint64))


class TestBigKRegrow:
    def test_regrows_counted_and_bounded(self, rng):
        # Coverage < 1 random reads: nearly every kmer is distinct, which
        # breaks the Property-1 estimate and forces regrowth.
        from repro.core.estimator import SizingPolicy, next_power_of_two
        from repro.dna.reads import ReadBatch

        batch = ReadBatch(codes=rng.integers(0, 4, size=(200, 70),
                                             dtype=np.uint8))
        block = partition_reads(batch, 41, 13, 1).blocks[0]
        policy = SizingPolicy(lam=0.5, alpha=0.9)
        result = build_subgraph_2w(block, policy=policy, preaggregate=True)
        assert result.n_regrows > 0
        assert result.graph.equals(build_subgraph_2w_sortmerge(block))
        # Never past the hard bound: one slot per instance at alpha.
        n_kmers = block.total_kmers()
        assert result.capacity <= next_power_of_two(int(n_kmers / policy.alpha) + 1)

    def test_regrow_disabled_raises(self, rng):
        from repro.core.estimator import SizingPolicy
        from repro.core.hashtable import TableFullError
        from repro.dna.reads import ReadBatch

        batch = ReadBatch(codes=rng.integers(0, 4, size=(200, 70),
                                             dtype=np.uint8))
        block = partition_reads(batch, 41, 13, 1).blocks[0]
        with pytest.raises(TableFullError):
            build_subgraph_2w(block, policy=SizingPolicy(lam=0.5, alpha=0.9),
                              allow_regrow=False)

    def test_covered_genome_never_regrows(self, genomic_batch):
        for block in partition_reads(genomic_batch, 41, 13, 4).blocks:
            if block.n_superkmers:
                assert build_subgraph_2w(block).n_regrows == 0


class TestBigKPartitionCodec:
    @pytest.mark.parametrize("k", [45, 63])
    def test_phsk_roundtrip_big_k(self, genomic_batch, tmp_path, k):
        """The PHSK partition codec is k-agnostic: k > 31 round-trips."""
        from repro.msp.binio import read_partition, write_partition

        res = partition_reads(genomic_batch, k, 15, 4)
        block = max(res.blocks, key=lambda b: b.n_superkmers)
        assert block.n_superkmers > 0
        path = tmp_path / "part.phsk"
        write_partition(path, block)
        loaded = read_partition(path)
        assert loaded.k == k
        assert loaded.n_superkmers == block.n_superkmers
        hi_a, lo_a, slots_a = block_observations_2w(block)
        hi_b, lo_b, slots_b = block_observations_2w(loaded)
        assert np.array_equal(hi_a, hi_b)
        assert np.array_equal(lo_a, lo_b)
        assert np.array_equal(slots_a, slots_b)


class TestBigSerialize:
    def test_roundtrip(self, genomic_batch, tmp_path):
        from repro.bigk.serialize import load_big_graph, save_big_graph

        g = build_debruijn_graph_bigk(genomic_batch, 41, p=13, n_partitions=4)
        path = tmp_path / "g.phdbg"
        n_bytes = save_big_graph(path, g)
        assert n_bytes == path.stat().st_size
        assert load_big_graph(path).equals(g)

    def test_detect_format(self, genomic_batch, tmp_path):
        from repro.bigk.serialize import detect_graph_format, save_big_graph
        from repro.graph.build import build_reference_graph
        from repro.graph.serialize import save_graph

        big = build_debruijn_graph_bigk(genomic_batch, 33, p=13, n_partitions=2)
        small = build_reference_graph(genomic_batch, 15)
        p_big = tmp_path / "big.phdbg"
        p_small = tmp_path / "small.phdbg"
        save_big_graph(p_big, big)
        save_graph(p_small, small)
        assert detect_graph_format(p_big) == "2w"
        assert detect_graph_format(p_small) == "1w"

    def test_wrong_magic_rejected(self, tmp_path):
        from repro.bigk.serialize import load_big_graph
        from repro.graph.serialize import GraphFormatError

        path = tmp_path / "x.phdbg"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(GraphFormatError):
            load_big_graph(path)

    def test_truncation_rejected(self, genomic_batch, tmp_path):
        from repro.bigk.serialize import load_big_graph, save_big_graph
        from repro.graph.serialize import GraphFormatError

        g = build_debruijn_graph_bigk(genomic_batch, 33, p=13, n_partitions=2)
        path = tmp_path / "g.phdbg"
        save_big_graph(path, g)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(GraphFormatError):
            load_big_graph(path)


class TestBigCompaction:
    def test_clean_genome_single_unitig(self):
        from repro.bigk.compact import compact_unitigs_bigk
        from repro.dna.alphabet import decode
        from repro.dna.simulate import random_genome, simulate_reads

        genome = random_genome(1_200, seed=12)
        reads = simulate_reads(genome, 350, 80, mean_errors=0.0, seed=13)
        g = build_debruijn_graph_bigk(reads, 41, p=15, n_partitions=4)
        unitigs = compact_unitigs_bigk(g)
        longest = max(unitigs, key=len).to_str()
        gs = decode(genome)
        rc = longest.translate(str.maketrans("ACGT", "TGCA"))[::-1]
        assert longest in gs or rc in gs
        assert len(longest) > 0.9 * len(gs)

    def test_base_count_invariant(self, clean_batch):
        from repro.bigk.compact import compact_unitigs_bigk

        g = build_debruijn_graph_bigk(clean_batch, 33, p=13, n_partitions=4)
        unitigs = compact_unitigs_bigk(g)
        total = sum(len(u) for u in unitigs)
        assert total == g.n_vertices + len(unitigs) * 32

    def test_every_vertex_once(self, genomic_batch):
        from repro.bigk.compact import compact_unitigs_bigk

        g = build_debruijn_graph_bigk(genomic_batch, 33, p=13, n_partitions=4)
        unitigs = compact_unitigs_bigk(g)
        rows = [r for u in unitigs for r in u.vertex_rows]
        assert sorted(rows) == list(range(g.n_vertices))


class TestBigStore:
    def test_store_validation(self):
        with pytest.raises(ValueError):
            BigDeBruijnGraph(
                k=33,
                vertices_hi=np.array([2, 1], dtype=np.uint64),
                vertices_lo=np.array([0, 0], dtype=np.uint64),
                counts=np.zeros((2, 9), dtype=np.uint64),
            )

    def test_index_of(self, genomic_batch):
        g = build_debruijn_graph_bigk(genomic_batch, 33, p=13, n_partitions=2)
        v = g.vertex_int(3)
        assert g.index_of(v) == 3
        assert v in g
        assert g.multiplicity(v) >= 1

    def test_vertex_str_roundtrip(self, genomic_batch):
        from repro.dna.alphabet import encode
        from repro.dna.encoding import codes_to_int

        g = build_debruijn_graph_bigk(genomic_batch, 33, p=13, n_partitions=2)
        s = g.vertex_str(0)
        assert len(s) == 33
        assert codes_to_int(encode(s)) == g.vertex_int(0)
