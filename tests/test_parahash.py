"""Tests for repro.core.parahash (end-to-end driver) and config."""

import pytest

from repro.core.config import BIG_GENOME_CONFIG, MEDIUM_GENOME_CONFIG, ParaHashConfig
from repro.core.parahash import ParaHash, build_debruijn_graph
from repro.graph.build import build_reference_graph
from repro.graph.validate import assert_graphs_equal, validate_full_graph


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = ParaHashConfig()
        assert cfg.k == 27
        assert cfg.p == 11
        assert cfg.sizing.lam == 2.0

    def test_step1_pieces_two_per_parallel_worker(self):
        # Two chunks per worker on the processes backend; serial keeps
        # n_input_pieces (4 by default).
        assert ParaHashConfig(n_workers=8).step1_pieces() == 4
        cfg = ParaHashConfig(backend="processes", n_workers=8)
        assert cfg.step1_pieces() == 16
        assert cfg.with_(n_workers=1).step1_pieces() == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            ParaHashConfig(k=0)
        with pytest.raises(ValueError):
            ParaHashConfig(k=64)  # two words hold at most 63 bases
        with pytest.raises(ValueError):
            ParaHashConfig(k=45, p=32)  # minimizers stay one-word
        with pytest.raises(ValueError):
            ParaHashConfig(k=11, p=12)
        with pytest.raises(ValueError):
            ParaHashConfig(n_partitions=0)
        with pytest.raises(ValueError):
            ParaHashConfig(n_input_pieces=0)
        with pytest.raises(ValueError):
            ParaHashConfig(n_workers=-1)

    def test_k32_rejected_naming_supported_ranges(self):
        # One word holds k <= 31 here; two words need a high-plane base.
        with pytest.raises(ValueError, match=r"1\.\.31.*33\.\.63"):
            ParaHashConfig(k=32)
        assert ParaHashConfig(k=31).k == 31
        assert ParaHashConfig(k=33).k == 33

    def test_with_(self):
        cfg = ParaHashConfig().with_(p=13, n_partitions=64)
        assert cfg.p == 13 and cfg.n_partitions == 64
        assert cfg.k == 27

    def test_presets(self):
        assert MEDIUM_GENOME_CONFIG.p == 11
        assert BIG_GENOME_CONFIG.p == 19


class TestEndToEnd:
    def test_in_memory_equals_reference(self, genomic_batch):
        cfg = ParaHashConfig(k=15, p=7, n_partitions=8, n_input_pieces=3)
        result = ParaHash(cfg).build_graph(genomic_batch)
        ref = build_reference_graph(genomic_batch, 15)
        assert_graphs_equal(result.graph, ref, "in-memory")
        validate_full_graph(result.graph, genomic_batch)

    def test_disk_backed_equals_reference(self, genomic_batch, tmp_path):
        cfg = ParaHashConfig(k=15, p=7, n_partitions=4, n_input_pieces=2)
        result = ParaHash(cfg).build_graph(genomic_batch, workdir=tmp_path)
        ref = build_reference_graph(genomic_batch, 15)
        assert_graphs_equal(result.graph, ref, "disk-backed")
        assert result.partition_bytes > 0
        assert result.timings.io_seconds >= 0

    def test_coprocessed_equals_reference(self, genomic_batch):
        cfg = ParaHashConfig(k=15, p=7, n_partitions=8, backend="processes",
                             n_workers=3)
        result = ParaHash(cfg).build_graph(genomic_batch)
        ref = build_reference_graph(genomic_batch, 15)
        assert_graphs_equal(result.graph, ref, "coprocessed")
        assert len(result.worker_records) == 3
        total = sum(len(r.partitions) for r in result.worker_records.values())
        assert total == len(result.subgraphs)

    def test_result_accounting(self, genomic_batch):
        cfg = ParaHashConfig(k=15, p=7, n_partitions=4)
        result = ParaHash(cfg).build_graph(genomic_batch)
        assert result.n_kmers == genomic_batch.n_kmers(15)
        assert result.hash_stats.ops > result.n_kmers  # edges add observations
        assert 0 < result.hash_stats.lock_reduction < 1
        d = result.describe()
        assert d["n_vertices"] == result.graph.n_vertices

    def test_partition_count_does_not_change_graph(self, genomic_batch):
        ref = build_reference_graph(genomic_batch, 15)
        for n_partitions in (1, 3, 16):
            got = build_debruijn_graph(genomic_batch, k=15, p=7,
                                       n_partitions=n_partitions)
            assert_graphs_equal(got, ref, f"np={n_partitions}")

    def test_minimizer_length_does_not_change_graph(self, genomic_batch):
        ref = build_reference_graph(genomic_batch, 15)
        for p in (3, 7, 15):
            got = build_debruijn_graph(genomic_batch, k=15, p=p, n_partitions=8)
            assert_graphs_equal(got, ref, f"p={p}")

    def test_input_piece_count_does_not_change_graph(self, genomic_batch):
        ref = build_reference_graph(genomic_batch, 15)
        for pieces in (1, 5):
            cfg = ParaHashConfig(k=15, p=7, n_partitions=4, n_input_pieces=pieces)
            result = ParaHash(cfg).build_graph(genomic_batch)
            assert_graphs_equal(result.graph, ref, f"pieces={pieces}")

    def test_duplicate_merge_claim(self, genomic_batch):
        # Table I style accounting: distinct + duplicates = all kmers.
        result = ParaHash(ParaHashConfig(k=15, p=7, n_partitions=4)).build_graph(
            genomic_batch
        )
        g = result.graph
        assert g.n_vertices + g.n_duplicate_vertices() == genomic_batch.n_kmers(15)

    def test_subgraphs_are_disjoint(self, genomic_batch):
        import numpy as np

        result = ParaHash(ParaHashConfig(k=15, p=7, n_partitions=8)).build_graph(
            genomic_batch
        )
        all_vertices = np.concatenate([g.vertices for g in result.subgraphs])
        assert np.unique(all_vertices).size == all_vertices.size
