"""Cross-implementation integration tests.

Every construction path in the library must produce the exact same
graph; these tests run all of them on a realistic simulated dataset and
compare bit-for-bit, including through the disk formats.
"""

import numpy as np
import pytest

from repro.baselines.bcalm import build_bcalm
from repro.baselines.soap import build_soap
from repro.baselines.sortmerge import build_sortmerge
from repro.core.config import ParaHashConfig
from repro.core.parahash import ParaHash
from repro.dna.io import load_read_batch, save_read_batch
from repro.dna.simulate import DatasetProfile
from repro.graph.build import build_reference_graph
from repro.graph.validate import (
    assert_graphs_equal,
    check_genome_coverage,
    validate_full_graph,
)
from repro.hetsim.workloads import simulate_parahash


@pytest.fixture(scope="module")
def dataset():
    profile = DatasetProfile(
        name="integration",
        genome_size=8_000,
        read_length=90,
        coverage=15.0,
        mean_errors=1.0,
        repeat_fraction=0.1,
        seed=7,
    )
    genome, reads = profile.generate()
    return profile, genome, reads


@pytest.fixture(scope="module")
def reference(dataset):
    _, _, reads = dataset
    return build_reference_graph(reads, 21)


K, P, NP = 21, 9, 12


class TestAllPathsAgree:
    def test_reference_is_valid(self, dataset, reference):
        _, _, reads = dataset
        validate_full_graph(reference, reads)

    def test_parahash_in_memory(self, dataset, reference):
        _, _, reads = dataset
        cfg = ParaHashConfig(k=K, p=P, n_partitions=NP, n_input_pieces=4)
        result = ParaHash(cfg).build_graph(reads)
        assert_graphs_equal(result.graph, reference, "parahash-memory")

    def test_parahash_disk(self, dataset, reference, tmp_path):
        _, _, reads = dataset
        cfg = ParaHashConfig(k=K, p=P, n_partitions=NP)
        result = ParaHash(cfg).build_graph(reads, workdir=tmp_path)
        assert_graphs_equal(result.graph, reference, "parahash-disk")

    def test_hetsim(self, dataset, reference):
        _, _, reads = dataset
        cfg = ParaHashConfig(k=K, p=P, n_partitions=NP)
        report = simulate_parahash(reads, cfg, use_cpu=True, n_gpus=2)
        assert_graphs_equal(report.graph, reference, "hetsim")

    def test_soap(self, dataset, reference):
        _, _, reads = dataset
        assert_graphs_equal(build_soap(reads, K).graph, reference, "soap")

    def test_sortmerge(self, dataset, reference):
        _, _, reads = dataset
        assert_graphs_equal(
            build_sortmerge(reads, K, memory_budget_pairs=40_000).graph,
            reference, "sortmerge",
        )

    def test_bcalm(self, dataset, reference):
        _, _, reads = dataset
        assert_graphs_equal(
            build_bcalm(reads, K, p=P, n_partitions=NP).graph,
            reference, "bcalm",
        )

    def test_parahash_bigk_processes(self, dataset):
        """Big-k (k > 31): the processes backend against ground truth."""
        from repro.bigk.store import build_reference_bigk_slow

        _, _, reads = dataset
        k = 45
        slow = build_reference_bigk_slow(reads, k)
        cfg = ParaHashConfig(
            k=k, p=15, n_partitions=NP, backend="processes",
            n_workers=2,
        )
        result = ParaHash(cfg).build_graph(reads)
        assert result.graph.equals(slow)

    def test_through_fastq_roundtrip(self, dataset, reference, tmp_path):
        # Write reads as fastq, read back, construct: identical graph.
        _, _, reads = dataset
        path = tmp_path / "reads.fastq"
        save_read_batch(path, reads)
        loaded = load_read_batch(path)
        assert np.array_equal(loaded.codes, reads.codes)
        got = build_reference_graph(loaded, K)
        assert_graphs_equal(got, reference, "fastq-roundtrip")


class TestBiologicalSanity:
    def test_genome_recoverable(self, dataset, reference):
        _, genome, _ = dataset
        missing = check_genome_coverage(reference, genome)
        # 15x coverage: nearly all genome kmers present.
        assert missing < 0.02 * genome.size

    def test_error_filtering_shrinks_toward_genome(self, dataset, reference):
        _, genome, _ = dataset
        filtered = reference.filter_min_multiplicity(2)
        # Most erroneous vertices are singletons.
        n_genome_kmers = genome.size - K + 1
        assert filtered.n_vertices < 1.5 * n_genome_kmers
        assert reference.n_vertices > filtered.n_vertices

    def test_duplicate_ratio_is_realistic(self, dataset, reference):
        # Table I shows duplicates >> distinct at real coverage.
        ratio = reference.n_duplicate_vertices() / reference.n_vertices
        assert ratio > 1.5

    def test_table1_accounting(self, dataset, reference):
        _, _, reads = dataset
        total = reference.n_vertices + reference.n_duplicate_vertices()
        assert total == reads.n_kmers(K)
