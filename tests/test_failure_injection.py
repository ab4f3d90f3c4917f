"""Failure-injection tests: corrupted inputs, straggler devices, edge cases."""

import pytest

from repro.core.config import ParaHashConfig
from repro.core.parahash import ParaHash
from repro.dna.reads import ReadBatch
from repro.msp.binio import PartitionFormatError, read_partition
from repro.msp.partitioner import load_partitions, partition_to_files


class TestCorruptedPartitionFiles:
    def make_partitions(self, batch, tmp_path):
        return partition_to_files(batch, k=15, p=7, n_partitions=3,
                                  out_dir=tmp_path)

    def test_bitflip_in_length_field_detected(self, genomic_batch, tmp_path):
        report = self.make_partitions(genomic_batch, tmp_path)
        path = report.paths[0]
        data = bytearray(path.read_bytes())
        # Corrupt the first record's length field (bytes 16-17 after the
        # 16-byte header) to a huge value.
        data[16] = 0xFF
        data[17] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(PartitionFormatError):
            read_partition(path)

    def test_truncated_file_detected(self, genomic_batch, tmp_path):
        report = self.make_partitions(genomic_batch, tmp_path)
        path = report.paths[1]
        data = path.read_bytes()
        path.write_bytes(data[: max(16, len(data) // 2)])
        with pytest.raises(PartitionFormatError):
            load_partitions([path])

    def test_empty_file_detected(self, genomic_batch, tmp_path):
        report = self.make_partitions(genomic_batch, tmp_path)
        report.paths[2].write_bytes(b"")
        with pytest.raises(PartitionFormatError):
            read_partition(report.paths[2])

    def test_intact_partitions_still_load(self, genomic_batch, tmp_path):
        report = self.make_partitions(genomic_batch, tmp_path)
        report.paths[0].write_bytes(b"garbage")
        good = load_partitions([report.paths[1], report.paths[2]])
        assert all(b.n_superkmers >= 0 for b in good)


class TestDegenerateInputs:
    def test_single_read(self):
        batch = ReadBatch.from_strs(["ACGTACGTACGTACGT"])
        cfg = ParaHashConfig(k=7, p=3, n_partitions=4)
        result = ParaHash(cfg).build_graph(batch)
        assert result.graph.total_kmer_instances() == 10

    def test_reads_of_exactly_k(self):
        batch = ReadBatch.from_strs(["ACGTACG", "TTTTTTT", "ACGTACG"])
        cfg = ParaHashConfig(k=7, p=3, n_partitions=2, n_input_pieces=2)
        result = ParaHash(cfg).build_graph(batch)
        assert result.graph.total_kmer_instances() == 3
        assert result.graph.total_edge_weight() == 0

    def test_homopolymer_reads(self):
        # All-A reads: one distinct vertex (AAAA canonical), self-loops.
        batch = ReadBatch.from_strs(["AAAAAAAAAA"] * 5)
        cfg = ParaHashConfig(k=5, p=2, n_partitions=3)
        result = ParaHash(cfg).build_graph(batch)
        assert result.graph.n_vertices == 1
        assert result.graph.multiplicity(0) == 30

    def test_palindrome_rich_input(self):
        # Even k would allow reverse-complement palindromes; with odd k
        # (as the library recommends) these reads still work.
        batch = ReadBatch.from_strs(["ACGTACGTACGT", "TGCATGCATGCA"])
        cfg = ParaHashConfig(k=5, p=3, n_partitions=2)
        result = ParaHash(cfg).build_graph(batch)
        from repro.graph.validate import validate_full_graph

        validate_full_graph(result.graph, batch)

    def test_many_partitions_few_superkmers(self):
        batch = ReadBatch.from_strs(["ACGTACGTAC"])
        cfg = ParaHashConfig(k=5, p=3, n_partitions=64)
        result = ParaHash(cfg).build_graph(batch)
        assert result.graph.n_vertices > 0


class TestStragglerDevice:
    def test_slow_device_gets_less_work(self):
        from repro.hetsim.device import CpuDevice, HashWork
        from repro.hetsim.pipeline import simulate_step
        from repro.hetsim.transfer import memory_cached_disk

        works = [
            HashWork(n_kmers=1000, ops=30_000, probes=100, inserts=500,
                     table_bytes=1 << 18, in_bytes=1000, out_bytes=500)
            for _ in range(40)
        ]
        fast = CpuDevice(name="fast", n_threads=20)
        straggler = CpuDevice(name="straggler", n_threads=1,
                              hash_ops_per_sec=1e5)
        sim = simulate_step(works, [fast, straggler], memory_cached_disk())
        assert sim.usage["fast"].work_units > 5 * sim.usage["straggler"].work_units
        # Work stealing confines the straggler to a couple of claims
        # (each costs it ~0.3 simulated seconds); it must not serialize
        # the run (40 partitions on the straggler alone would be ~12 s).
        assert len(sim.usage["straggler"].partitions) <= 3
        per_claim = 30_000 / 1e5
        assert sim.elapsed_seconds < (
            len(sim.usage["straggler"].partitions) * per_claim + 0.2
        )

class TestNumericEdges:
    def test_kmer_with_all_ts(self):
        # Highest possible kmer value; canonical flips to all-As.
        batch = ReadBatch.from_strs(["TTTTTTTT"])
        cfg = ParaHashConfig(k=7, p=3, n_partitions=2)
        result = ParaHash(cfg).build_graph(batch)
        assert result.graph.n_vertices == 1
        assert int(result.graph.vertices[0]) == 0  # canonical AAAAAAA

    def test_zero_errors_profile(self, clean_batch):
        from repro.graph.build import build_reference_graph
        from repro.graph.validate import assert_graphs_equal

        cfg = ParaHashConfig(k=15, p=7, n_partitions=4)
        result = ParaHash(cfg).build_graph(clean_batch)
        assert_graphs_equal(result.graph,
                            build_reference_graph(clean_batch, 15), "clean")
