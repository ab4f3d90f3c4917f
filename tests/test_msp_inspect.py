"""Tests for repro.msp.inspect (partition-directory tooling)."""

import pytest

from repro.dna.reads import ReadBatch
from repro.msp.inspect import (
    deep_scan_partition,
    inspect_partition_dir,
    list_partition_files,
)
from repro.msp.partitioner import partition_to_files


@pytest.fixture
def partition_dir(genomic_batch, tmp_path):
    report = partition_to_files(genomic_batch, k=15, p=7, n_partitions=5,
                                out_dir=tmp_path)
    return tmp_path, report


class TestInspect:
    def test_summary_matches_report(self, partition_dir):
        directory, report = partition_dir
        summary = inspect_partition_dir(directory)
        assert summary.n_partitions == 5
        assert summary.k == 15
        assert summary.total_superkmers == report.n_superkmers
        assert summary.total_bytes == report.bytes_written

    def test_balance_cv(self, partition_dir):
        directory, _ = partition_dir
        summary = inspect_partition_dir(directory)
        assert 0 <= summary.balance_cv() < 2.0

    def test_list_sorted(self, partition_dir):
        directory, report = partition_dir
        files = list_partition_files(directory)
        assert files == sorted(report.paths.values())

    def test_untouched_partitions_have_no_file(self, genomic_batch, tmp_path):
        few = ReadBatch(codes=genomic_batch.codes[:2])
        report = partition_to_files(few, k=15, p=7, n_partitions=64,
                                    out_dir=tmp_path)
        assert 0 < len(report.paths) < 64
        summary = inspect_partition_dir(tmp_path)
        assert [p.partition for p in summary.partitions] == sorted(report.paths)
        assert summary.total_superkmers == report.n_superkmers
        assert list_partition_files(tmp_path) == sorted(report.paths.values())

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            inspect_partition_dir(tmp_path)

    def test_mixed_k_rejected(self, genomic_batch, tmp_path):
        partition_to_files(genomic_batch, k=15, p=7, n_partitions=2,
                           out_dir=tmp_path)
        # Add one file with a different k.
        sub = tmp_path / "extra"
        partition_to_files(genomic_batch, k=13, p=7, n_partitions=1,
                           out_dir=sub)
        (sub / "partition_0000_w000.phsk").rename(
            tmp_path / "partition_9999_w000.phsk")
        with pytest.raises(ValueError, match="mixed k"):
            inspect_partition_dir(tmp_path)


class TestDeepScan:
    def test_exact_counts(self, partition_dir, genomic_batch):
        directory, _ = partition_dir
        summary = inspect_partition_dir(directory)
        scans = [deep_scan_partition(p, summary.k) for p in summary.partitions]
        assert sum(s["n_kmers"] for s in scans) == genomic_batch.n_kmers(15)
        for s in scans:
            assert s["k"] == 15
            assert s["n_with_left_ext"] <= s["n_superkmers"]
            assert s["mean_superkmer_length"] >= 15
