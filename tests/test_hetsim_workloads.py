"""Tests for repro.hetsim.workloads (measured-work extraction, full sim)."""

import pytest

from repro.core.config import ParaHashConfig
from repro.graph.build import build_reference_graph
from repro.graph.validate import assert_graphs_equal
from repro.hetsim.transfer import DiskModel, memory_cached_disk, spinning_disk
from repro.hetsim.workloads import (
    device_set,
    fastq_bytes,
    measure_step1,
    measure_step2,
    measure_workloads,
    simulate_parahash,
)
from repro.msp.binio import partition_file_size
from repro.msp.records import empty_block


@pytest.fixture
def cfg():
    return ParaHashConfig(k=15, p=7, n_partitions=8, n_input_pieces=3)


class TestMeasureStep1:
    def test_one_work_per_piece(self, genomic_batch, cfg):
        wl = measure_step1(genomic_batch, cfg)
        assert len(wl.works) == cfg.n_input_pieces
        assert sum(w.n_reads for w in wl.works) == genomic_batch.n_reads
        assert sum(w.n_bases for w in wl.works) == genomic_batch.total_bases

    def test_blocks_cover_all_kmers(self, genomic_batch, cfg):
        wl = measure_step1(genomic_batch, cfg)
        assert len(wl.blocks) == cfg.n_partitions
        assert sum(b.total_kmers() for b in wl.blocks) == genomic_batch.n_kmers(cfg.k)

    def test_out_bytes_are_encoded_sizes(self, genomic_batch, cfg, tmp_path):
        # Step 1's output is what partition_to_files writes for the same
        # pieces: every file's bytes after its header.
        from repro.msp.partitioner import partition_to_files

        wl = measure_step1(genomic_batch, cfg)
        report = partition_to_files(
            genomic_batch, cfg.k, cfg.p, cfg.n_partitions, tmp_path,
            n_input_pieces=cfg.n_input_pieces,
        )
        header = partition_file_size(empty_block(cfg.k))
        body = sum(path.stat().st_size - header
                   for path in report.paths.values())
        assert sum(w.out_bytes for w in wl.works) == body


class TestMeasureStep2:
    def test_graphs_union_to_reference(self, genomic_batch, cfg):
        from repro.graph.merge import merge_disjoint

        wl1 = measure_step1(genomic_batch, cfg)
        wl2 = measure_step2(wl1.blocks, cfg)
        merged = merge_disjoint([r.graph for r in wl2.results])
        ref = build_reference_graph(genomic_batch, cfg.k)
        assert_graphs_equal(merged, ref, "measured-step2")

    def test_work_matches_stats(self, genomic_batch, cfg):
        wl1 = measure_step1(genomic_batch, cfg)
        wl2 = measure_step2(wl1.blocks, cfg)
        for work, result in zip(wl2.works, wl2.results):
            assert work.ops == result.stats.ops
            assert work.inserts == result.stats.inserts
            assert work.table_bytes == result.table_bytes


    @pytest.mark.parametrize("k, p", [(27, 11), (45, 15)])
    def test_out_bytes_are_graph_file_sizes(self, genomic_batch, k, p,
                                            tmp_path):
        # Step 2's output is each subgraph's binary graph file, at the
        # run's key width: T_out prices the bytes save_graph writes.
        from repro.graph.serialize import save_graph

        cfg = ParaHashConfig(k=k, p=p, n_partitions=4, n_input_pieces=2)
        wl2 = measure_step2(measure_step1(genomic_batch, cfg).blocks, cfg)
        assert wl2.works
        for i, (work, result) in enumerate(zip(wl2.works, wl2.results)):
            assert work.out_bytes == save_graph(tmp_path / f"{i}.phdbg",
                                                result.graph)


class TestSimulateParaHash:
    def test_graph_is_exact(self, genomic_batch, cfg):
        report = simulate_parahash(genomic_batch, cfg, use_cpu=True, n_gpus=1)
        ref = build_reference_graph(genomic_batch, cfg.k)
        assert_graphs_equal(report.graph, ref, "hetsim-graph")

    def test_more_devices_never_slower(self, genomic_batch, cfg):
        wl = measure_workloads(genomic_batch, cfg)
        configs = [(True, 0), (True, 1), (True, 2)]
        times = [
            simulate_parahash(genomic_batch, cfg, use_cpu=u, n_gpus=g,
                              precomputed=wl).total_seconds
            for u, g in configs
        ]
        assert times[0] >= times[1] >= times[2]

    def test_workload_distribution_tracks_speed(self, genomic_batch, cfg):
        # Fig 11: the claimed share approximates the speed share.
        from repro.hetsim.model import ideal_workload_shares

        wl = measure_workloads(genomic_batch, cfg)
        cpu_only = simulate_parahash(genomic_batch, cfg, use_cpu=True,
                                     n_gpus=0, precomputed=wl)
        gpu_only = simulate_parahash(genomic_batch, cfg, use_cpu=False,
                                     n_gpus=1, precomputed=wl)
        both = simulate_parahash(genomic_batch, cfg, use_cpu=True,
                                 n_gpus=1, precomputed=wl)
        ideal = ideal_workload_shares(
            cpu_only.step2.elapsed_seconds, gpu_only.step2.elapsed_seconds, 1
        )
        real = both.step2.workload_shares()
        assert real["cpu"] == pytest.approx(ideal["cpu"], abs=0.2)

    def test_disk_choice_matters(self, genomic_batch, cfg):
        wl = measure_workloads(genomic_batch, cfg)
        fast = simulate_parahash(genomic_batch, cfg, n_gpus=1, use_cpu=True,
                                 disk=memory_cached_disk(), precomputed=wl)
        slow_disk = DiskModel(name="very-slow", read_bytes_per_sec=1e6,
                              write_bytes_per_sec=1e6)
        slow = simulate_parahash(genomic_batch, cfg, n_gpus=1, use_cpu=True,
                                 disk=slow_disk, precomputed=wl)
        assert slow.total_seconds > fast.total_seconds

    def test_fastq_bytes(self):
        assert fastq_bytes(10, 100) == 10 * 214

    def test_device_set(self):
        assert [d.name for d in device_set(True, 2)] == ["cpu", "gpu0", "gpu1"]
        with pytest.raises(ValueError):
            device_set(False, 0)

    def test_report_fields(self, genomic_batch, cfg):
        report = simulate_parahash(genomic_batch, cfg, use_cpu=True, n_gpus=2,
                                   disk=spinning_disk())
        assert report.devices == ["cpu", "gpu0", "gpu1"]
        assert report.disk == "hdd"
        assert report.total_seconds == (report.step1.elapsed_seconds +
                                        report.step2.elapsed_seconds)
