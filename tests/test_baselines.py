"""Tests for repro.baselines (SOAP, sort-merge, bcalm)."""

import pytest

from repro.baselines.bcalm import build_bcalm, simulate_bcalm
from repro.baselines.soap import (
    build_soap,
    simulate_soap_hashing,
    soap_memory_required,
)
from repro.baselines.sortmerge import build_sortmerge, simulate_sortmerge
from repro.graph.build import build_reference_graph
from repro.graph.validate import assert_graphs_equal
from repro.hetsim.device import default_cpu
from repro.hetsim.transfer import memory_cached_disk, spinning_disk


class TestSoap:
    def test_graph_equals_reference(self, genomic_batch):
        ref = build_reference_graph(genomic_batch, 15)
        result = build_soap(genomic_batch, 15, n_threads=8)
        assert_graphs_equal(result.graph, ref, "soap")

    def test_thread_count_does_not_change_graph(self, genomic_batch):
        g1 = build_soap(genomic_batch, 15, n_threads=1).graph
        g20 = build_soap(genomic_batch, 15, n_threads=20).graph
        assert g1.equals(g20)

    def test_read_amplification(self, genomic_batch):
        # Every thread scans the full observation stream.
        result = build_soap(genomic_batch, 15, n_threads=8)
        work = result.work
        assert work.read_ops_per_thread == work.n_observations
        assert work.insert_ops_per_thread < work.n_observations

    def test_memory_dominates_parahash(self, genomic_batch):
        # SOAP stages the whole kmer stream; ParaHash holds one
        # partition's table.  (Table III: 16 GB vs 2 GB.)
        from repro.core.config import ParaHashConfig
        from repro.hetsim.workloads import measure_workloads

        soap = build_soap(genomic_batch, 15)
        cfg = ParaHashConfig(k=15, p=7, n_partitions=16)
        _, wl2 = measure_workloads(genomic_batch, cfg)
        parahash_peak = max(w.table_bytes + w.in_bytes for w in wl2.works)
        assert soap.work.peak_memory_bytes > 3 * parahash_peak

    def test_simulated_breakdown(self, genomic_batch):
        result = build_soap(genomic_batch, 15, n_threads=8)
        timing = simulate_soap_hashing(result.work, default_cpu())
        assert timing.read_data_seconds > 0
        assert timing.insert_update_seconds > 0
        assert timing.total_seconds == pytest.approx(
            timing.read_data_seconds + timing.insert_update_seconds
        )

    def test_memory_required_scales(self, genomic_batch):
        full = soap_memory_required(genomic_batch, 15)
        assert full == genomic_batch.n_kmers(15) * 27

    def test_invalid_threads(self, genomic_batch):
        with pytest.raises(ValueError):
            build_soap(genomic_batch, 15, n_threads=0)


class TestSortMerge:
    def test_graph_equals_reference(self, genomic_batch):
        ref = build_reference_graph(genomic_batch, 15)
        assert_graphs_equal(build_sortmerge(genomic_batch, 15).graph, ref, "sm")

    def test_multipass_equals_single(self, genomic_batch):
        single = build_sortmerge(genomic_batch, 15)
        multi = build_sortmerge(genomic_batch, 15, memory_budget_pairs=5000)
        assert single.graph.equals(multi.graph)
        assert multi.work.n_passes > 1
        assert multi.work.peak_memory_bytes < single.work.peak_memory_bytes

    def test_invalid_budget(self, genomic_batch):
        with pytest.raises(ValueError):
            build_sortmerge(genomic_batch, 15, memory_budget_pairs=0)

    def test_simulated_time_positive(self, genomic_batch):
        result = build_sortmerge(genomic_batch, 15, memory_budget_pairs=5000)
        assert simulate_sortmerge(result.work, default_cpu()) > 0

    def test_multipass_costs_more(self, genomic_batch):
        cpu = default_cpu()
        single = build_sortmerge(genomic_batch, 15)
        multi = build_sortmerge(genomic_batch, 15, memory_budget_pairs=2000)
        assert simulate_sortmerge(multi.work, cpu) > simulate_sortmerge(
            single.work, cpu
        )


class TestBcalm:
    def test_graph_equals_reference(self, genomic_batch):
        ref = build_reference_graph(genomic_batch, 15)
        result = build_bcalm(genomic_batch, 15, p=7, n_partitions=8)
        assert_graphs_equal(result.graph, ref, "bcalm")

    def test_work_metrics(self, genomic_batch):
        result = build_bcalm(genomic_batch, 15, p=7, n_partitions=8)
        w = result.work
        assert w.n_observations == 3 * genomic_batch.n_kmers(15)
        assert w.n_distinct == result.graph.n_vertices
        assert 0 <= w.n_junctions < w.n_distinct
        assert w.intermediate_bytes == w.n_observations * 9

    def test_low_memory(self, genomic_batch):
        # bcalm's defining property: peak memory ~ one partition.
        result = build_bcalm(genomic_batch, 15, p=7, n_partitions=8)
        from repro.baselines.soap import build_soap

        soap = build_soap(genomic_batch, 15)
        assert result.work.peak_memory_bytes < soap.work.peak_memory_bytes

    def test_simulated_slower_than_parahash(self, genomic_batch):
        # Table III: bcalm2 is roughly an order of magnitude slower.
        # Compare on a memory-cached disk so test-scale per-file seek
        # latency does not swamp the comparison; the full factor
        # (~10-30x) is asserted at benchmark scale in
        # benchmarks/bench_table3_assemblers.py.
        from repro.core.config import ParaHashConfig
        from repro.hetsim.workloads import measure_workloads, simulate_parahash

        cfg = ParaHashConfig(k=15, p=7, n_partitions=8)
        wl = measure_workloads(genomic_batch, cfg)
        parahash = simulate_parahash(genomic_batch, cfg, use_cpu=True,
                                     n_gpus=0, disk=memory_cached_disk(),
                                     precomputed=wl)
        bc = build_bcalm(genomic_batch, 15, p=7, n_partitions=8)
        bcalm_seconds = simulate_bcalm(bc.work, default_cpu(),
                                       memory_cached_disk())
        assert bcalm_seconds > parahash.total_seconds

    def test_disk_model_affects_time(self, genomic_batch):
        bc = build_bcalm(genomic_batch, 15, p=7, n_partitions=8)
        cpu = default_cpu()
        fast = simulate_bcalm(bc.work, cpu, memory_cached_disk())
        slow = simulate_bcalm(bc.work, cpu, spinning_disk())
        assert slow > fast
