"""Tests for repro.hetsim.device (cost models)."""

import pytest

from repro.hetsim.device import (
    CpuDevice,
    HashWork,
    MspWork,
    default_cpu,
    default_gpu,
    locality_factor,
)


def msp_work(n_bases=1_000_000):
    return MspWork(n_reads=n_bases // 100, n_bases=n_bases,
                   n_superkmers=n_bases // 50, in_bytes=2 * n_bases,
                   out_bytes=n_bases // 3)


def hash_work(ops=1_000_000, table_bytes=1 << 20):
    return HashWork(n_kmers=ops // 3, ops=ops, probes=ops // 10,
                    inserts=ops // 5, table_bytes=table_bytes,
                    in_bytes=ops // 4, out_bytes=ops // 8)


class TestLocalityFactor:
    def test_in_cache_is_one(self):
        assert locality_factor(1 << 20, 25 << 20, 2.0) == 1.0

    def test_grows_with_table_size(self):
        f1 = locality_factor(50 << 20, 25 << 20, 2.0)
        f2 = locality_factor(500 << 20, 25 << 20, 2.0)
        assert 1.0 < f1 < f2

    def test_bounded_by_penalty(self):
        f = locality_factor(10**12, 25 << 20, 2.0)
        assert f <= 3.0


class TestCpuDevice:
    def test_msp_time_scales_with_bases(self):
        cpu = default_cpu()
        assert cpu.msp_seconds(msp_work(2_000_000)) == pytest.approx(
            2 * cpu.msp_seconds(msp_work(1_000_000))
        )

    def test_hash_time_grows_with_table(self):
        cpu = default_cpu()
        small = cpu.hash_seconds(hash_work(table_bytes=1 << 20))
        large = cpu.hash_seconds(hash_work(table_bytes=1 << 30))
        assert large > small

    def test_more_threads_is_faster(self):
        base = hash_work()
        slow = CpuDevice(n_threads=1).hash_seconds(base)
        fast = CpuDevice(n_threads=20).hash_seconds(base)
        assert fast < slow / 10

    def test_io_share_slows_compute(self):
        base = msp_work()
        full = CpuDevice(io_share=0.0).msp_seconds(base)
        shared = CpuDevice(io_share=0.5).msp_seconds(base)
        assert shared > full

    def test_no_transfer_cost(self):
        assert default_cpu().transfer_seconds(hash_work()) == 0.0

    def test_thread_sweep_near_linear(self):
        # The Fig 9 model: doubling threads nearly halves the time.
        cpu = default_cpu()
        work = hash_work()
        t1 = cpu.hash_seconds_with_threads(work, 1)
        t2 = cpu.hash_seconds_with_threads(work, 2)
        t16 = cpu.hash_seconds_with_threads(work, 16)
        assert t2 == pytest.approx(t1 / 2, rel=0.1)
        assert t16 == pytest.approx(t1 / 16, rel=0.2)

    def test_contention_hurts_scaling(self):
        cpu = default_cpu()
        work = hash_work()
        clean = cpu.hash_seconds_with_threads(work, 16, contention_ops=0)
        contended = cpu.hash_seconds_with_threads(work, 16,
                                                  contention_ops=work.ops // 2)
        assert contended > clean

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            default_cpu().hash_seconds_with_threads(hash_work(), 0)


class TestGpuDevice:
    def test_transfer_proportional_to_bytes(self):
        gpu = default_gpu()
        w1 = hash_work(ops=1000, table_bytes=1 << 20)
        w2 = HashWork(n_kmers=w1.n_kmers, ops=w1.ops, probes=w1.probes,
                      inserts=w1.inserts, table_bytes=2 << 20,
                      in_bytes=2 * w1.in_bytes, out_bytes=w1.out_bytes)
        assert gpu.transfer_seconds(w2) > gpu.transfer_seconds(w1)

    def test_msp_faster_than_cpu_same_order(self):
        # §III-D offloads the MSP scan to the GPU; Fig 11 shows CPU and
        # GPU processing times stay comparable, so the gain is a small
        # factor, not an order of magnitude.
        work = msp_work()
        gpu_t = default_gpu().msp_seconds(work)
        cpu_t = default_cpu().msp_seconds(work)
        assert gpu_t < cpu_t < 5 * gpu_t

    def test_hash_comparable_to_20core_cpu(self):
        # §V-C1: 20-thread CPU hashing is comparable to one K40.
        work = hash_work(table_bytes=256 << 20)
        cpu_t = default_cpu().hash_seconds(work)
        gpu_t = default_gpu().hash_seconds(work)
        assert 0.3 < cpu_t / gpu_t < 3.0

    def test_divergence_penalty(self):
        gpu = default_gpu()
        smooth = hash_work(ops=10**6)
        divergent = HashWork(n_kmers=smooth.n_kmers, ops=smooth.ops,
                             probes=smooth.ops, inserts=smooth.inserts,
                             table_bytes=smooth.table_bytes,
                             in_bytes=smooth.in_bytes, out_bytes=smooth.out_bytes)
        assert gpu.hash_seconds(divergent) > gpu.hash_seconds(smooth)

    def test_total_includes_transfer(self):
        gpu = default_gpu()
        w = hash_work()
        assert gpu.total_seconds(w) == pytest.approx(
            gpu.hash_seconds(w) + gpu.transfer_seconds(w)
        )

    def test_device_names(self):
        assert default_gpu(0).name == "gpu0"
        assert default_gpu(1).name == "gpu1"


class TestHashWorkFromStats:
    def test_fields_copied(self):
        from repro.core.subgraph import HashStats

        stats = HashStats(ops=100, inserts=20, updates=80, probes=7,
                          key_locks=20, blocked_reads=0, cas_failures=0,
                          count_increments=100)
        w = HashWork.from_stats(stats, n_kmers=40, table_bytes=1024,
                                in_bytes=10, out_bytes=5)
        assert w.ops == 100 and w.probes == 7 and w.inserts == 20
        assert w.n_kmers == 40
