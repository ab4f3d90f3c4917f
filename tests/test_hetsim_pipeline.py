"""Tests for repro.hetsim.pipeline (the discrete-event schedule)."""

import pytest

from repro.hetsim.device import CpuDevice, HashWork, default_cpu, default_gpu
from repro.hetsim.pipeline import simulate_step, simulate_step_non_pipelined
from repro.hetsim.transfer import DiskModel, memory_cached_disk, spinning_disk


def works(n=16, ops=200_000):
    return [
        HashWork(n_kmers=ops // 3, ops=ops, probes=ops // 10, inserts=ops // 5,
                 table_bytes=1 << 20, in_bytes=200_000, out_bytes=100_000)
        for _ in range(n)
    ]


class TestSimulateStep:
    def test_single_device_processes_all(self):
        sim = simulate_step(works(8), [default_cpu()], memory_cached_disk())
        assert sim.usage["cpu"].partitions == list(range(8))
        assert sim.elapsed_seconds > 0

    def test_elapsed_bounds(self):
        # Pipelined elapsed is at least the compute makespan and at most
        # the non-pipelined stage sum.
        devices = [default_cpu(), default_gpu()]
        disk = spinning_disk()
        sim = simulate_step(works(12), devices, disk)
        t_in, t_compute, t_out = simulate_step_non_pipelined(works(12), devices, disk)
        assert sim.elapsed_seconds <= t_in + t_compute + t_out + 1e-9
        assert sim.elapsed_seconds >= t_compute - 1e-9

    def test_two_devices_share_work(self):
        sim = simulate_step(works(20), [default_gpu(0), default_gpu(1)],
                            memory_cached_disk())
        shares = sim.workload_shares()
        assert shares["gpu0"] == pytest.approx(0.5, abs=0.15)

    def test_faster_device_claims_more(self):
        slow = CpuDevice(name="slowcpu", n_threads=2)
        fast = default_gpu()
        sim = simulate_step(works(30), [slow, fast], memory_cached_disk())
        assert sim.usage[fast.name].work_units > sim.usage[slow.name].work_units

    def test_io_bound_elapsed_tracks_input(self):
        # With a very slow disk, elapsed ~ total input+last write time.
        slow_disk = DiskModel(name="slow", read_bytes_per_sec=1e6,
                              write_bytes_per_sec=1e6)
        ws = works(10)
        sim = simulate_step(ws, [default_gpu()], slow_disk)
        assert sim.elapsed_seconds >= sim.input_seconds
        assert sim.elapsed_seconds == pytest.approx(
            sim.input_seconds, rel=0.6
        )

    def test_empty_works(self):
        sim = simulate_step([], [default_cpu()], memory_cached_disk())
        assert sim.elapsed_seconds == 0.0

    def test_deterministic(self):
        a = simulate_step(works(15), [default_cpu(), default_gpu()],
                          spinning_disk())
        b = simulate_step(works(15), [default_cpu(), default_gpu()],
                          spinning_disk())
        assert a.elapsed_seconds == b.elapsed_seconds
        assert a.usage["cpu"].partitions == b.usage["cpu"].partitions

    def test_no_devices_rejected(self):
        with pytest.raises(ValueError):
            simulate_step(works(2), [], memory_cached_disk())

    def test_duplicate_device_names_rejected(self):
        with pytest.raises(ValueError):
            simulate_step(works(2), [default_gpu(0), default_gpu(0)],
                          memory_cached_disk())

    def test_finish_and_written_times_consistent(self):
        sim = simulate_step(works(6), [default_cpu()], spinning_disk())
        for f, w in zip(sim.finish_times, sim.written_times):
            assert w >= f


class TestPipeliningBenefit:
    def test_pipelined_faster_than_stage_sum(self):
        # Fig 12: pipelining beats the accumulated non-pipelined stages.
        devices = [default_cpu()]
        disk = spinning_disk()
        ws = works(20, ops=2_000_000)
        sim = simulate_step(ws, devices, disk)
        non_pipelined = sim.non_pipelined_seconds()
        assert sim.elapsed_seconds < non_pipelined

    def test_io_dominated_saves_about_half(self):
        # When IO dominates and input ~ output, overlapping them roughly
        # halves the elapsed time (the paper's Bumblebee observation).
        disk = DiskModel(name="slow", read_bytes_per_sec=2e6,
                         write_bytes_per_sec=2e6)
        ws = [
            HashWork(n_kmers=300, ops=1000, probes=10, inserts=100,
                     table_bytes=1 << 16, in_bytes=200_000, out_bytes=200_000)
            for _ in range(30)
        ]  # negligible compute, input == output
        sim = simulate_step(ws, [default_gpu()], disk)
        ratio = sim.elapsed_seconds / sim.non_pipelined_seconds()
        assert 0.40 <= ratio <= 0.62


class TestWorkloadShares:
    def test_shares_sum_to_one(self):
        sim = simulate_step(works(16), [default_cpu(), default_gpu(0),
                                        default_gpu(1)], memory_cached_disk())
        assert sum(sim.workload_shares().values()) == pytest.approx(1.0)

    def test_empty_shares(self):
        sim = simulate_step([], [default_cpu()], memory_cached_disk())
        assert sim.workload_shares() == {"cpu": 0.0}
