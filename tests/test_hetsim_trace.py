"""Tests for repro.hetsim.trace (schedule events and Gantt rendering)."""

from repro.hetsim.device import HashWork, default_cpu, default_gpu
from repro.hetsim.pipeline import simulate_step
from repro.hetsim.trace import render_gantt, schedule_events
from repro.hetsim.transfer import memory_cached_disk, spinning_disk


def works(n=8, ops=100_000):
    return [
        HashWork(n_kmers=ops // 3, ops=ops, probes=ops // 10, inserts=ops // 5,
                 table_bytes=1 << 20, in_bytes=100_000, out_bytes=50_000)
        for _ in range(n)
    ]


class TestScheduleEvents:
    def test_one_event_per_ticket(self):
        sim = simulate_step(works(10), [default_cpu(), default_gpu()],
                            memory_cached_disk())
        events = schedule_events(sim)
        assert [e.ticket for e in events] == list(range(10))

    def test_times_consistent(self):
        sim = simulate_step(works(10), [default_cpu()], spinning_disk())
        for ev in schedule_events(sim):
            assert 0 <= ev.start <= ev.finish <= ev.written
            assert ev.compute_seconds >= 0

    def test_device_serializes_its_partitions(self):
        sim = simulate_step(works(12), [default_cpu()], memory_cached_disk())
        events = schedule_events(sim)
        for prev, cur in zip(events, events[1:]):
            assert cur.start >= prev.finish - 1e-12

    def test_devices_assigned(self):
        sim = simulate_step(works(12), [default_cpu(), default_gpu()],
                            memory_cached_disk())
        devices = {e.device for e in schedule_events(sim)}
        assert devices <= {"cpu", "gpu0"}
        assert len(devices) == 2  # both got work


class TestGantt:
    def test_renders_all_devices(self):
        sim = simulate_step(works(6), [default_cpu(), default_gpu()],
                            spinning_disk())
        chart = render_gantt(sim)
        assert "cpu" in chart and "gpu0" in chart and "writer" in chart
        assert "#" in chart and "|" in chart

    def test_empty_schedule(self):
        sim = simulate_step([], [default_cpu()], memory_cached_disk())
        assert render_gantt(sim) == "(empty schedule)"

    def test_width_respected(self):
        sim = simulate_step(works(4), [default_cpu()], memory_cached_disk())
        chart = render_gantt(sim, width=40)
        for line in chart.splitlines()[1:]:
            assert len(line) <= 40 + 12  # label + separator margin
