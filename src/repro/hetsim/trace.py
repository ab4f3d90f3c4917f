"""Schedule traces and ASCII Gantt rendering for pipeline simulations.

A :class:`StepSimulation` records who processed what and when; this
module turns that into an inspectable event list and a terminal Gantt
chart — the quickest way to *see* the §III-E pipeline overlap (input
stream at the top, devices in the middle, writer at the bottom).
"""

from __future__ import annotations

from dataclasses import dataclass

from .pipeline import StepSimulation


@dataclass(frozen=True)
class ScheduleEvent:
    """One processed partition in the simulated schedule."""

    ticket: int
    device: str
    start: float
    finish: float
    written: float

    @property
    def compute_seconds(self) -> float:
        return self.finish - self.start


def schedule_events(sim: StepSimulation) -> list[ScheduleEvent]:
    """Per-partition events of a simulation, in ticket order."""
    device_of: dict[int, str] = {}
    for usage in sim.usage.values():
        for ticket in usage.partitions:
            device_of[ticket] = usage.name
    return [
        ScheduleEvent(
            ticket=ticket,
            device=device_of[ticket],
            start=sim.start_times[ticket],
            finish=sim.finish_times[ticket],
            written=sim.written_times[ticket],
        )
        for ticket in range(len(sim.finish_times))
    ]


def render_gantt(sim: StepSimulation, width: int = 72) -> str:
    """ASCII Gantt chart of a simulated step.

    One row per device; each partition is drawn as a block of ``#`` up
    to its finish time, annotated with its ticket number when it fits.
    A final row shows write completion ticks (``|``).
    """
    if not sim.finish_times:
        return "(empty schedule)"
    horizon = max(max(sim.written_times), 1e-12)
    scale = (width - 1) / horizon

    def col(t: float) -> int:
        return min(width - 1, int(t * scale))

    lines = [f"0{' ' * (width - 12)}{horizon:.4g}s"]
    events = schedule_events(sim)
    for name in sim.usage:
        row = [" "] * width
        for ev in events:
            if ev.device != name:
                continue
            a, b = col(ev.start), col(ev.finish)
            for x in range(a, max(a + 1, b)):
                row[x] = "#"
            label = str(ev.ticket)
            if b - a > len(label):
                for i, ch in enumerate(label):
                    row[a + i] = ch
        lines.append(f"{name:>8} |{''.join(row)}")
    writer = [" "] * width
    for t in sim.written_times:
        writer[col(t)] = "|"
    lines.append(f"{'writer':>8} |{''.join(writer)}")
    return "\n".join(lines)

