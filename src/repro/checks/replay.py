"""Replay model-checker counterexamples against the real code.

:func:`repro.checks.model.check_model` refutes each seeded-bug variant
of the abstract protocol models with a concrete interleaving trace.
This module closes the loop: every trace is translated into
:class:`~repro.checks.schedule.InterleavingScheduler` gate rules that
force the *real* implementation — ``ConcurrentHashTable`` under
:func:`repro.core.hashtable.seed_bugs` — through the same interleaving, so the abstract violation reproduces as a concrete,
deterministic failure.

The translation is parametric, not scripted: a replay reads the trace
to learn *which* processes overlap at *which* control point (e.g. the
two writers whose ``stats_read`` steps interleave), then installs
barrier/park rules at the matching instrumentation points (``tas_gap``,
``stats_rmw``, ``numpy_publish``).  A
sequential step-by-step replayer would be wrong here: the ``tas_claim``
window, for instance, requires *both* writers to arrive at the gap
before either stores — a barrier, which only gate rules express.

Entry point: :func:`replay_counterexample`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import Step
from .schedule import InterleavingScheduler, _run_threads


@dataclass
class ReplayResult:
    """Outcome of replaying one counterexample trace on real code."""

    protocol: str
    variant: str
    reproduced: bool
    detail: str
    notes: dict = field(default_factory=dict)

    def summary(self) -> str:
        verdict = "REPRODUCED" if self.reproduced else "not reproduced"
        return f"{self.protocol}[{self.variant}]: {verdict} — {self.detail}"


def _procs(trace: list[Step], action: str) -> list[str]:
    """Processes performing ``action``, in trace order (with duplicates)."""
    return [s.process for s in trace if s.action == action]


def _overlapping(trace: list[Step], open_action: str,
                 close_action: str) -> tuple[str, str] | None:
    """First pair of processes whose open→close windows overlap.

    Returns ``(first, second)`` where ``second`` performed
    ``open_action`` while ``first``'s window (its ``open_action`` with
    no ``close_action`` yet) was still open — the interleaving shape
    every split-RMW counterexample shares.  A window still open at the
    end of the trace counts (the model checker stops at the violating
    state, which may precede the close).
    """
    open_by: str | None = None
    for step in trace:
        if step.action == open_action:
            if open_by is not None and step.process != open_by:
                return (open_by, step.process)
            open_by = step.process
        elif step.action == close_action and step.process == open_by:
            open_by = None
    return None


# -- insert-protocol replays ------------------------------------------------------


def replay_tas_claim(trace: list[Step], timeout: float = 10.0) -> ReplayResult:
    """Two writers both load EMPTY before either stores LOCKED.

    The trace names the writers whose ``tas_load`` steps overlap; the
    replay holds every seeded writer at the ``tas_gap`` point until all
    have arrived (the barrier the abstract interleaving requires), then
    releases them together: each store sees the EMPTY it loaded, both
    "win", and both run the exclusive-window body.  The concrete
    manifestation is double accounting: ``n_occupied`` exceeds the
    number of occupied slots.
    """
    from ..core.hashtable import OCCUPIED, ConcurrentHashTable, seed_bugs
    from ..core.subgraph import HashStats
    from .instrument import monitor_session

    k = len(set(_procs(trace, "tas_load")))
    if k < 2:
        return ReplayResult("insert", "tas_claim", False,
                            "trace has no overlapping tas_load steps")

    sched = InterleavingScheduler(timeout=timeout)

    def on_tas_gap(s: InterleavingScheduler, point) -> None:
        if s.is_released("gap"):
            return
        if s.bump("at_gap") >= k:
            s.release("gap")
        else:
            s.pause_at("gap")

    sched.on("tas_gap", on_tas_gap)

    table = ConcurrentHashTable(64, k=15)
    locals_ = [HashStats() for _ in range(k)]

    def writer(i: int):
        def run() -> None:
            table.insert_one_threadsafe(0xD0D0, 0, locals_[i])
        return run

    with seed_bugs("tas_claim"), monitor_session(sched):
        _run_threads([writer(i) for i in range(k)], timeout)

    slots_occupied = int((table._state_view() == OCCUPIED).sum())
    reproduced = table.n_occupied != slots_occupied
    return ReplayResult(
        "insert", "tas_claim", reproduced,
        f"n_occupied={table.n_occupied} for {slots_occupied} occupied "
        f"slot(s) after {k} writers shared the claim window",
        notes={"n_occupied": table.n_occupied, "slots": slots_occupied},
    )


def replay_shared_stats(trace: list[Step],
                        timeout: float = 10.0) -> ReplayResult:
    """One thread's stats RMW is overlapped by another's full increment.

    The trace exhibits a ``stats_read``/``stats_write`` window with a
    second process inside it.  The replay parks the first thread at the
    ``stats_rmw`` point (stale ``ops`` already in a register), lets the
    second run its whole shared-path insert, then resumes the first:
    its write-back erases the second's increment and the shared ``ops``
    count under-reports.
    """
    from ..core.hashtable import ConcurrentHashTable, seed_bugs
    from .instrument import monitor_session

    if _overlapping(trace, "stats_read", "stats_write") is None:
        return ReplayResult("insert", "shared_stats", False,
                            "trace has no overlapping stats RMWs")

    sched = InterleavingScheduler(timeout=timeout)

    def on_stats_rmw(s: InterleavingScheduler, point) -> None:
        if s.bump("rmw_started") == 1:
            s.bump("first_mid_rmw")
            s.pause_at("rmw")

    sched.on("stats_rmw", on_stats_rmw)

    table = ConcurrentHashTable(64, k=15)

    def first() -> None:
        table.insert_one_threadsafe(0xAAAA, 0)  # local=None: shared stats

    def second() -> None:
        sched.wait_count("first_mid_rmw", 1)
        table.insert_one_threadsafe(0xBBBB, 0)
        sched.release("rmw")

    with seed_bugs("shared_stats"), monitor_session(sched):
        _run_threads([first, second], timeout)

    reproduced = table.stats.ops != 2
    return ReplayResult(
        "insert", "shared_stats", reproduced,
        f"shared stats recorded ops={table.stats.ops} for 2 inserts",
        notes={"ops": table.stats.ops},
    )


def replay_numpy_publish(trace: list[Step],
                         timeout: float = 10.0) -> ReplayResult:
    """A lookup runs between the atomic publish and the mirror write.

    The trace shows some writer's ``publish_atomic`` with another
    process's ``lookup`` before the matching ``publish_mirror`` (the
    model checker may stop before the mirror write ever happens).  The
    replay parks the writer at the ``numpy_publish`` point — OCCUPIED
    already stored atomically, mirror still EMPTY — while a second
    thread updates the same key through the (atomic) update path and
    then looks it up through the mirror-trusting read path: the
    committed update is invisible.
    """
    from ..core.hashtable import ConcurrentHashTable, seed_bugs
    from ..core.subgraph import HashStats
    from .instrument import monitor_session

    writers = _procs(trace, "publish_atomic")
    if not writers:
        return ReplayResult("insert", "numpy_publish", False,
                            "trace has no publish_atomic step")
    writer_p = writers[0]
    window = False
    stale_read = False
    for step in trace:
        if step.process == writer_p and step.action == "publish_atomic":
            window = True
        elif step.process == writer_p and step.action == "publish_mirror":
            window = False
        elif window and step.action == "lookup":
            stale_read = True
    # A trace cut at the violating state keeps the window open to the
    # end; the violating lookup is then the final step of the trace.
    if not (stale_read or (window and trace[-1].action == "lookup")):
        return ReplayResult("insert", "numpy_publish", False,
                            "trace has no lookup inside the mirror window")

    sched = InterleavingScheduler(timeout=timeout)

    def on_numpy_publish(s: InterleavingScheduler, point) -> None:
        s.bump("writer_mid_publish")
        s.pause_at("mirror")

    sched.on("numpy_publish", on_numpy_publish)

    table = ConcurrentHashTable(64, k=15)
    locals_ = [HashStats(), HashStats()]
    outcome = {"missed": False}

    def writer() -> None:
        table.insert_one_threadsafe(0xF00D, 0, locals_[0])

    def updater() -> None:
        sched.wait_count("writer_mid_publish", 1)
        # Atomic flag already OCCUPIED: this is the update path, and it
        # completes — the update is committed and must be visible.
        table.insert_one_threadsafe(0xF00D, 0, locals_[1])
        outcome["missed"] = table.lookup(0xF00D) is None
        sched.release("mirror")

    with seed_bugs("numpy_publish"), monitor_session(sched):
        _run_threads([writer, updater], timeout)

    return ReplayResult(
        "insert", "numpy_publish", outcome["missed"],
        "committed update was invisible to a lookup inside the mirror "
        "window" if outcome["missed"] else "lookup saw the update",
        notes=outcome,
    )


#: Replay entry per (protocol, variant) of the seeded-bug corpus.
REPLAYS = {
    ("insert", "tas_claim"): replay_tas_claim,
    ("insert", "shared_stats"): replay_shared_stats,
    ("insert", "numpy_publish"): replay_numpy_publish,
}


def replay_counterexample(protocol: str, variant: str, trace: list[Step],
                          timeout: float = 10.0) -> ReplayResult:
    """Replay a model counterexample against the real implementation.

    ``trace`` is the violation trace from
    :func:`repro.checks.model.check_model` on the matching buggy model
    variant; the replay derives its schedule from the trace and drives
    the real code through it under the corresponding seeded bug.
    """
    fn = REPLAYS.get((protocol, variant))
    if fn is None:
        raise ValueError(f"no replay for {protocol}[{variant}]")
    return fn(trace, timeout=timeout)
