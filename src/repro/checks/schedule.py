"""Deterministic interleaving scheduler for adversarial replays.

The lockset detector reports *candidate* races; this module turns them
into reproducible failures.  An :class:`InterleavingScheduler` is an
access monitor whose ``event`` hook fires at the named control points
the instrumentation emits (``pre_cas``, ``cas``, ``load``, ``store``,
``pre_publish``, ``numpy_publish``, ``stats_rmw``) — always *outside*
any instrumented lock, so a rule may block the thread that hit the
point without deadlocking other stripes.  Rules pause threads on gates
and release them when counters reach thresholds, which pins down the
exact interleaving a race needs:

* **Writer paused between LOCKED and OCCUPIED** (``pre_publish``): the
  slot stays LOCKED while readers hammer it, exercising the bounded
  spin + yield backoff and — under the seeded ``numpy_publish`` bug —
  the stale-mirror lookup window.
* **CAS-loser storm** (``pre_cas``): every contender is held at the CAS
  doorstep and released simultaneously, forcing the maximal cluster of
  lost CAS races in one round.
* **Lost update** (``stats_rmw``): under the seeded ``shared_stats``
  bug the non-atomic read-modify-write is split across this point, so
  pausing the first thread there while a second completes makes the
  lost increment deterministic instead of a one-in-a-million GIL
  switch.

Every wait carries a timeout; a scenario that deadlocks raises
:class:`SchedulerTimeout` instead of hanging the test suite.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..core.hashtable import ConcurrentHashTable
from ..core.subgraph import HashStats
from .lockset import Monitor


class SchedulerTimeout(RuntimeError):
    """A scheduled wait did not complete; the scenario deadlocked."""


@dataclass
class EventPoint:
    """One instrumentation control point, as seen by a rule."""

    name: str
    index: int | None
    value: object
    thread: str


class InterleavingScheduler(Monitor):
    """Pause/release threads at instrumentation control points.

    Register rules with :meth:`on`; each rule runs *in the thread that
    hit the point* and may call :meth:`pause_at` to block it.  Counters
    (:meth:`bump`/:meth:`wait_count`) coordinate across threads.
    """

    def __init__(self, timeout: float = 10.0) -> None:
        self.timeout = timeout
        self._rules: dict[str, list] = {}
        self._gates: dict[str, threading.Event] = {}
        self._counts: dict[str, int] = {}
        self._cond = threading.Condition()
        self.history: list[EventPoint] = []
        self._history_lock = threading.Lock()

    # -- monitor interface ---------------------------------------------------

    def event(self, name: str, index=None, value=None) -> None:
        rules = self._rules.get(name)
        point = EventPoint(name=name, index=index, value=value,
                           thread=threading.current_thread().name)
        with self._history_lock:
            self.history.append(point)
        if not rules:
            return
        for rule in rules:
            rule(self, point)

    # -- rule registration ---------------------------------------------------

    def on(self, event_name: str, rule) -> "InterleavingScheduler":
        """Run ``rule(scheduler, point)`` whenever ``event_name`` fires."""
        self._rules.setdefault(event_name, []).append(rule)
        return self

    # -- coordination primitives --------------------------------------------

    def _gate(self, name: str) -> threading.Event:
        with self._cond:
            gate = self._gates.get(name)
            if gate is None:
                gate = self._gates[name] = threading.Event()
            return gate

    def pause_at(self, gate_name: str) -> None:
        """Block the calling thread until :meth:`release` opens the gate."""
        if not self._gate(gate_name).wait(self.timeout):
            raise SchedulerTimeout(
                f"thread {threading.current_thread().name} timed out at "
                f"gate {gate_name!r} after {self.timeout}s"
            )

    def release(self, gate_name: str) -> None:
        """Open a gate (idempotent; released gates stay open)."""
        self._gate(gate_name).set()

    def is_released(self, gate_name: str) -> bool:
        return self._gate(gate_name).is_set()

    def bump(self, counter: str, delta: int = 1) -> int:
        """Increment a named counter; returns the new value."""
        with self._cond:
            self._counts[counter] = self._counts.get(counter, 0) + delta
            self._cond.notify_all()
            return self._counts[counter]

    def count(self, counter: str) -> int:
        with self._cond:
            return self._counts.get(counter, 0)

    def wait_count(self, counter: str, threshold: int) -> None:
        """Block until ``counter >= threshold`` (timeout-guarded)."""
        with self._cond:
            ok = self._cond.wait_for(
                lambda: self._counts.get(counter, 0) >= threshold,
                timeout=self.timeout,
            )
        if not ok:
            raise SchedulerTimeout(
                f"counter {counter!r} stuck at {self.count(counter)} "
                f"< {threshold} after {self.timeout}s"
            )

    def events(self, name: str) -> list[EventPoint]:
        with self._history_lock:
            return [p for p in self.history if p.name == name]


# -- prebuilt adversarial scenarios ---------------------------------------------


@dataclass
class ScenarioResult:
    """Outcome of one scheduled replay."""

    stats: HashStats
    per_thread: list[HashStats] = field(default_factory=list)
    lookup_missed: bool = False
    notes: dict = field(default_factory=dict)


def _run_threads(targets, timeout: float) -> None:
    errors: list[BaseException] = []

    def guard(fn):
        def run():
            try:
                fn()
            except BaseException as exc:  # propagate to the caller
                errors.append(exc)
        return run

    threads = [threading.Thread(target=guard(fn), name=f"sched-{i}")
               for i, fn in enumerate(targets)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
        if t.is_alive():
            raise SchedulerTimeout("scenario thread did not finish; "
                                   "a gate was never released")
    if errors:
        raise errors[0]


def writer_pause_scenario(table: ConcurrentHashTable, key: int = 0xBEEF,
                          n_readers: int = 4, locked_sightings: int = 32,
                          timeout: float = 10.0,
                          scheduler: InterleavingScheduler | None = None,
                          ) -> ScenarioResult:
    """Pause the CAS winner between LOCKED and OCCUPIED under reader fire.

    The writer thread claims the slot and stops at ``pre_publish``;
    ``n_readers`` threads then insert the same key, each spinning on the
    LOCKED flag.  Once the readers have collectively observed LOCKED
    ``locked_sightings`` times the writer is released.  On correct code
    every reader completes (bounded spin + yield, no livelock) and the
    blocked-read count is at least ``locked_sightings``.

    The caller must install the scheduler as the active monitor (see
    :func:`repro.checks.instrument.monitor_session`) — pass the same
    instance via ``scheduler``, or let this function build one.
    """
    from .instrument import monitor_session

    sched = scheduler or InterleavingScheduler(timeout=timeout)

    def on_pre_publish(s: InterleavingScheduler, point: EventPoint) -> None:
        if s.bump("writers_at_publish") == 1:
            s.pause_at("publish")

    def on_load(s: InterleavingScheduler, point: EventPoint) -> None:
        from ..core.hashtable import LOCKED

        if point.value == LOCKED:
            if s.bump("locked_seen") >= locked_sightings:
                s.release("publish")

    sched.on("pre_publish", on_pre_publish)
    sched.on("load", on_load)

    locals_ = [HashStats() for _ in range(n_readers + 1)]

    def writer() -> None:
        table.insert_one_threadsafe(key, 0, locals_[0])

    def reader(i: int):
        def run() -> None:
            sched.wait_count("writers_at_publish", 1)
            table.insert_one_threadsafe(key, 0, locals_[i])
        return run

    def body() -> None:
        _run_threads([writer] + [reader(i + 1) for i in range(n_readers)],
                     timeout)

    if scheduler is None:
        with monitor_session(sched):
            body()
    else:
        body()

    merged = HashStats()
    for s in locals_:
        merged = merged.merged_with(s)
    return ScenarioResult(stats=merged, per_thread=locals_,
                          notes={"locked_seen": sched.count("locked_seen")})


def cas_storm_scenario(table: ConcurrentHashTable, key: int = 0xCAFE,
                       n_threads: int = 8, timeout: float = 10.0,
                       ) -> ScenarioResult:
    """Hold every contender at the CAS doorstep, then release together.

    All ``n_threads`` threads insert the *same* previously-unseen key;
    each reaches ``pre_cas`` on the same EMPTY slot and waits until all
    have arrived.  Released simultaneously, exactly one CAS wins and the
    other ``n_threads - 1`` deterministically lose — the maximal
    single-round CAS-failure cluster the protocol can produce.
    """
    from .instrument import monitor_session

    sched = InterleavingScheduler(timeout=timeout)

    def on_pre_cas(s: InterleavingScheduler, point: EventPoint) -> None:
        if s.is_released("storm"):
            return  # only the first round is synchronized
        if s.bump("at_cas") >= n_threads:
            s.release("storm")
        else:
            s.pause_at("storm")

    sched.on("pre_cas", on_pre_cas)

    locals_ = [HashStats() for _ in range(n_threads)]

    def worker(i: int):
        def run() -> None:
            table.insert_one_threadsafe(key, 0, locals_[i])
        return run

    with monitor_session(sched):
        _run_threads([worker(i) for i in range(n_threads)], timeout)

    merged = HashStats()
    for s in locals_:
        merged = merged.merged_with(s)
    return ScenarioResult(stats=merged, per_thread=locals_)


def stale_lookup_scenario(table: ConcurrentHashTable, key: int = 0xF00D,
                          timeout: float = 10.0) -> ScenarioResult:
    """Reproduce the dual-publication race as a linearizability failure.

    A writer inserts ``key`` and — when the seeded ``numpy_publish`` bug
    is active — pauses *after* the atomic OCCUPIED store but *before*
    the shadowing numpy-mirror write.  A second thread then updates the
    same key through the atomic path and completes; a subsequent
    ``lookup`` that trusts the numpy mirror misses a key whose update
    already returned.  On fixed code (no mirror in the read path) the
    pause point never fires and the lookup always succeeds.

    Returns ``lookup_missed=True`` when the stale read was observed.
    """
    from .instrument import monitor_session

    sched = InterleavingScheduler(timeout=timeout)

    def on_numpy_publish(s: InterleavingScheduler, point: EventPoint) -> None:
        s.bump("at_mirror_write")
        s.bump("writer_progress")  # published atomically, mirror still stale
        s.pause_at("mirror")

    sched.on("numpy_publish", on_numpy_publish)

    locals_ = [HashStats(), HashStats()]
    result = ScenarioResult(stats=HashStats())

    def writer() -> None:
        table.insert_one_threadsafe(key, 0, locals_[0])
        sched.bump("writer_progress")  # completed (the fixed-code path)

    def updater() -> None:
        # Wait until the writer has published through the atomic store:
        # under the seeded bug it is now paused just before the mirror
        # write; on fixed code it has simply finished.
        sched.wait_count("writer_progress", 1)
        table.insert_one_threadsafe(key, 0, locals_[1])
        # The update committed; a linearizable lookup must now find it.
        result.lookup_missed = table.lookup(key) is None
        sched.release("mirror")

    with monitor_session(sched):
        _run_threads([writer, updater], timeout)

    merged = HashStats()
    for s in locals_:
        merged = merged.merged_with(s)
    result.stats = merged
    result.per_thread = locals_
    return result


def lost_update_scenario(table: ConcurrentHashTable, timeout: float = 10.0,
                         ) -> ScenarioResult:
    """Make the shared-stats lost update deterministic.

    Requires the seeded ``shared_stats`` bug: thread A reads the shared
    ``stats.ops`` and pauses at ``stats_rmw``; thread B then runs its
    whole increment; A resumes and stores its stale value, erasing B's
    increment.  On fixed code the pause point never fires, both
    increments go through the stats lock, and no update is lost.

    ``notes["ops_recorded"]`` is the final shared count;
    ``notes["ops_expected"]`` is 2.
    """
    from .instrument import monitor_session

    sched = InterleavingScheduler(timeout=timeout)

    def on_stats_rmw(s: InterleavingScheduler, point: EventPoint) -> None:
        if s.bump("rmw_started") == 1:
            s.bump("first_progress")  # mid-RMW, stale ops value in hand
            s.pause_at("rmw")  # first thread parks mid-RMW

    sched.on("stats_rmw", on_stats_rmw)

    keys = [0xAAAA, 0xBBBB]

    def first() -> None:
        table.insert_one_threadsafe(keys[0], 0)  # local=None: shared stats
        sched.bump("first_progress")  # completed (the fixed-code path)

    def second() -> None:
        sched.wait_count("first_progress", 1)
        table.insert_one_threadsafe(keys[1], 0)
        sched.release("rmw")

    with monitor_session(sched):
        _run_threads([first, second], timeout)

    return ScenarioResult(
        stats=table.stats,
        notes={"ops_recorded": table.stats.ops, "ops_expected": 2},
    )


def stress_threaded(table: ConcurrentHashTable, n_distinct: int = 64,
                    n_ops: int = 4096, n_threads: int = 8,
                    seed: int = 2017) -> list[HashStats]:
    """Duplicate-heavy threaded stress load (no scheduling, real racing)."""
    rng = np.random.default_rng(seed)
    keys = np.unique(
        rng.integers(0, 1 << 30, size=n_distinct, dtype=np.uint64)
    )
    kmers = keys[rng.integers(0, keys.size, size=n_ops)]
    slots = rng.integers(0, 9, size=n_ops).astype(np.int64)
    return table.insert_threaded(kmers, slots, n_threads=n_threads)


def stress_shared_path(table: ConcurrentHashTable, n_distinct: int = 64,
                       n_ops: int = 2048, n_threads: int = 8,
                       seed: int = 2017) -> None:
    """Stress the shared-stats insert path with concurrent lookups.

    Unlike :func:`stress_threaded` (which hands each worker a private
    ``HashStats``), every insert here passes ``local=None`` so the
    workers contend on the *shared* ``table.stats`` — the path the
    ``shared_stats`` seeded bug corrupts.  Half the threads run lookups
    concurrently, which is what records the numpy-mirror reads the
    ``numpy_publish`` seeded bug makes racy.  On fixed code both paths
    are clean under the lockset monitor.
    """
    rng = np.random.default_rng(seed)
    keys = np.unique(
        rng.integers(0, 1 << 30, size=n_distinct, dtype=np.uint64)
    )
    kmers = keys[rng.integers(0, keys.size, size=n_ops)]
    slots = rng.integers(0, 9, size=n_ops).astype(np.int64)
    n_writers = max(1, n_threads // 2)
    bounds = np.linspace(0, n_ops, n_writers + 1).astype(int)
    errors: list[BaseException] = []
    done = threading.Event()

    def write(t: int) -> None:
        try:
            for i in range(bounds[t], bounds[t + 1]):
                table.insert_one_threadsafe(int(kmers[i]), int(slots[i]))
        except BaseException as exc:  # pragma: no cover - diagnostics
            errors.append(exc)

    def read() -> None:
        # At least one full pass even if this thread is only scheduled
        # after the writers finished: the lockset state machine is
        # synchronization-order based, not wall-clock based, so a read
        # that follows the seeded unsynchronized publish still records
        # the race — without this, a starved reader on a loaded
        # single-core box exits having traced nothing.
        try:
            first = True
            while first or not done.is_set():
                first = False
                for key in keys[:8]:
                    table.lookup(int(key))
        except BaseException as exc:  # pragma: no cover - diagnostics
            errors.append(exc)

    writers = [threading.Thread(target=write, args=(t,), name=f"writer-{t}")
               for t in range(n_writers)]
    readers = [threading.Thread(target=read, name=f"reader-{t}")
               for t in range(max(1, n_threads - n_writers))]
    for t in writers + readers:
        t.start()
    for t in writers:
        t.join()
    done.set()
    for t in readers:
        t.join()
    table._sync_mirror()
    if errors:
        raise errors[0]
