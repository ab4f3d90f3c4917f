"""Install/compose access monitors over the instrumented primitives.

The instrumentation surface is a single process-global hook
(:func:`repro.concurrentsub.atomics.set_monitor`) consulted by

* every :class:`~repro.concurrentsub.atomics.AtomicInt64Array`
  operation,
* every :class:`~repro.concurrentsub.atomics.TracedLock`
  acquire/release (the hash tables' count/occupied/stats locks), and
* the ``_trace``/``_mon_event`` shim calls in
  :mod:`repro.core.hashtable` covering raw numpy touches of
  ``keys``/``counts``/``state``.

This module provides context managers that install a monitor for a
scoped region and restore the previous one afterwards (sessions nest),
and a :class:`CompositeMonitor` to run a lockset analysis and an
interleaving scheduler simultaneously.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..concurrentsub import atomics
from .lockset import LocksetMonitor, Monitor


class CompositeMonitor(Monitor):
    """Fan every instrumentation callback out to several monitors.

    Used to run the lockset detector and the interleaving scheduler in
    the same session: the scheduler steers threads into the adversarial
    window while the detector watches the accesses that happen there.
    """

    def __init__(self, *monitors: Monitor) -> None:
        self.monitors = tuple(monitors)

    def lock_acquired(self, lock_id) -> None:
        for m in self.monitors:
            m.lock_acquired(lock_id)

    def lock_released(self, lock_id) -> None:
        for m in self.monitors:
            m.lock_released(lock_id)

    def record(self, label, owner, index, kind) -> None:
        for m in self.monitors:
            m.record(label, owner, index, kind)

    def event(self, name, index=None, value=None) -> None:
        for m in self.monitors:
            m.event(name, index, value)


@contextmanager
def monitor_session(monitor: Monitor):
    """Install ``monitor`` globally for the duration of the block.

    The previously installed monitor (usually ``None``) is restored on
    exit, so sessions nest: an inner session shadows an outer one, which
    keeps deliberately-seeded races in detector self-tests from leaking
    into a suite-wide ``--repro-race-detect`` run.
    """
    previous = atomics.set_monitor(monitor)
    try:
        yield monitor
    finally:
        atomics.set_monitor(previous)


@contextmanager
def lockset_session(capture_stacks: bool = True):
    """Run the block under a fresh :class:`LocksetMonitor`.

    >>> with lockset_session() as mon:
    ...     table.insert_threaded(kmers, slots, n_threads=8)
    >>> mon.assert_no_races()
    """
    with monitor_session(LocksetMonitor(capture_stacks=capture_stacks)) as mon:
        yield mon
