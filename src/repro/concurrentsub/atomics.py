"""Atomic primitives over shared numpy arrays.

CPython has no public compare-and-swap on array cells, so atomicity is
provided by an array of striped locks: slot ``i`` is guarded by lock
``i % n_stripes``.  Under the GIL this gives the same linearizable
semantics as the hardware ``atomicCAS`` / atomic-increment instructions
the paper's implementation uses on the CPU and the GPU (§III-D), at the
cost of lock overhead — which is fine, because the *performance* of the
concurrent algorithms is evaluated on the simulated-device substrate
(``repro.hetsim``), while these primitives establish *correctness* under
real thread interleavings.

All operations count events, so callers can report contention
statistics (the paper's 80%-lock-reduction claim is measured from these
counters).

Instrumented mode
-----------------

The module carries a process-global *access monitor* hook used by the
concurrency tooling in :mod:`repro.checks`.  When no monitor is
installed (the default) every hook is a single ``is None`` test; when
one is installed (see :func:`set_monitor`), each atomic operation
reports

* the stripe lock it acquires and releases (``lock_acquired`` /
  ``lock_released``),
* the cell it touches and whether the touch is a read or a write
  (``record``), and
* a named control point after the operation (``event``), which the
  deterministic interleaving scheduler uses to pause threads at
  adversarial moments (e.g. between a won CAS and the publication
  store).

``record`` is invoked while the stripe lock is held, so a lockset
analysis sees the stripe in the candidate set; ``event`` is invoked
*outside* the lock so a scheduler that blocks the thread there cannot
deadlock other stripes.
"""

from __future__ import annotations

import threading

import numpy as np

_MONITOR = None


def set_monitor(monitor):
    """Install ``monitor`` as the global access monitor; returns the old one.

    ``monitor`` must provide ``lock_acquired(lock_id)``,
    ``lock_released(lock_id)``, ``record(label, owner, index, kind)`` and
    ``event(name, index, value)`` (see ``repro.checks.lockset.Monitor``).
    Pass ``None`` to uninstall.
    """
    global _MONITOR
    previous = _MONITOR
    _MONITOR = monitor
    return previous


def monitor():
    """The currently installed access monitor, or ``None``."""
    return _MONITOR


class TracedLock:
    """A ``threading.Lock`` wrapper that reports to the access monitor.

    Drop-in for the ``with lock:`` idiom; adds one global read per
    acquire/release when no monitor is installed.  The lock identity
    reported to the monitor is ``("lock", name, id(self))`` so two locks
    with the same name on different objects stay distinct.
    """

    __slots__ = ("_lock", "name")

    def __init__(self, name: str) -> None:
        self._lock = threading.Lock()
        self.name = name

    def _lock_id(self):
        return ("lock", self.name, id(self))

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._lock.acquire(blocking, timeout)  # checks: allow[R4] delegation shim
        if got:
            m = _MONITOR
            if m is not None:
                m.lock_acquired(self._lock_id())
        return got

    def release(self) -> None:
        m = _MONITOR
        if m is not None:
            m.lock_released(self._lock_id())
        self._lock.release()  # checks: allow[R4] delegation shim

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> "TracedLock":
        self.acquire()  # checks: allow[R4] delegation shim
        return self

    def __exit__(self, *exc) -> None:
        self.release()  # checks: allow[R4] delegation shim

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TracedLock({self.name!r})"


class AtomicInt64Array:
    """A fixed-size int64 array with CAS / add / load / store.

    Thread-safe via striped locks.  Also tracks operation counts:
    ``n_cas``, ``n_cas_failed``, ``n_add``, ``n_load``, ``n_store``.
    """

    def __init__(self, size: int, n_stripes: int = 64) -> None:
        if size < 0:
            raise ValueError("size must be >= 0")
        if n_stripes < 1:
            raise ValueError("n_stripes must be >= 1")
        self._data = np.zeros(size, dtype=np.int64)
        self._locks = [threading.Lock() for _ in range(n_stripes)]
        self._n_stripes = n_stripes
        self._stats_lock = threading.Lock()
        self.n_cas = 0
        self.n_cas_failed = 0
        self.n_add = 0
        self.n_load = 0
        self.n_store = 0

    def __len__(self) -> int:
        return int(self._data.size)

    def _lock_for(self, index: int) -> threading.Lock:
        return self._locks[index % self._n_stripes]

    def _stripe_id(self, index: int):
        return ("stripe", id(self), index % self._n_stripes)

    def load(self, index: int) -> int:
        """Atomically read one cell."""
        m = _MONITOR
        sid = self._stripe_id(index) if m is not None else None
        with self._lock_for(index):
            if m is not None:
                m.lock_acquired(sid)
                m.record("atomic-state", id(self), index, "read")
            value = int(self._data[index])
        if m is not None:
            m.lock_released(sid)
        with self._stats_lock:
            self.n_load += 1
        if m is not None:
            m.event("load", index, value)
        return value

    def store(self, index: int, value: int) -> None:
        """Atomically write one cell."""
        m = _MONITOR
        sid = self._stripe_id(index) if m is not None else None
        with self._lock_for(index):
            if m is not None:
                m.lock_acquired(sid)
                m.record("atomic-state", id(self), index, "write")
            self._data[index] = value
        if m is not None:
            m.lock_released(sid)
        with self._stats_lock:
            self.n_store += 1
        if m is not None:
            m.event("store", index, value)

    def add(self, index: int, delta: int = 1) -> int:
        """Atomic fetch-and-add; returns the *previous* value."""
        m = _MONITOR
        sid = self._stripe_id(index) if m is not None else None
        with self._lock_for(index):
            if m is not None:
                m.lock_acquired(sid)
                m.record("atomic-state", id(self), index, "write")
            old = int(self._data[index])
            self._data[index] = old + delta
        if m is not None:
            m.lock_released(sid)
        with self._stats_lock:
            self.n_add += 1
        if m is not None:
            m.event("add", index, old)
        return old

    def compare_and_swap(self, index: int, expected: int, new: int) -> bool:
        """Atomic CAS; returns ``True`` when the swap happened."""
        m = _MONITOR
        if m is not None:
            # Control point *before* the CAS: the scheduler's CAS-storm
            # scenario gathers every contender here and releases them
            # together to force a maximal cluster of lost races.
            m.event("pre_cas", index, expected)
        sid = self._stripe_id(index) if m is not None else None
        with self._lock_for(index):
            if m is not None:
                m.lock_acquired(sid)
            ok = int(self._data[index]) == expected
            if ok:
                self._data[index] = new
            if m is not None:
                m.record("atomic-state", id(self), index, "write" if ok else "read")
        if m is not None:
            m.lock_released(sid)
        with self._stats_lock:
            self.n_cas += 1
            if not ok:
                self.n_cas_failed += 1
        if m is not None:
            m.event("cas", index, 1 if ok else 0)
        return ok

    def snapshot(self) -> np.ndarray:
        """Copy of the underlying array (not atomic across cells).

        Deliberately *not* reported to the access monitor: bulk
        snapshots are a fork-join convenience read outside the per-cell
        lockset model (Eraser's known fork/join limitation).
        """
        return self._data.copy()

    def raw(self) -> np.ndarray:
        """The underlying array; only safe to touch when no threads run."""
        return self._data

    def reset_stats(self) -> None:
        with self._stats_lock:
            self.n_cas = self.n_cas_failed = 0
            self.n_add = self.n_load = self.n_store = 0

