"""The work-stealing partition queue (the paper's §III-E protocol).

ParaHash hands partitions to processors through two shared counters:

* ``srv`` — tail of the queue, advanced only by the one producer as it
  publishes partitions;
* ``cns`` — head of the queue; a processor takes a *queuing id* by
  fetch-incrementing ``cns`` and may consume partition ``id`` once
  ``srv >= id + 1`` (the paper's ``srv >= cns`` availability test).

:class:`ProcessWorkQueue` is that protocol; the processes backend
(:mod:`repro.parallel.backend`) hands Step 1's read chunks and Step 2's
partitions to its workers through it.  The paper's output side
(``prd``/``wrt``, a writer draining finished partitions) is modelled in
:mod:`repro.hetsim.pipeline`; the processes backend streams finished
partitions to its parent through the worker event channel instead.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
from contextlib import contextmanager

from . import atomics


class QueueClosed(RuntimeError):
    """Raised when a claim can no longer be served (a stranded claimer)."""


# -- test-only seeded bugs ------------------------------------------------------
#
# Broken variants of the srv/cns protocol, gated exactly like the
# hashtable's seeded bugs: the model checker refutes their abstract
# models (repro.checks.protocols.workqueue) and the replay layer
# (repro.checks.replay) re-enables them here to reproduce each
# counterexample against this real implementation.

_KNOWN_QUEUE_BUGS = frozenset({"split_claim", "early_srv"})
_SEEDED_QUEUE_BUGS: frozenset = frozenset()


@contextmanager
def seed_queue_bugs(*names: str):
    """TEST ONLY: re-enable broken claim/publish variants.

    ``split_claim`` — the consumer claim becomes a read of ``cns``
    followed by a separate increment instead of one fetch-increment:
    two claimers can read the same ticket (double-consume; the
    ``workqueue[split_claim]`` model variant).

    ``early_srv`` — the producer advances ``srv`` *before* storing the
    slot: a claim can reserve a partition that is not there yet (the
    ``workqueue[early_srv]`` model variant).
    """
    unknown = set(names) - _KNOWN_QUEUE_BUGS
    if unknown:
        raise ValueError(f"unknown seeded queue bugs: {sorted(unknown)}")
    global _SEEDED_QUEUE_BUGS
    previous = _SEEDED_QUEUE_BUGS
    _SEEDED_QUEUE_BUGS = frozenset(previous | set(names))
    try:
        yield
    finally:
        _SEEDED_QUEUE_BUGS = previous


def _mon_event(name: str, index: int | None = None, value=None) -> None:
    """Report a named control point to the installed monitor, if any."""
    m = atomics.monitor()
    if m is not None:
        m.event(name, index, value)


# -- publish/claim (the srv/cns protocol) ----------------------------------------

_WQ_OPEN = 0
_WQ_CLOSED = 1
_WQ_ABORTED = 2


class ProcessWorkQueue:
    """Bounded publish/claim queue — the srv/cns protocol with a *live
    producer*, for consumer processes and threads alike.

    Picklable items travel through a ``multiprocessing`` queue; the
    ``srv``/``cns`` counters and the open/closed state live in shared
    memory.  The parent may **publish** work items while consumer
    processes are already claiming — the handoff that lets the
    workers of :mod:`repro.parallel.backend` wait, warm, across the
    Step-1 barrier for the Step-2 partitions the parent publishes once
    every Step-1 report is in.  A work list fully known up front
    (Step 1's read chunks) is the degenerate case: publish every item,
    then :meth:`close` before any consumer starts.

    **Weighted claims** generalize §III-E's CPU/GPU dispatch: a
    consumer standing in for a throughput-``w`` device reserves up to
    ``w`` items per visit with one ``cns`` fetch-add.  Weight 1 is
    plain work stealing.

    Protocol:

    * ``publish(item)`` — producer side; advances ``srv`` after the item
      is enqueued, so a claim never reserves an item that has not been
      handed to the transport yet.
    * ``claim(weight)`` — consumer side; atomically reserves up to
      ``weight`` published-but-unclaimed items (the weighted ``cns``
      fetch-add) and returns them.  Blocks while the queue is open and
      empty; returns ``[]`` once the queue is closed and drained.
    * ``close()`` — no more publishes; blocked claimers drain and exit.
    * ``abort()`` — poison the queue: every pending and future claim
      returns ``[]`` immediately.  The crash-containment hatch — a
      parent whose merger fails (or that is tearing down after a worker
      crash) aborts so no consumer is ever left waiting on a queue
      nobody will fill.

    The queue is **bounded**: ``capacity`` is the most items that may
    ever be published (they are addressable work units, not an
    unbounded stream), which keeps the shared counters meaningful and
    turns producer bugs into an immediate ``IndexError`` instead of an
    unbounded pile-up.

    **No condition variables — by design.**  Empty-queue claimers use a
    short timed-sleep poll under a plain lock instead of
    ``multiprocessing.Condition.wait``.  A ``Condition`` keeps a
    sleeper count in shared semaphores; a consumer *terminated* while
    blocked in ``wait`` leaves that count incremented forever, after
    which any ``notify`` blocks waiting for the dead sleeper to
    acknowledge — so a crash-containment path that kills workers (as
    :func:`repro.parallel.pool.run_workers` does on failure) would
    deadlock the parent's own ``abort``/``publish``.  With polling, a
    killed consumer is simply gone: the lock is only ever held for a
    few straight-line statements, never across a blocking wait, so
    every other participant keeps making progress.
    """

    #: Seconds between availability polls while the queue is empty.
    POLL_SECONDS = 0.02

    def __init__(self, capacity: int,
                 ctx: mp.context.BaseContext | None = None,
                 claim_timeout: float = 120.0) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        ctx = ctx or mp.get_context()
        self.capacity = capacity
        self.claim_timeout = claim_timeout
        self._lock = ctx.Lock()
        self._srv = ctx.Value("q", 0, lock=False)
        self._cns = ctx.Value("q", 0, lock=False)
        self._state = ctx.Value("b", _WQ_OPEN, lock=False)
        self._items = ctx.Queue()

    def publish(self, item) -> int:
        """Enqueue one item and advance ``srv``; returns its index."""
        with self._lock:
            if self._state.value != _WQ_OPEN:
                raise QueueClosed("publish on a closed or aborted queue")
            index = int(self._srv.value)
            if index >= self.capacity:
                raise IndexError(
                    f"publish beyond declared capacity {self.capacity}"
                )
            if "early_srv" not in _SEEDED_QUEUE_BUGS:
                self._items.put(item)
                self._srv.value = index + 1
                return index
            self._srv.value = index + 1
        # Corpus bug (workqueue[early_srv]): srv advanced and the lock
        # dropped before the put, so a claim can reserve an item the
        # transport does not hold yet.  The ``early_srv`` point lets the
        # replay scheduler park the producer in the gap.
        _mon_event("early_srv", index)
        self._items.put(item)
        return index

    def close(self) -> None:
        """Producer is done; drained claimers get ``[]`` from now on."""
        with self._lock:
            if self._state.value == _WQ_OPEN:
                self._state.value = _WQ_CLOSED

    def abort(self) -> None:
        """Poison the queue: all claims return ``[]`` immediately."""
        with self._lock:
            self._state.value = _WQ_ABORTED

    def published(self) -> int:
        """Items published so far."""
        with self._lock:
            return int(self._srv.value)

    def claim(self, weight: int = 1, timeout: float | None = None) -> list:
        """Reserve and return up to ``weight`` items (``[]`` = no more).

        Blocks (polling) while the queue is open but empty.  ``timeout``
        bounds the total wait (default: the queue's ``claim_timeout``);
        a claimer that outlives it raises :class:`QueueClosed` rather
        than hanging on a producer that died without closing.
        """
        if weight < 1:
            raise ValueError("weight must be >= 1")
        timeout = self.claim_timeout if timeout is None else timeout
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                state = int(self._state.value)
                if state == _WQ_ABORTED:
                    return []
                seen = int(self._cns.value)
                take = min(weight, int(self._srv.value) - seen)
                if take > 0 and "split_claim" not in _SEEDED_QUEUE_BUGS:
                    self._cns.value = seen + take
                    break
                if take <= 0 and state == _WQ_CLOSED:
                    return []
            if take > 0:
                # Corpus bug (workqueue[split_claim]): the cns read and
                # its advance are two lock sections, not one fetch-add;
                # two claimers that interleave at the ``claim_rmw``
                # point reserve the same items.
                _mon_event("claim_rmw", seen)
                with self._lock:
                    self._cns.value = seen + take
                break
            if time.monotonic() >= deadline:
                raise QueueClosed(
                    f"no publish within {timeout:.0f}s on an open "
                    "queue (producer gone?)"
                )
            time.sleep(self.POLL_SECONDS)
        # The reserved count never exceeds completed puts (puts happen
        # under the lock *before* srv advances), so these gets cannot
        # starve; the timeout guards against a torn-down queue.
        out = []
        for _ in range(take):
            try:
                out.append(self._items.get(timeout=max(1.0, timeout)))
            except queue_mod.Empty:
                raise QueueClosed(
                    "reserved item never arrived (queue torn down?)"
                ) from None
        return out
