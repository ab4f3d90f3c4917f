"""Tests for repro.concurrentsub.workqueue (the srv/cns protocol)."""

import threading
import time

import pytest

from repro.checks.instrument import monitor_session
from repro.checks.schedule import InterleavingScheduler
from repro.concurrentsub.workqueue import (
    ProcessWorkQueue,
    QueueClosed,
    seed_queue_bugs,
)


def _published_up_front(items) -> ProcessWorkQueue:
    """A work list known up front: every item published, then closed."""
    q = ProcessWorkQueue(len(items))
    for item in items:
        q.publish(item)
    q.close()
    return q


class TestProcessWorkQueuePublishedUpFront:
    """Step 1's chunk dispenser: the whole work list before any claim."""

    def test_weighted_claims_are_consecutive(self):
        q = _published_up_front(list(range(7)))
        assert q.claim(3, timeout=2.0) == [0, 1, 2]
        assert q.claim(2, timeout=2.0) == [3, 4]

    def test_weight_exceeding_remaining_returns_tail(self):
        q = _published_up_front(list(range(5)))
        assert q.claim(3, timeout=2.0) == [0, 1, 2]
        # Only two items remain; an oversized claim takes just those.
        assert q.claim(10, timeout=2.0) == [3, 4]

    def test_drained_queue_returns_empty_forever(self):
        q = _published_up_front([0, 1])
        assert q.claim(2, timeout=2.0) == [0, 1]
        assert q.claim(1, timeout=2.0) == []
        assert q.claim(5, timeout=2.0) == []
        assert q.published() == 2

    def test_weight_below_one_rejected(self):
        q = _published_up_front([0, 1, 2])
        with pytest.raises(ValueError):
            q.claim(0)
        with pytest.raises(ValueError):
            q.claim(-2)
        # The failed claims must not have consumed items.
        assert q.claim(3, timeout=2.0) == [0, 1, 2]

    def test_zero_item_queue(self):
        q = _published_up_front([])
        t0 = time.monotonic()
        assert q.claim(1, timeout=30.0) == []
        assert time.monotonic() - t0 < 5.0  # closed: no wait for a publish
        assert q.published() == 0

    def test_negative_capacity_rejected(self):
        # A work list's length sizes the queue; a negative size is refused
        # before any shared state is made.
        with pytest.raises(ValueError):
            ProcessWorkQueue(-1)


class TestProcessWorkQueue:
    def test_publish_then_claim(self):
        q = ProcessWorkQueue(4)
        assert q.publish("a") == 0
        assert q.publish("b") == 1
        assert q.claim(1, timeout=2.0) == ["a"]
        assert q.claim(5, timeout=2.0) == ["b"]
        assert q.published() == 2

    def test_closed_and_drained_returns_empty(self):
        q = ProcessWorkQueue(2)
        q.publish("x")
        q.close()
        assert q.claim(1, timeout=2.0) == ["x"]
        assert q.claim(1, timeout=2.0) == []
        assert q.claim(3, timeout=2.0) == []

    def test_publish_after_close_rejected(self):
        q = ProcessWorkQueue(2)
        q.close()
        with pytest.raises(QueueClosed):
            q.publish("late")

    def test_publish_beyond_capacity_rejected(self):
        q = ProcessWorkQueue(1)
        q.publish("only")
        with pytest.raises(IndexError):
            q.publish("overflow")

    def test_abort_unblocks_immediately(self):
        q = ProcessWorkQueue(3)
        q.publish("never-delivered")
        q.abort()
        t0 = time.perf_counter()
        assert q.claim(1, timeout=30.0) == []
        assert time.perf_counter() - t0 < 5.0

    def test_claim_weight_below_one_rejected(self):
        q = ProcessWorkQueue(1)
        with pytest.raises(ValueError):
            q.claim(0)

    def test_claim_timeout_raises_instead_of_hanging(self):
        q = ProcessWorkQueue(1)  # open, nothing published, nobody will
        t0 = time.perf_counter()
        with pytest.raises(QueueClosed):
            q.claim(1, timeout=0.2)
        assert time.perf_counter() - t0 < 5.0

    def test_claim_blocks_until_publish(self):
        q = ProcessWorkQueue(1)
        got = []

        def consumer():
            got.extend(q.claim(1, timeout=10.0))

        t = threading.Thread(target=consumer)
        t.start()
        time.sleep(0.05)
        q.publish("late")
        t.join(timeout=10.0)
        assert got == ["late"]

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ProcessWorkQueue(-1)

    def test_cross_process_claims_cover_all_items(self):
        from repro.parallel.pool import default_context, run_workers

        ctx = default_context()
        q = ProcessWorkQueue(6, ctx=ctx)
        for i in range(6):
            q.publish(i)
        q.close()
        results = run_workers(_drain_worker, 2, args=(q,), ctx=ctx,
                              timeout=60.0)
        assert sorted(x for claimed in results for x in claimed) == list(range(6))


def _claim_pair(q: ProcessWorkQueue) -> tuple[list, list[str]]:
    """Two threads claim once each, held together at ``claim_rmw``.

    The barrier is the ``split_claim`` counterexample's schedule: both
    claimers read ``cns`` before either advances it.  A fixed queue
    never reaches the point, so the barrier is never armed.  Returns
    the items claimed and the errors of stranded claimers.
    """
    sched = InterleavingScheduler(timeout=10.0)

    def at_claim_rmw(s, point) -> None:
        if s.bump("at_claim") >= 2:
            s.release("claim")
        s.pause_at("claim")

    sched.on("claim_rmw", at_claim_rmw)
    got: list = []
    stranded: list[str] = []

    def claimer() -> None:
        try:
            got.extend(q.claim(timeout=1.0))
        except QueueClosed as exc:
            stranded.append(str(exc))

    with monitor_session(sched):
        threads = [threading.Thread(target=claimer) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
    return got, stranded


class TestProcessWorkQueueSeededBugs:
    """``seed_queue_bugs`` breaks the queue that builds run."""

    def test_unknown_bug_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            with seed_queue_bugs("no_such_bug"):
                pass

    def test_split_claim_double_reserves_one_item(self):
        q = _published_up_front(["part-0"])
        with seed_queue_bugs("split_claim"):
            got, stranded = _claim_pair(q)
        assert got == ["part-0"]
        assert len(stranded) == 1
        assert "reserved item never arrived" in stranded[0]

    def test_fixed_claim_gives_one_item_and_one_clean_exit(self):
        got, stranded = _claim_pair(_published_up_front(["part-0"]))
        assert got == ["part-0"]
        assert stranded == []

    def test_early_srv_reserves_before_the_put(self):
        q = ProcessWorkQueue(1, claim_timeout=0.5)
        seen: dict = {}

        def at_early_srv(s, point) -> None:
            # Claim in the producer's gap: srv already covers the item,
            # but the transport does not hold it yet.
            seen["published"] = q.published()
            try:
                seen["claimed"] = q.claim()
            except QueueClosed as exc:
                seen["stranded"] = str(exc)

        sched = InterleavingScheduler(timeout=10.0)
        sched.on("early_srv", at_early_srv)
        with seed_queue_bugs("early_srv"), monitor_session(sched):
            assert q.publish("part-0") == 0
        assert seen["published"] == 1
        assert "never arrived" in seen["stranded"]

    def test_fixed_queue_never_strands_a_claimer(self):
        # A live producer against three claimers: every item is claimed
        # exactly once and every claimer exits cleanly on close().
        n = 60
        q = ProcessWorkQueue(n, claim_timeout=10.0)
        claimed: list = []
        errors: list[BaseException] = []

        def claimer() -> None:
            try:
                while items := q.claim():
                    claimed.extend(items)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=claimer) for _ in range(3)]
        for t in threads:
            t.start()
        for i in range(n):
            q.publish(i)
        q.close()
        for t in threads:
            t.join(timeout=20.0)
        assert errors == []
        assert sorted(claimed) == list(range(n))


def _drain_worker(worker_id: int, q: ProcessWorkQueue) -> list:
    out = []
    while True:
        items = q.claim(2, timeout=30.0)
        if not items:
            return out
        out.extend(items)
