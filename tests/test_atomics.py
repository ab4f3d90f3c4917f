"""Tests for repro.concurrentsub.atomics (real-thread correctness)."""

import threading

import pytest

from repro.concurrentsub.atomics import AtomicInt64Array


class TestAtomicArrayBasics:
    def test_load_store(self):
        arr = AtomicInt64Array(4)
        arr.store(2, 42)
        assert arr.load(2) == 42
        assert arr.load(0) == 0

    def test_add_returns_previous(self):
        arr = AtomicInt64Array(2)
        assert arr.add(0, 5) == 0
        assert arr.add(0, 3) == 5
        assert arr.load(0) == 8

    def test_cas_success_and_failure(self):
        arr = AtomicInt64Array(2)
        assert arr.compare_and_swap(0, 0, 7)
        assert not arr.compare_and_swap(0, 0, 9)
        assert arr.load(0) == 7
        assert arr.n_cas == 2
        assert arr.n_cas_failed == 1

    def test_snapshot(self):
        arr = AtomicInt64Array(3)
        arr.store(1, 11)
        snap = arr.snapshot()
        arr.store(1, 22)
        assert snap[1] == 11

    def test_sizes(self):
        assert len(AtomicInt64Array(10)) == 10
        with pytest.raises(ValueError):
            AtomicInt64Array(-1)
        with pytest.raises(ValueError):
            AtomicInt64Array(4, n_stripes=0)

    def test_reset_stats(self):
        arr = AtomicInt64Array(2)
        arr.add(0)
        arr.reset_stats()
        assert arr.n_add == 0


class TestAtomicArrayConcurrency:
    def test_concurrent_adds_lose_nothing(self):
        arr = AtomicInt64Array(8, n_stripes=4)
        n_threads, per_thread = 8, 2000

        def work():
            for i in range(per_thread):
                arr.add(i % 8, 1)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert arr.snapshot().sum() == n_threads * per_thread

    def test_cas_mutual_exclusion(self):
        # Exactly one thread may win the CAS on each cell.
        arr = AtomicInt64Array(16)
        winners: list[int] = []
        lock = threading.Lock()

        def work(tid: int):
            for cell in range(16):
                if arr.compare_and_swap(cell, 0, tid + 1):
                    with lock:
                        winners.append(cell)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(winners) == list(range(16))

