"""Concurrent hash table with two-word keys (31 < K <= 63).

This is the configuration the state-transfer protocol exists for: the
key spans **two machine words**, so it cannot be claimed with a single
hardware CAS — which is exactly the limitation of word-sized CAS tables
the paper calls out (§I, §II-C).  Instead the per-slot ``occupancy``
flag is CASed EMPTY→LOCKED, *both* key words are written under the
lock, and OCCUPIED is published; from then on the two words are
immutable and read without synchronization.

The vectorized batch path and the real-thread path produce identical
tables; telemetry uses the same :class:`repro.core.hashtable.HashStats`.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..concurrentsub.atomics import AtomicInt64Array, TracedLock
from ..concurrentsub.hashfunc import mix64, mix64_int
from ..core.hashtable import SPIN_LIMIT, _mon_event, _trace
from ..core.estimator import next_power_of_two
from ..core.hashtable import (
    EMPTY,
    LOCKED,
    OCCUPIED,
    HashStats,
    TableFullError,
    batch_insert,
)
from ..graph.dbg import N_SLOTS
from .kmer2w import check_2w_k, split_int
from .store import BigDeBruijnGraph

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_GOLDEN_INT = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def hash_planes(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """64-bit mix of a two-word key (vectorized)."""
    with np.errstate(over="ignore"):
        return mix64(np.asarray(lo, dtype=np.uint64) ^ (mix64(hi) + _GOLDEN))


def hash_planes_int(hi: int, lo: int) -> int:
    """Scalar twin of :func:`hash_planes`."""
    return mix64_int(lo ^ ((mix64_int(hi) + _GOLDEN_INT) & _MASK64))


class TwoWordHashTable:
    """Fixed-capacity open-addressing table over (hi, lo) uint64 keys."""

    def __init__(self, capacity: int, k: int) -> None:
        check_2w_k(k)
        self.capacity = next_power_of_two(max(2, capacity))
        self._mask = np.uint64(self.capacity - 1)
        self.k = k
        self.state = np.zeros(self.capacity, dtype=np.int8)  # checks: allow[R1] construction: arrays are private until the table is shared
        self.keys_hi = np.zeros(self.capacity, dtype=np.uint64)  # checks: allow[R1] construction: arrays are private until the table is shared
        self.keys_lo = np.zeros(self.capacity, dtype=np.uint64)  # checks: allow[R1] construction: arrays are private until the table is shared
        self.counts = np.zeros((self.capacity, N_SLOTS), dtype=np.uint32)  # checks: allow[R1] construction: arrays are private until the table is shared
        self.n_occupied = 0
        self._init_runtime()

    def _init_runtime(self) -> None:
        """State shared by both constructors (stats + lazy threaded locks)."""
        self.stats = HashStats()
        self._atomic_state: AtomicInt64Array | None = None
        self._count_locks: list[TracedLock] | None = None
        self._occupied_lock = TracedLock("occupied_lock")
        self._stats_lock = TracedLock("stats_lock")
        self._init_lock = threading.Lock()

    @classmethod
    def from_views(cls, k: int, state: np.ndarray, keys_hi: np.ndarray,
                   keys_lo: np.ndarray, counts: np.ndarray,
                   n_occupied: int | None = None) -> "TwoWordHashTable":
        """Construct a table over externally owned buffers (no copy).

        Two-word twin of
        :meth:`repro.core.hashtable.ConcurrentHashTable.from_views`:
        the four arrays are typically views over one shared-memory
        segment, so the process backend can fill and read big-K tables
        without pickling.  The caller owns buffer lifetime.
        """
        check_2w_k(k)
        capacity = int(state.size)
        if capacity < 2 or capacity & (capacity - 1):
            raise ValueError("state size must be a power of two >= 2")
        if keys_hi.shape != (capacity,) or keys_lo.shape != (capacity,) \
                or counts.shape[0] != capacity:
            raise ValueError("state, keys and counts must agree on capacity")
        table = cls.__new__(cls)
        table.capacity = capacity
        table._mask = np.uint64(capacity - 1)
        table.k = k
        table.state = state
        table.keys_hi = keys_hi
        table.keys_lo = keys_lo
        table.counts = counts
        table.n_occupied = (
            int((state == OCCUPIED).sum()) if n_occupied is None
            else int(n_occupied)
        )
        table._init_runtime()
        return table

    def detach_views(self) -> None:
        """Release array references before the owning segment closes."""
        self.state = self.keys_hi = self.keys_lo = self.counts = None  # type: ignore[assignment]  # checks: allow[R1] teardown: runs after every worker detached
        self._atomic_state = None

    @property
    def load_factor(self) -> float:
        return self.n_occupied / self.capacity

    def memory_bytes(self) -> int:
        return int(
            self.state.nbytes + self.keys_hi.nbytes + self.keys_lo.nbytes  # checks: allow[R1] size metadata only, no element access
            + self.counts.nbytes  # checks: allow[R1] size metadata only, no element access
        )

    # -- vectorized batch path -------------------------------------------------

    def insert_batch(self, hi: np.ndarray, lo: np.ndarray, values: np.ndarray,
                     chunk: int = 1 << 20) -> None:
        """Apply ``(hi, lo, slot)`` observations or vertex rows, vectorized.

        The two-word twin of
        :meth:`repro.core.hashtable.ConcurrentHashTable.insert_batch`:
        ``values`` holds one counter slot per key or ``(n, 9)`` counter
        rows of distinct keys (the rows of
        :func:`repro.bigk.construct.preaggregate_observations_2w`), with
        the same metering and errors
        (:func:`repro.core.hashtable.batch_insert`).
        """
        batch_insert(self, (hi, lo), values, chunk)

    def _key_planes(self) -> tuple[np.ndarray, ...]:
        return (self.keys_hi, self.keys_lo)  # checks: allow[R1] plane references for the single-owner batch path

    @staticmethod
    def _hash(keys: tuple[np.ndarray, ...]) -> np.ndarray:
        return hash_planes(*keys)

    def _resync_atomic(self) -> None:
        """Rebuild the atomic plane from the mirror (quiescent tables only)."""
        assert self._atomic_state is not None
        raw = self._atomic_state.raw()  # checks: allow[R3] single-threaded resync
        raw[:] = self.state  # checks: allow[R1] single-threaded resync

    # -- real-thread path --------------------------------------------------------

    def _ensure_threaded(self) -> None:
        if self._atomic_state is not None:
            return
        # Double-checked locking: see ConcurrentHashTable._ensure_threaded.
        with self._init_lock:
            if self._atomic_state is not None:
                return
            atomic = AtomicInt64Array(self.capacity, n_stripes=256)
            raw = atomic.raw()  # checks: allow[R3] pre-publication init under _init_lock
            raw[:] = self.state.astype(np.int64)
            self._count_locks = [
                TracedLock(f"count_lock[{i}]") for i in range(256)
            ]
            self._atomic_state = atomic

    def insert_one_threadsafe(self, kmer: int, slot: int,
                              local: HashStats | None = None) -> None:
        """Per-operation state machine with a genuinely multi-word key.

        Stats discipline matches the one-word table: per-thread stats
        when ``local`` is given, otherwise a scratch object merged into
        the shared ``self.stats`` under ``_stats_lock``.
        """
        self._ensure_threaded()
        if local is not None:
            self._insert_one(kmer, slot, local)
            return
        scratch = HashStats()
        self._insert_one(kmer, slot, scratch)
        with self._stats_lock:
            _trace("stats", id(self), 0, "write")
            self.stats = self.stats.merged_with(scratch)

    def _insert_one(self, kmer: int, slot: int, stats: HashStats) -> None:
        atomic = self._atomic_state
        assert atomic is not None and self._count_locks is not None
        stats.ops += 1
        stats.count_increments += 1
        hi, lo = split_int(int(kmer), self.k)
        h = hash_planes_int(hi, lo) & (self.capacity - 1)
        offset = 0
        spins = 0
        while True:
            if offset >= self.capacity:
                raise TableFullError(
                    f"probe wrapped a table of capacity {self.capacity}"
                )
            pos = (h + offset) & (self.capacity - 1)
            st = atomic.load(pos)
            if st == EMPTY:
                if atomic.compare_and_swap(pos, EMPTY, LOCKED):
                    # Both words written inside the single lock window.
                    _trace("keys_hi", id(self), pos, "write")
                    _trace("keys_lo", id(self), pos, "write")
                    self.keys_hi[pos] = np.uint64(hi)
                    self.keys_lo[pos] = np.uint64(lo)
                    stats.key_locks += 1
                    stats.inserts += 1
                    _mon_event("pre_publish", pos)
                    atomic.store(pos, OCCUPIED)
                    self._add_count(pos, slot)
                    with self._occupied_lock:
                        _trace("n_occupied", id(self), 0, "write")
                        self.n_occupied += 1
                    return
                stats.cas_failures += 1
                continue
            if st == LOCKED:
                stats.blocked_reads += 1
                spins += 1
                if spins >= SPIN_LIMIT:
                    # Yield so a descheduled writer can publish.
                    time.sleep(0)
                continue
            _trace("keys_hi", id(self), pos, "read-acq")
            _trace("keys_lo", id(self), pos, "read-acq")
            if int(self.keys_hi[pos]) == hi and int(self.keys_lo[pos]) == lo:  # checks: allow[R1] immutable after OCCUPIED publication
                stats.updates += 1
                self._add_count(pos, slot)
                return
            offset += 1
            stats.probes += 1

    def _add_count(self, pos: int, slot: int) -> None:
        assert self._count_locks is not None
        with self._count_locks[pos % len(self._count_locks)]:
            _trace("counts", id(self), pos, "write")
            self.counts[pos, slot] += 1

    def insert_threaded(self, kmers: list[int], slots: np.ndarray,
                        n_threads: int) -> list[HashStats]:
        """Run the per-op protocol from real threads over int kmers."""
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        slots = np.asarray(slots, dtype=np.int64).ravel()
        bounds = np.linspace(0, len(kmers), n_threads + 1).astype(int)
        locals_ = [HashStats() for _ in range(n_threads)]
        errors: list[BaseException] = []

        def work(t: int) -> None:
            try:
                for i in range(bounds[t], bounds[t + 1]):
                    self.insert_one_threadsafe(kmers[i], int(slots[i]), locals_[t])
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self._sync_mirror()
        if errors:
            raise errors[0]
        with self._stats_lock:
            _trace("stats", id(self), 0, "write")
            for s in locals_:
                self.stats = self.stats.merged_with(s)
        return locals_

    def _sync_mirror(self) -> None:
        """Re-sync the single-threaded numpy mirror after a fork-join."""
        if self._atomic_state is not None:
            snap = self._atomic_state.snapshot()
            self.state[:] = snap.astype(self.state.dtype)  # checks: allow[R1] single-threaded resync after fork-join

    # -- queries --------------------------------------------------------------------

    def _load_state(self, pos: int) -> int:
        """One occupancy flag, via the atomic array while threads may run."""
        atomic = self._atomic_state
        if atomic is not None:
            return atomic.load(pos)
        return int(self.state[pos])  # checks: allow[R1] single-threaded mode only (atomic path taken while threads run)

    def _state_view(self) -> np.ndarray:
        """All occupancy flags; see ConcurrentHashTable._state_view."""
        if self._atomic_state is not None:
            return self._atomic_state.snapshot().astype(np.int8)
        return self.state  # checks: allow[R1] single-threaded mode only (atomic snapshot taken while threads run)

    def lookup(self, kmer: int) -> np.ndarray | None:
        hi, lo = split_int(int(kmer), self.k)
        h = hash_planes_int(hi, lo) & (self.capacity - 1)
        for offset in range(self.capacity):
            pos = (h + offset) & (self.capacity - 1)
            st = self._load_state(pos)
            if st == EMPTY:
                return None
            if st == OCCUPIED:
                if (int(self.keys_hi[pos]) == hi  # checks: allow[R1] immutable after OCCUPIED publication
                        and int(self.keys_lo[pos]) == lo):  # checks: allow[R1] immutable after OCCUPIED publication
                    return self.counts[pos].copy()  # checks: allow[R1] racy snapshot of monotonic counters
        return None

    def to_graph(self) -> BigDeBruijnGraph:
        occ = self._state_view() == OCCUPIED
        hi = self.keys_hi[occ]  # checks: allow[R1] quiescent read-out after all inserts joined
        lo = self.keys_lo[occ]  # checks: allow[R1] quiescent read-out after all inserts joined
        counts = self.counts[occ].astype(np.uint64)  # checks: allow[R1] quiescent read-out after all inserts joined
        order = np.lexsort((lo, hi))
        return BigDeBruijnGraph(
            k=self.k, vertices_hi=hi[order], vertices_lo=lo[order],
            counts=counts[order],
        )
