"""Sharded table layout: hash-prefix shards under one table interface.

The flat layout gives every partition one table whose atomic plane and
lock stripes are shared by *all* workers; cross-process cache traffic on
those stripes grows with worker count.  The sharded layout slices the
partition's buffers by hash prefix into ``n_shards`` inner tables, each
with a private state plane and its own lock-stripe/CAS region, so
concurrent inserts mostly stay inside their own shard ("Scalable Hash
Table for NUMA Systems", PAPERS.md).

Routing is by the *top* bits of the same 64-bit mix the inner tables
hash with (``hash(key) >> shift``): the inner home slot uses the low
bits, so the two are independent.  A key's home shard is deterministic;
when the home shard is completely full the insert falls back to the
next shard (``home+1, home+2, ...`` mod S) and raises
:class:`~repro.core.hashtable.TableFullError` only when **all** shards
are exhausted.  Because a shard can never un-fill, the fallback walk is
deterministic for every later insert and lookup of the same key, and a
key can materialize in exactly one shard — shard subgraphs stay
vertex-disjoint, so the partition graph is their disjoint merge.

Both insert protocols (``locked`` state transfer and ``lockfree``
CAS-publish) run unchanged inside each shard; the wrappers here add
layout only, never touching the slot protocol.
"""

from __future__ import annotations

import threading

import numpy as np

from ..bigk.construct import merge_bigk_disjoint
from ..bigk.kmer2w import join_planes, split_int
from ..bigk.store import BigDeBruijnGraph
from ..bigk.table import TwoWordHashTable, hash_planes, hash_planes_int
from ..concurrentsub.hashfunc import mix64, mix64_int
from ..core.hashtable import (
    ConcurrentHashTable,
    HashStats,
    TableFullError,
)
from ..graph.dbg import DeBruijnGraph
from ..graph.merge import merge_disjoint
from .atomics_mp import ProcessAtomicInt64Array


def check_n_shards(n_shards: int) -> None:
    """Shard counts must be positive powers of two (prefix routing)."""
    if n_shards < 1 or n_shards & (n_shards - 1):
        raise ValueError(
            f"n_shards must be a positive power of two, got {n_shards}"
        )


def shard_capacity(capacity: int, n_shards: int) -> int:
    """Per-shard capacity: the smallest power of two >= capacity/S (>= 2)."""
    check_n_shards(n_shards)
    per = -(-int(capacity) // n_shards)  # ceil division
    size = 2
    while size < per:
        size <<= 1
    return size


class _ShardedTable:
    """Layout-only wrapper: routes operations over ``n_shards`` inner tables.

    Subclasses bind the key width (one-word or two-word inner tables)
    and the routing hash; everything layout-level — fallback rounds,
    merged stats, occupancy accounting, the process-atomics hook — lives
    here.
    """

    layout = "sharded"

    #: Inner table class; bound by subclasses.
    _inner_cls: type = None  # type: ignore[assignment]

    def _init_shards(self, shards: list, k: int, protocol: str) -> None:
        self.shards = shards
        self.n_shards = len(shards)
        self.k = k
        self.protocol = protocol
        self._shard_bits = self.n_shards.bit_length() - 1
        self._extra_stats = HashStats()
        self._extra_stats_lock = threading.Lock()

    # -- sizing / introspection ----------------------------------------------

    @property
    def capacity(self) -> int:
        return sum(sh.capacity for sh in self.shards)

    @property
    def n_occupied(self) -> int:
        return sum(sh.n_occupied for sh in self.shards)

    @n_occupied.setter
    def n_occupied(self, value: int) -> None:
        # The process backend round-trips occupancy through the segment
        # header (``table.n_occupied = header[...]``).  Shard occupancy
        # is authoritative here, so the store only validates agreement —
        # a mismatch means the header and the state planes disagree.
        have = sum(sh.n_occupied for sh in self.shards)
        if int(value) != have:
            raise ValueError(
                f"n_occupied readback {int(value)} disagrees with the "
                f"shard state planes ({have})"
            )

    @property
    def load_factor(self) -> float:
        return self.n_occupied / self.capacity

    def memory_bytes(self) -> int:
        return sum(sh.memory_bytes() for sh in self.shards)

    @property
    def stats(self) -> HashStats:
        """Merged view over per-shard stats plus wrapper-level threaded stats."""
        with self._extra_stats_lock:
            merged = self._extra_stats
        for sh in self.shards:
            merged = merged.merged_with(sh.stats)
        return merged

    def detach_views(self) -> None:
        for sh in self.shards:
            sh.detach_views()

    # -- routing --------------------------------------------------------------

    def _home_shard(self, kmer: int) -> int:
        raise NotImplementedError

    # -- vectorized batch path -------------------------------------------------

    def insert_batch(self, *arrays: np.ndarray, chunk: int = 1 << 20,
                     on_full: str = "raise") -> np.ndarray | None:
        """Shard-route a batch, retrying leftovers on neighbor shards.

        ``arrays`` are what the inner tables' ``insert_batch`` takes:
        the key plane(s) -- ``kmers`` or ``hi, lo`` -- then per-key
        counter slots or ``(n, 9)`` vertex rows.  Each item goes to its
        key's home shard.  Round ``r`` offers every still-pending item
        to shard ``home + r``; the inner tables run with
        ``on_full="return"`` so a full shard hands its leftovers back
        instead of raising, and ``TableFullError`` fires only once all
        ``n_shards`` rounds ran dry.  With ``on_full="return"`` the
        surviving leftovers' batch-relative indices come back instead.
        """
        if on_full not in ("raise", "return"):
            raise ValueError(
                f"on_full must be 'raise' or 'return', got {on_full!r}"
            )
        *keys, values = arrays
        keys = [np.ascontiguousarray(p, dtype=np.uint64).ravel() for p in keys]
        values = np.asarray(values)
        n = keys[0].size
        if any(p.size != n for p in keys) or len(values) != n:
            raise ValueError("keys and values must have the same length")
        target = self._home_shards(*keys)
        idx = np.arange(n, dtype=np.int64)
        for _round in range(self.n_shards):
            if idx.size == 0:
                break
            carry = []
            for s in range(self.n_shards):
                sel = idx[target[idx] == s]
                if sel.size == 0:
                    continue
                left = self.shards[s].insert_batch(
                    *(p[sel] for p in keys), values[sel],
                    chunk=chunk, on_full="return")
                if left.size:
                    carry.append(sel[left])
            idx = np.concatenate(carry) if carry else idx[:0]
            target[idx] = (target[idx] + 1) % self.n_shards
        if idx.size == 0:
            return np.empty(0, dtype=np.int64) if on_full == "return" else None
        if on_full == "return":
            return np.sort(idx)
        raise TableFullError(
            f"all {self.n_shards} shards exhausted "
            f"({self.n_occupied}/{self.capacity} occupied)"
        )

    # -- per-operation (real-thread) path -------------------------------------

    def insert_one_threadsafe(self, kmer: int, slot: int,
                              local: HashStats | None = None) -> None:
        """Route one observation shard-first with neighbor fallback.

        Each attempt runs the inner table's full per-operation protocol;
        a shard that wraps raises ``TableFullError``, whose per-attempt
        metering (probes stay, ops roll back) keeps ``HashStats``
        attribution exact across the fallback — only the shard that
        finally lands the observation counts its op.
        """
        home = self._home_shard(int(kmer))
        try:
            self.shards[home].insert_one_threadsafe(kmer, slot, local)
        except TableFullError:
            self._insert_fallback(kmer, slot, home, local)

    def _insert_fallback(self, kmer: int, slot: int, home: int,
                         local: HashStats | None) -> None:
        """Walk the neighbor shards after a full home shard."""
        for r in range(1, self.n_shards):
            sh = self.shards[(home + r) & (self.n_shards - 1)]
            try:
                sh.insert_one_threadsafe(kmer, slot, local)
                return
            except TableFullError:
                continue
        raise TableFullError(
            f"all {self.n_shards} shards exhausted "
            f"({self.n_occupied}/{self.capacity} occupied)"
        )

    def lookup(self, kmer: int):
        """Counter row for a kmer, or ``None`` when absent.

        A miss in a shard that still has an EMPTY slot is definitive
        (linear probing reaches an EMPTY before wrapping), so the walk
        stops there on the quiescent path; while threaded machinery is
        live the occupancy count may lag publication, so the walk
        conservatively continues through the fallback sequence.
        """
        home = self._home_shard(int(kmer))
        for r in range(self.n_shards):
            sh = self.shards[(home + r) & (self.n_shards - 1)]
            row = sh.lookup(kmer)
            if row is not None:
                return row
            if sh._atomic_state is None and sh.n_occupied < sh.capacity:
                return None
        return None

    def _sync_mirror(self) -> None:
        for sh in self.shards:
            sh._sync_mirror()

    def _merge_thread_stats(self, locals_: list[HashStats]) -> None:
        with self._extra_stats_lock:
            merged = self._extra_stats
            for st in locals_:
                merged = merged.merged_with(st)
            self._extra_stats = merged

    # -- process backend hook --------------------------------------------------

    def install_process_atomics(self, flags: np.ndarray,
                                state_bundles: list,
                                count_bundles: list) -> None:
        """Arm every shard with its slice of the cross-process planes.

        ``flags`` is the full-capacity int64 plane of the flags segment;
        each shard gets the contiguous slice matching its buffer slice,
        guarded by its **own** lock bundle — this private-stripe split is
        the layout's contention lever on the processes backend.
        """
        if flags.size != self.capacity:
            raise ValueError(
                f"flags plane has {flags.size} slots, table has "
                f"{self.capacity}"
            )
        if len(state_bundles) != self.n_shards \
                or len(count_bundles) != self.n_shards:
            raise ValueError("need one state and one count bundle per shard")
        start = 0
        for sh, state_locks, count_locks in zip(
                self.shards, state_bundles, count_bundles):
            view = flags[start:start + sh.capacity]
            sh._atomic_state = ProcessAtomicInt64Array(view, state_locks)
            sh._count_locks = list(count_locks)
            start += sh.capacity


class ShardedHashTable(_ShardedTable):
    """Sharded layout over one-word inner tables (``2k <= 64``)."""

    _inner_cls = ConcurrentHashTable

    def __init__(self, capacity: int, k: int, n_shards: int = 8,
                 counts_dtype=np.uint32, protocol: str = "locked") -> None:
        check_n_shards(n_shards)
        per = shard_capacity(capacity, n_shards)
        shards = [
            ConcurrentHashTable(per, k, counts_dtype=counts_dtype,
                                protocol=protocol)
            for _ in range(n_shards)
        ]
        self._init_shards(shards, k, protocol)

    @classmethod
    def from_views(cls, k: int, state: np.ndarray, keys: np.ndarray,
                   counts: np.ndarray, n_shards: int,
                   n_occupied: int | None = None,
                   protocol: str = "locked") -> "ShardedHashTable":
        """Slice externally owned planes into per-shard views (no copy)."""
        check_n_shards(n_shards)
        capacity = int(state.size)
        if capacity % n_shards:
            raise ValueError(
                f"capacity {capacity} not divisible by n_shards {n_shards}"
            )
        per = capacity // n_shards
        shards = []
        for s in range(n_shards):
            sl = slice(s * per, (s + 1) * per)
            shards.append(ConcurrentHashTable.from_views(
                k, state[sl], keys[sl], counts[sl],
                n_occupied=None, protocol=protocol))
        table = cls.__new__(cls)
        table._init_shards(shards, k, protocol)
        if n_occupied is not None:
            table.n_occupied = int(n_occupied)  # validates against planes
        return table

    # -- routing --------------------------------------------------------------

    def _home_shard(self, kmer: int) -> int:
        if self._shard_bits == 0:
            return 0
        return mix64_int(kmer) >> (64 - self._shard_bits)

    def _home_shards(self, kmers: np.ndarray) -> np.ndarray:
        if self._shard_bits == 0:
            return np.zeros(kmers.size, dtype=np.int64)
        shift = np.uint64(64 - self._shard_bits)
        return (mix64(kmers) >> shift).astype(np.int64)

    def insert_ops_threadsafe(self, kmers: np.ndarray, slots: np.ndarray,
                              local: HashStats | None = None) -> None:
        """Per-op protocol over an observation span, routing vectorized.

        The hot loop of the threaded/process workers: home shards come
        from one vectorized hash pass instead of a per-op ``mix64``, so
        the layout's routing cost is a list index, and the fallback walk
        runs only on the (rare) full-shard exception.
        """
        kmers = np.ascontiguousarray(kmers, dtype=np.uint64).ravel()
        slots = np.asarray(slots, dtype=np.int64).ravel()
        if kmers.shape != slots.shape:
            raise ValueError("kmers and slots must have the same length")
        shards = self.shards
        homes = self._home_shards(kmers).tolist()
        for kmer, slot, home in zip(kmers.tolist(), slots.tolist(), homes):
            try:
                shards[home].insert_one_threadsafe(kmer, slot, local)
            except TableFullError:
                self._insert_fallback(kmer, slot, home, local)

    def insert_threaded(self, kmers: np.ndarray, slots: np.ndarray,
                        n_threads: int) -> list[HashStats]:
        """Run the per-op protocol from real threads, shard-routed."""
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        kmers = np.ascontiguousarray(kmers, dtype=np.uint64).ravel()
        slots = np.asarray(slots, dtype=np.int64).ravel()
        if kmers.shape != slots.shape:
            raise ValueError("kmers and slots must have the same length")
        locals_ = [HashStats() for _ in range(n_threads)]

        def run(t: int) -> None:
            self.insert_ops_threadsafe(kmers[t::n_threads],
                                       slots[t::n_threads], locals_[t])

        threads = [threading.Thread(target=run, args=(t,))
                   for t in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        self._sync_mirror()
        self._merge_thread_stats(locals_)
        return locals_

    def to_graph(self) -> DeBruijnGraph:
        """Disjoint merge of the shard subgraphs (one vertex, one shard)."""
        return merge_disjoint([sh.to_graph() for sh in self.shards])


class ShardedTwoWordHashTable(_ShardedTable):
    """Sharded layout over two-word inner tables (``31 < k <= 63``)."""

    _inner_cls = TwoWordHashTable

    def __init__(self, capacity: int, k: int, n_shards: int = 8,
                 protocol: str = "locked") -> None:
        check_n_shards(n_shards)
        per = shard_capacity(capacity, n_shards)
        shards = [
            TwoWordHashTable(per, k, protocol=protocol)
            for _ in range(n_shards)
        ]
        self._init_shards(shards, k, protocol)

    @classmethod
    def from_views(cls, k: int, state: np.ndarray, keys_hi: np.ndarray,
                   keys_lo: np.ndarray, counts: np.ndarray, n_shards: int,
                   n_occupied: int | None = None,
                   protocol: str = "locked") -> "ShardedTwoWordHashTable":
        """Slice externally owned planes into per-shard views (no copy)."""
        check_n_shards(n_shards)
        capacity = int(state.size)
        if capacity % n_shards:
            raise ValueError(
                f"capacity {capacity} not divisible by n_shards {n_shards}"
            )
        per = capacity // n_shards
        shards = []
        for s in range(n_shards):
            sl = slice(s * per, (s + 1) * per)
            shards.append(TwoWordHashTable.from_views(
                k, state[sl], keys_hi[sl], keys_lo[sl], counts[sl],
                n_occupied=None, protocol=protocol))
        table = cls.__new__(cls)
        table._init_shards(shards, k, protocol)
        if n_occupied is not None:
            table.n_occupied = int(n_occupied)  # validates against planes
        return table

    # -- routing --------------------------------------------------------------

    def _home_shard(self, kmer: int) -> int:
        if self._shard_bits == 0:
            return 0
        hi, lo = split_int(int(kmer), self.k)
        return hash_planes_int(hi, lo) >> (64 - self._shard_bits)

    def _home_shards(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        if self._shard_bits == 0:
            return np.zeros(hi.size, dtype=np.int64)
        shift = np.uint64(64 - self._shard_bits)
        return (hash_planes(hi, lo) >> shift).astype(np.int64)

    def insert_ops_threadsafe(self, hi: np.ndarray, lo: np.ndarray,
                              slots: np.ndarray,
                              local: HashStats | None = None) -> None:
        """Per-op protocol over ``(hi, lo, slot)`` spans, routing vectorized."""
        hi = np.ascontiguousarray(hi, dtype=np.uint64).ravel()
        lo = np.ascontiguousarray(lo, dtype=np.uint64).ravel()
        slots = np.asarray(slots, dtype=np.int64).ravel()
        if not (hi.shape == lo.shape == slots.shape):
            raise ValueError("hi, lo and slots must have the same length")
        shards = self.shards
        homes = self._home_shards(hi, lo).tolist()
        for h, l, slot, home in zip(hi.tolist(), lo.tolist(),
                                    slots.tolist(), homes):
            kmer = join_planes(h, l)
            try:
                shards[home].insert_one_threadsafe(kmer, slot, local)
            except TableFullError:
                self._insert_fallback(kmer, slot, home, local)

    def insert_threaded(self, kmers: list[int], slots: np.ndarray,
                        n_threads: int) -> list[HashStats]:
        """Run the per-op protocol from real threads over int kmers."""
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        slots = np.asarray(slots, dtype=np.int64).ravel()
        if len(kmers) != slots.size:
            raise ValueError("kmers and slots must have the same length")
        locals_ = [HashStats() for _ in range(n_threads)]

        def run(t: int) -> None:
            for i in range(t, len(kmers), n_threads):
                self.insert_one_threadsafe(int(kmers[i]), int(slots[i]),
                                           locals_[t])

        threads = [threading.Thread(target=run, args=(t,))
                   for t in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        self._sync_mirror()
        self._merge_thread_stats(locals_)
        return locals_

    def to_graph(self) -> BigDeBruijnGraph:
        """Disjoint merge of the shard subgraphs (one vertex, one shard)."""
        return merge_bigk_disjoint(
            [sh.to_graph() for sh in self.shards], k=self.k)
