"""The concurrent open-addressing hash table (ParaHash §III-C).

One table per subgraph, shared by *all* threads — unlike the
thread-local tables of SOAP-style assemblers whose parallelism is
capped by the table count.  Entries are ``<vertex, list of edges>``:
the key is a canonical kmer, the value is the 9-counter adjacency array
of :mod:`repro.graph.dbg`.

Two properties make the concurrency cheap:

* **No resizing.** Capacity is pre-computed from Property 1
  (:mod:`repro.core.estimator`), so the table never rebuilds.
* **State-transfer partial locking.** Each slot carries an
  ``occupancy`` flag ∈ {EMPTY, LOCKED, OCCUPIED}.  The multi-word key
  is written exactly once: a thread that finds EMPTY CASes it to
  LOCKED, writes the key, then publishes OCCUPIED.  From then on the
  key is immutable and read lock-free; edge counters are plain atomic
  increments.  Locking is therefore paid once per *distinct* vertex
  instead of once per kmer instance — with duplicates ≈ 4-6x the
  distinct count, that is the paper's ~80% lock-contention reduction.

Access paths:

* :meth:`ConcurrentHashTable.insert_batch` — vectorized rounds used by
  the benchmarks and the simulated devices; single-threaded but
  *semantically identical* to the concurrent protocol, and it meters
  every probe/lock/update event into :class:`HashStats`.
* :meth:`ConcurrentHashTable.insert_threaded` — the real state machine
  on real Python threads (striped-lock CAS stand-ins for the hardware
  atomics), used to validate linearizability of the protocol.

Concurrency discipline
----------------------

While real threads run, the authoritative occupancy flags live in
``self._atomic_state`` (an :class:`AtomicInt64Array`); the numpy
``self.state`` array is a **single-threaded mirror** used by the
vectorized batch path and by queries on quiescent tables.  The mirror
is re-synced from the atomic array after every fork-join
(:meth:`insert_threaded`); it must never be read or written while
worker threads are live.  Shared mutable scalars (``stats``,
``n_occupied``) are only touched under their dedicated locks.  These
rules are enforced mechanically by ``python -m repro.checks lint`` (the
R1/R2 rules) and dynamically by the Eraser-style lockset detector in
:mod:`repro.checks.lockset`; the hooks the detector needs are the
``_trace``/``_mon_event`` shim calls below, which are no-ops unless a
monitor is installed via :func:`repro.concurrentsub.atomics.set_monitor`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import numpy as np

from ..concurrentsub import atomics
from ..concurrentsub.atomics import AtomicInt64Array, TracedLock
from ..concurrentsub.hashfunc import hash_planes, hash_planes_int
from ..dna.kmer import (
    as_planes,
    key_width,
    planes_to_ints,
    sort_order,
    split_int,
    take_planes,
)
from ..graph.dbg import MULT_SLOT, N_SLOTS, DeBruijnGraph
from ..msp.records import SuperkmerBlock
from .estimator import SizingPolicy, next_power_of_two
from .subgraph import (
    HashStats,
    SubgraphResult,
    instance_observations,
    observation_pairs,
)

EMPTY = 0
LOCKED = 1
OCCUPIED = 2

#: Number of times a reader spins on a LOCKED flag before it starts
#: yielding its timeslice (``time.sleep(0)``) so a descheduled writer
#: can run and publish.  Bounded spinning keeps the fast path fast (a
#: writer publishes within a handful of instructions) while preventing
#: reader livelock when the writer loses the CPU between LOCKED and
#: OCCUPIED.
SPIN_LIMIT = 64

# -- test-only seeded bugs ------------------------------------------------------
#
# The repo's race-detector test suite re-introduces bugs that were fixed
# in this file (PR 1) to prove the detector catches them.  Each name
# gates the *old* faulty code path; production code never enables them.

_KNOWN_BUGS = frozenset({"shared_stats", "numpy_publish", "tas_claim"})
_SEEDED_BUGS: frozenset = frozenset()


@contextmanager
def seed_bugs(*names: str):
    """TEST ONLY: re-enable fixed concurrency bugs for detector validation.

    ``shared_stats``  — restore the plain read-modify-write on the shared
    ``self.stats`` object when no per-thread stats are supplied (lost
    increments under contention; flagged by lint rule R2 and the lockset
    detector).

    ``numpy_publish`` — restore the dual publication of OCCUPIED through
    the numpy ``state`` mirror and route ``lookup`` through that mirror
    (un-synchronized read while threads run; flagged by the lockset
    detector, reproduced by the interleaving scheduler).

    ``tas_claim`` — replace the slot claim's CAS with a load-then-store
    test-and-set: two threads can both observe EMPTY before either
    stores LOCKED, so both enter the exclusive key-write window (the
    ``insert[tas_claim]`` variant of ``repro.checks.model``, reproduced
    deterministically via the ``tas_gap`` control point).
    """
    unknown = set(names) - _KNOWN_BUGS
    if unknown:
        raise ValueError(f"unknown seeded bugs: {sorted(unknown)}")
    global _SEEDED_BUGS
    previous = _SEEDED_BUGS
    _SEEDED_BUGS = frozenset(previous | set(names))
    try:
        yield
    finally:
        _SEEDED_BUGS = previous


# -- access-recording shim (repro.checks) ---------------------------------------


def _trace(label: str, owner: int, index: int, kind: str) -> None:
    """Report a raw numpy access to the installed monitor, if any."""
    m = atomics.monitor()
    if m is not None:
        m.record(label, owner, index, kind)


def _mon_event(name: str, index: int | None = None, value=None) -> None:
    """Report a named control point (scheduler pause site), if monitored."""
    m = atomics.monitor()
    if m is not None:
        m.event(name, index, value)


class TableFullError(RuntimeError):
    """Raised when probing wraps around a full table.

    ParaHash avoids this by sizing tables from Property 1; hitting it
    means the sizing policy under-estimated the distinct-vertex count.
    """


class ConcurrentHashTable:
    """Fixed-capacity open-addressing table over ``k``-base keys.

    A key is ``W = key_width(k)`` uint64 planes (one for ``k`` in 1..31,
    two for ``33 <= k <= 63``), so ``keys`` has shape ``(W, capacity)``.
    A multi-word key cannot be claimed with one hardware CAS; the
    state transfer claims the slot's occupancy flag instead and writes
    every key word inside the LOCKED window, which is why the paper's
    entry "is not limited by the machine word size" (§I).  Counters are
    ``uint32``, as in the shared-memory layout of
    :func:`repro.parallel.shm.create_table_segment`.
    """

    def __init__(self, capacity: int, k: int) -> None:
        self.width = key_width(k)
        self.capacity = next_power_of_two(max(2, capacity))
        self._mask = np.uint64(self.capacity - 1)
        self.k = k
        self.state = np.zeros(self.capacity, dtype=np.int8)
        self.keys = np.zeros((self.width, self.capacity), dtype=np.uint64)
        self.counts = np.zeros((self.capacity, N_SLOTS), dtype=np.uint32)
        self.n_occupied = 0
        self.stats = HashStats()
        # Threaded-path machinery (created lazily, under _init_lock).
        self._atomic_state: AtomicInt64Array | None = None
        self._count_locks: list[TracedLock] | None = None
        self._occupied_lock = TracedLock("occupied_lock")
        self._stats_lock = TracedLock("stats_lock")
        self._init_lock = threading.Lock()

    # -- sizing ---------------------------------------------------------------

    @property
    def load_factor(self) -> float:
        return self.n_occupied / self.capacity

    def memory_bytes(self) -> int:
        return int(self.state.nbytes + self.keys.nbytes + self.counts.nbytes)

    # -- vectorized single-threaded path ---------------------------------------

    def insert_batch(self, *args: np.ndarray, chunk: int = 1 << 20) -> None:
        """Apply ``(key, slot)`` observations or vertex rows, vectorized.

        ``insert_batch(*planes, values)``: the keys as ``W`` plane
        arrays (or one ``(W, n)`` array, or at W = 1 one 1-D array),
        then ``values``.  These are either one counter slot per key --
        each observation increments ``counts[entry(key), slot]`` -- or
        an ``(n, 9)`` array of counter rows, one per *distinct* key
        (the rows of
        :func:`repro.core.subgraph.preaggregate_observations`), each
        added to its entry in one touch.  Entries are inserted on first
        sight.

        The outcome is identical to running the concurrent protocol,
        and stats are metered as if it had run every observation one by
        one: a row counts as its sum of observations -- one op and one
        atomic increment each, one key lock per distinct vertex, every
        observation beyond the inserting one an update.
        ``HashStats.lock_reduction`` is therefore the same for both
        forms; with rows the table pays one probe walk per distinct
        vertex instead of one per observation.

        Raises :class:`TableFullError` when probing wraps a full table,
        and :class:`OverflowError` before an observation or a row would
        carry a counter past the ``uint32`` maximum; either leaves the
        table partially filled.  Single-threaded only: this path writes
        the numpy mirror directly and must never overlap
        :meth:`insert_threaded`.
        """
        *keys, values = args
        planes = as_planes(keys[0] if len(keys) == 1 else keys, self.k)
        values = np.asarray(values)
        if values.ndim == 1:
            values = values.astype(np.int64, copy=False)
        elif values.dtype.kind != "u":
            # Rows go in as they are; a negative signed row becomes a
            # huge unsigned one, which the headroom check refuses.
            values = values.astype(np.uint64)
        n = planes.shape[1]
        if values.shape[:1] != (n,) or values.shape[1:] not in ((), (N_SLOTS,)):
            raise ValueError(
                f"keys and values must be parallel: {n} keys need {n} slots "
                f"or an ({n}, {N_SLOTS}) array of rows, got {values.shape}"
            )
        for lo in range(0, n, chunk):
            self._insert_chunk(planes[:, lo : lo + chunk], values[lo : lo + chunk])
        if self._atomic_state is not None:
            # Keep the authoritative threaded-mode flags in sync when a
            # quiescent table mixes batch and threaded insertions.
            self._resync_atomic()

    def _add_counts(self, pos: np.ndarray, values: np.ndarray) -> None:
        """Add slot observations or distinct-key rows at table ``pos``.

        Checks the headroom first, so an overflowing add writes nothing;
        comparing against the headroom (not the sum) cannot itself wrap.
        """
        top = np.iinfo(self.counts.dtype).max
        if values.ndim == 2:
            # Distinct keys sit in distinct slots: no index repeats.
            rows, cols, adds = pos, slice(None), values
        else:
            cells, adds = np.unique(pos * N_SLOTS + values, return_counts=True)
            rows, cols = cells // N_SLOTS, cells % N_SLOTS
        if (adds > top - self.counts[rows, cols]).any():
            raise OverflowError(
                f"an insert would carry a counter past the "
                f"{self.counts.dtype} maximum {top}"
            )
        self.counts[rows, cols] += adds.astype(self.counts.dtype, copy=False)

    def _insert_chunk(self, keys: np.ndarray, values: np.ndarray) -> None:
        """One chunk of :meth:`insert_batch`: synchronous probe rounds."""
        stats = self.stats
        # Observations per item: 1 for a slot, the row sum for a row.
        weights = (None if values.ndim == 1
                   else values.sum(axis=1, dtype=np.int64))

        def weight(items: np.ndarray) -> int:
            return items.size if weights is None else int(weights[items].sum())

        n = keys.shape[1]
        n_ops = n if weights is None else int(weights.sum())
        stats.ops += n_ops
        stats.count_increments += n_ops
        home = hash_planes(*keys) & self._mask
        pending = np.arange(n, dtype=np.int64)
        offset = np.zeros(n, dtype=np.uint64)
        while pending.size:
            pos = ((home[pending] + offset[pending]) & self._mask).astype(np.int64)
            st = self.state[pos]
            is_occ = st == OCCUPIED
            match = is_occ
            for plane, key in zip(self.keys, keys):
                match = match & (plane[pos] == key[pending])
            if match.any():
                items = pending[match]
                self._add_counts(pos[match], values[items])
                stats.updates += weight(items)
            mismatch = is_occ & ~match
            empty = st == EMPTY
            # Claim empty slots: the first pending item targeting each
            # distinct empty position wins the CAS; others retry.
            winners = np.zeros(pending.size, dtype=bool)
            if empty.any():
                empty_idx = np.nonzero(empty)[0]
                _, first = np.unique(pos[empty_idx], return_index=True)
                win_idx = empty_idx[first]
                winners[win_idx] = True
                wpos = pos[win_idx]
                items = pending[win_idx]
                # Counts first: an overflowing add must not leave a
                # published key behind.
                self._add_counts(wpos, values[items])
                self.state[wpos] = OCCUPIED
                for plane, key in zip(self.keys, keys):
                    plane[wpos] = key[items]
                # One observation per winner inserts.  Run one by one,
                # the rest of a winning row lose the CAS once and then
                # update; items that lost to a different key lose once
                # per observation.
                extra = weight(items) - wpos.size
                stats.updates += extra
                stats.cas_failures += extra + weight(pending[empty & ~winners])
                self.n_occupied += wpos.size
                stats.inserts += wpos.size
                stats.key_locks += wpos.size
            # Advance mismatches; retry CAS losers at the same offset
            # (they will match or mismatch the freshly written key).
            stats.probes += weight(pending[mismatch])
            keep = ~match & ~winners
            advance = mismatch[keep].astype(np.uint64)
            pending = pending[keep]
            offset[pending] += advance
            # An item whose walk visited every slot without meeting its
            # key or an empty slot finds the table full.  The
            # observations of one key walk in lockstep, so they wrap
            # together.
            if (offset[pending] >= self.capacity).any():
                raise TableFullError(
                    f"probe wrapped a table of capacity {self.capacity} "
                    f"(occupied {self.n_occupied})"
                )

    # -- threaded path ----------------------------------------------------------

    def _ensure_threaded(self) -> None:
        if self._atomic_state is not None:
            return
        # Double-checked under a lock: concurrent first calls must not
        # each build their own atomic array (that would give every
        # thread a private "shared" state and break mutual exclusion).
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
                              local: "HashStats | None" = None) -> None:
        """The per-operation concurrent protocol (real threads).

        Implements the §III-C3 state machine: CAS EMPTY->LOCKED, write
        the key, publish OCCUPIED; concurrent readers seeing LOCKED spin
        (bounded, then yield) until publication; counter updates are
        atomic adds.

        Stats are metered into ``local`` when given (the pattern
        :meth:`insert_threaded` uses — one private ``HashStats`` per
        thread, merged after the join).  Without ``local``, the op is
        metered into a scratch object that is folded into the shared
        ``self.stats`` under ``_stats_lock``: the shared object is never
        the target of a plain read-modify-write from a worker thread.
        """
        self._ensure_threaded()
        if local is not None:
            self._insert_one(kmer, slot, local)
            return
        if "shared_stats" in _SEEDED_BUGS:
            # PR-1 bug, reintroduced for detector tests: non-atomic
            # read-modify-writes on the shared stats object.  The RMW is
            # split across a scheduler control point so the lost-update
            # window is deterministically reproducible.
            _trace("stats", id(self), 0, "write")
            before = self.stats.ops
            _mon_event("stats_rmw", None, before)
            scratch = HashStats()
            self._insert_one(kmer, slot, scratch)
            merged = self.stats.merged_with(scratch)
            merged.ops = before + scratch.ops
            self.stats = merged
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
        words = split_int(kmer, self.k)
        h = hash_planes_int(*words) & (self.capacity - 1)
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
                if "tas_claim" in _SEEDED_BUGS:
                    # Corpus bug (repro.checks.model insert[tas_claim]):
                    # the claim is a load-then-store test-and-set — the
                    # EMPTY load above is the test, and this store does
                    # not re-check it.  The gap between them is the
                    # window the model checker refutes and the replay
                    # scheduler holds open via the ``tas_gap`` point.
                    _mon_event("tas_gap", pos)
                    atomic.store(pos, LOCKED)
                    won = True
                else:
                    won = atomic.compare_and_swap(pos, EMPTY, LOCKED)
                if won:
                    # Exclusive writer: every key word is written
                    # exactly once, inside the LOCKED->OCCUPIED window.
                    _trace("keys", id(self), pos, "write")
                    self.keys[:, pos] = words
                    stats.key_locks += 1
                    stats.inserts += 1
                    _mon_event("pre_publish", pos)
                    atomic.store(pos, OCCUPIED)
                    if "numpy_publish" in _SEEDED_BUGS:
                        # PR-1 bug, reintroduced for detector tests: a
                        # plain numpy write shadowing the atomic store,
                        # read un-synchronized by lookup().
                        _mon_event("numpy_publish", pos)
                        _trace("state", id(self), pos, "write")
                        self.state[pos] = OCCUPIED
                    self._add_count(pos, slot)
                    with self._occupied_lock:
                        _trace("n_occupied", id(self), 0, "write")
                        self.n_occupied += 1
                    return
                stats.cas_failures += 1
                continue  # retry the same slot
            if st == LOCKED:
                stats.blocked_reads += 1
                spins += 1
                if spins >= SPIN_LIMIT:
                    # The writer that holds this slot LOCKED may be
                    # descheduled; yield so it can run and publish.
                    time.sleep(0)
                continue  # spin until the writer publishes
            # OCCUPIED: the key is immutable, read without locking.  The
            # read is publication-ordered (we observed OCCUPIED through
            # the atomic flag first), hence "read-acq".
            _trace("keys", id(self), pos, "read-acq")
            if tuple(self.keys[:, pos].tolist()) == words:  # checks: allow[R1] immutable after OCCUPIED publication
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

    def insert_threaded(self, kmers, slots: np.ndarray,
                        n_threads: int) -> list[HashStats]:
        """Partition the observations over real threads and run them.

        ``kmers`` are int kmers (a list, or a uint64 array at W = 1).
        Returns per-thread stats; the aggregate is merged into
        ``self.stats``.  After the join, the single-threaded numpy
        mirror of the occupancy flags is re-synced from the atomic
        array.
        """
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        kmers = (kmers.ravel().tolist() if isinstance(kmers, np.ndarray)
                 else [int(km) for km in kmers])
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
            self.state[:] = snap.astype(self.state.dtype)

    def _resync_atomic(self) -> None:
        """Rebuild the authoritative atomic plane from the numpy mirror.

        Only legal on a quiescent table: the batch path calls it after
        mixing vectorized and threaded insertions.
        """
        assert self._atomic_state is not None
        raw = self._atomic_state.raw()  # checks: allow[R3] single-threaded resync
        raw[:] = self.state

    # -- queries ------------------------------------------------------------------

    def _load_state(self, pos: int) -> int:
        """One occupancy flag, via the atomic array while threads may run."""
        atomic = self._atomic_state
        if atomic is not None and "numpy_publish" not in _SEEDED_BUGS:
            return atomic.load(pos)
        _trace("state", id(self), pos, "read")
        return int(self.state[pos])  # checks: allow[R1] single-threaded or seeded-bug mirror read (atomic path taken while threads run)

    def _state_view(self) -> np.ndarray:
        """All occupancy flags; authoritative in either mode.

        The numpy ``self.state`` array is a single-threaded mirror: it
        is stale while worker threads run, so bulk queries go through an
        atomic snapshot whenever the threaded machinery exists.
        """
        if self._atomic_state is not None:
            return self._atomic_state.snapshot().astype(np.int8)
        return self.state

    def lookup(self, kmer: int) -> np.ndarray | None:
        """Counter row for a kmer, or ``None`` when absent.

        Safe to call concurrently with :meth:`insert_one_threadsafe`:
        occupancy flags are read through the atomic array (never the
        numpy mirror) while the threaded machinery exists.
        """
        words = split_int(kmer, self.k)
        h = hash_planes_int(*words) & (self.capacity - 1)
        for offset in range(self.capacity):
            pos = (h + offset) & (self.capacity - 1)
            st = self._load_state(pos)
            if st == EMPTY:
                return None
            if st == OCCUPIED and tuple(self.keys[:, pos].tolist()) == words:  # checks: allow[R1] immutable after OCCUPIED publication
                return self.counts[pos].copy()  # checks: allow[R1] racy snapshot of monotonic counters
        return None

    def to_graph(self) -> DeBruijnGraph:
        """Extract the subgraph: occupied entries sorted by vertex."""
        occ = self._state_view() == OCCUPIED
        keys = take_planes(self.keys, occ)
        order = sort_order(keys, self.k)
        return DeBruijnGraph(k=self.k, vertices=take_planes(keys, order),
                             counts=self.counts[occ][order])

    def multiplicity_histogram(self, max_mult: int = 16) -> np.ndarray:
        """Histogram of vertex multiplicities (error-filtering diagnostics)."""
        occ = self._state_view() == OCCUPIED
        mult = self.counts[occ, MULT_SLOT]
        return np.bincount(
            np.minimum(mult, max_mult).astype(np.int64), minlength=max_mult + 1
        )


def build_subgraph_table(
    block: SuperkmerBlock,
    policy: SizingPolicy | None = None,
    n_threads: int = 1,
    allow_regrow: bool = True,
) -> SubgraphResult:
    """Construct one subgraph with the paper's concurrent hash table.

    Every ``(vertex, slot)`` observation is inserted on its own, as in
    §III-C2: ``n_threads == 1`` runs the vectorized batch insert; more
    threads run the real per-operation state machine concurrently (slow;
    meant for the protocol's claims, not throughput).  This
    is the table that the hashing figures, Table II and the simulator's
    measured workloads meter; the build paths use
    :func:`repro.core.subgraph.build_subgraph`.

    The table is sized once from Property 1 and, on genomic data, never
    resizes -- that is the paper's design.  Inputs that violate the
    estimate (e.g. coverage < 1, where nearly every kmer is distinct)
    would overflow the fixed table; with ``allow_regrow`` the build
    retries with doubled capacity and reports ``n_regrows > 0``.  With
    ``allow_regrow=False`` the overflow raises
    :class:`TableFullError` instead.
    """
    policy = policy or SizingPolicy()
    keys, slots = observation_pairs(*instance_observations(block))
    n_kmers = block.total_kmers()
    capacity = policy.capacity_for(max(1, n_kmers))
    # Hard upper bound: there cannot be more distinct vertices than
    # kmer instances, so capacity n_kmers/alpha always fits.
    bound = next_power_of_two(max(2, int(n_kmers / policy.alpha) + 1))
    n_regrows = 0
    while True:
        table = ConcurrentHashTable(capacity, block.k)
        try:
            if n_threads == 1:
                table.insert_batch(keys, slots)
            else:
                table.insert_threaded(planes_to_ints(keys), slots, n_threads)
            break
        except TableFullError:
            if not allow_regrow or capacity >= bound:
                raise
            capacity *= 2
            n_regrows += 1
    return SubgraphResult(
        graph=table.to_graph(),
        stats=table.stats,
        n_kmers=n_kmers,
        capacity=table.capacity,
        table_bytes=table.memory_bytes(),
        n_regrows=n_regrows,
    )
