"""Sharded table layout and the layout x protocol equivalence matrix.

Covers the PR's tentpole contract: the sharded layout and the lock-free
CAS-publish protocol are independent axes, every (layout, protocol)
combination builds the identical graph on both key widths, the
neighbor-shard fallback spills correctly under deliberately skewed
keys, and the lock-free threaded variant passes the lockset monitor
and an adversarial-scheduler probe of the claim→publish gap.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.bigk.construct import block_observations_2w, build_subgraph_2w
from repro.bigk.kmer2w import join_planes, split_int
from repro.bigk.table import TwoWordHashTable, hash_planes_int
from repro.concurrentsub.hashfunc import mix64_int
from repro.core.hashtable import (
    ConcurrentHashTable,
    HashStats,
    TableFullError,
)
from repro.core.subgraph import (
    block_observations,
    build_subgraph,
    observation_pairs,
)
from repro.graph.compare import compare_graphs
from repro.msp.partitioner import partition_reads
from repro.parallel.sharded import (
    ShardedHashTable,
    ShardedTwoWordHashTable,
    check_n_shards,
    shard_capacity,
)

COMBOS = [(layout, protocol)
          for layout in ("flat", "sharded")
          for protocol in ("locked", "lockfree")]


def assert_identical(a, b):
    cmp = compare_graphs(a, b)
    assert cmp.n_only_a == 0 and cmp.n_only_b == 0, cmp
    assert np.array_equal(a.counts, b.counts)


def observations(rng, n_distinct=150, n_obs=3000, k=15):
    keys = np.unique(
        rng.integers(0, 1 << (2 * k), size=n_distinct, dtype=np.uint64))
    idx = rng.integers(0, keys.size, size=n_obs)
    return keys[idx], rng.integers(0, 9, size=n_obs).astype(np.int64)


def skewed_keys(n, n_shards, shard=0, k=15, two_word=False, dbg_k=33):
    """``n`` distinct keys whose home shard is ``shard`` (brute force)."""
    bits = n_shards.bit_length() - 1
    out = []
    kmer = 1
    while len(out) < n:
        if two_word:
            hi, lo = split_int(kmer, dbg_k)
            home = hash_planes_int(hi, lo) >> (64 - bits)
        else:
            home = mix64_int(kmer) >> (64 - bits)
        if home == shard:
            out.append(kmer)
        kmer += 1
    return out


# -- layout helpers ---------------------------------------------------------------


def test_check_n_shards():
    for good in (1, 2, 4, 64):
        check_n_shards(good)
    for bad in (0, -4, 3, 6, 12):
        with pytest.raises(ValueError):
            check_n_shards(bad)


def test_shard_capacity_covers_total():
    assert shard_capacity(1024, 8) == 128
    assert shard_capacity(1000, 8) == 128   # rounds up to a power of two
    assert shard_capacity(8, 8) == 2        # floor: probing needs slack
    for cap, s in ((1 << 14, 4), (777, 8), (12, 2)):
        assert shard_capacity(cap, s) * s >= cap


def test_sharded_table_geometry():
    t = ShardedHashTable(1024, k=15, n_shards=8)
    assert t.n_shards == 8 and len(t.shards) == 8
    assert t.capacity == sum(sh.capacity for sh in t.shards)
    assert t.n_occupied == 0
    assert t.layout == "sharded"


# -- equivalence: every (layout, protocol) combo, both key widths -----------------


@pytest.mark.parametrize("layout,protocol", COMBOS)
def test_combo_matches_flat_locked_one_word(rng, layout, protocol):
    kmers, slots = observations(rng)
    reference = ConcurrentHashTable(2048, k=15)
    reference.insert_batch(kmers, slots)
    if layout == "sharded":
        table = ShardedHashTable(2048, k=15, n_shards=4, protocol=protocol)
    else:
        table = ConcurrentHashTable(2048, k=15, protocol=protocol)
    table.insert_batch(kmers, slots)
    assert_identical(reference.to_graph(), table.to_graph())


@pytest.mark.parametrize("layout,protocol", COMBOS)
def test_combo_matches_flat_locked_two_word(rng, layout, protocol):
    k = 33
    kmers = np.unique(
        rng.integers(0, 1 << 62, size=120, dtype=np.uint64)).astype(np.uint64)
    idx = rng.integers(0, kmers.size, size=1500)
    obs = kmers[idx]
    slots = rng.integers(0, 9, size=obs.size).astype(np.int64)
    hi = np.zeros(obs.size, dtype=np.uint64)
    lo = obs.copy()
    reference = TwoWordHashTable(1024, k=k)
    reference.insert_batch(hi, lo, slots)
    if layout == "sharded":
        table = ShardedTwoWordHashTable(1024, k=k, n_shards=4,
                                        protocol=protocol)
    else:
        table = TwoWordHashTable(1024, k=k, protocol=protocol)
    table.insert_batch(hi, lo, slots)
    assert_identical(reference.to_graph(), table.to_graph())


def _table_graph(block, layout, protocol, two_word):
    """Every observation of ``block`` through one table of the combo."""
    if two_word:
        arrays = observation_pairs(*block_observations_2w(block))
        flat, sharded = TwoWordHashTable, ShardedTwoWordHashTable
    else:
        arrays = observation_pairs(*block_observations(block))
        flat, sharded = ConcurrentHashTable, ShardedHashTable
    capacity = 4 * block.total_kmers()
    if layout == "sharded":
        table = sharded(capacity, block.k, n_shards=4, protocol=protocol)
    else:
        table = flat(capacity, block.k, protocol=protocol)
    table.insert_batch(*arrays)
    return table.to_graph()


@pytest.mark.parametrize("layout,protocol", COMBOS)
def test_build_subgraph_combo_equivalence(clean_batch, layout, protocol):
    blocks = partition_reads(clean_batch, k=21, p=9, n_partitions=4).blocks
    block = max(blocks, key=lambda b: b.n_superkmers)
    reference = build_subgraph(block).graph
    assert_identical(reference, _table_graph(block, layout, protocol, False))


@pytest.mark.parametrize("layout,protocol", COMBOS)
def test_build_subgraph_2w_combo_equivalence(clean_batch, layout, protocol):
    blocks = partition_reads(clean_batch, k=45, p=15, n_partitions=4).blocks
    block = max(blocks, key=lambda b: b.n_superkmers)
    reference = build_subgraph_2w(block).graph
    assert_identical(reference, _table_graph(block, layout, protocol, True))


@pytest.mark.parametrize("protocol", ["locked", "lockfree"])
def test_sharded_threaded_matches_batch(rng, protocol):
    kmers, slots = observations(rng, n_obs=2000)
    batch = ShardedHashTable(2048, k=15, n_shards=4, protocol=protocol)
    batch.insert_batch(kmers, slots)
    threaded = ShardedHashTable(2048, k=15, n_shards=4, protocol=protocol)
    threaded.insert_threaded(kmers, slots, n_threads=4)
    assert_identical(batch.to_graph(), threaded.to_graph())
    assert threaded.stats.ops == 2000
    if protocol == "lockfree":
        assert threaded.stats.key_locks == 0


@pytest.mark.parametrize("protocol", ["locked", "lockfree"])
def test_sharded_threaded_matches_batch_two_word(rng, protocol):
    k = 33
    ints = [int(x) for x in np.unique(
        rng.integers(0, 1 << 60, size=60, dtype=np.uint64))] * 10
    slots = np.zeros(len(ints), dtype=np.int64)
    hi = np.array([split_int(v, k)[0] for v in ints], dtype=np.uint64)
    lo = np.array([split_int(v, k)[1] for v in ints], dtype=np.uint64)
    batch = ShardedTwoWordHashTable(512, k=k, n_shards=4, protocol=protocol)
    batch.insert_batch(hi, lo, slots)
    threaded = ShardedTwoWordHashTable(512, k=k, n_shards=4,
                                       protocol=protocol)
    threaded.insert_threaded(ints, slots, n_threads=4)
    assert_identical(batch.to_graph(), threaded.to_graph())


# -- skewed keys: neighbor-shard fallback and full-table semantics ----------------


class TestShardFallback:
    def test_skewed_keys_spill_to_neighbors(self):
        # 14 distinct keys all homed to shard 0 of a 4-shard table with
        # 4 slots per shard: shard 0 alone cannot hold them, the spill
        # must walk the deterministic neighbor order instead of raising.
        table = ShardedHashTable(16, k=15, n_shards=4)
        keys = skewed_keys(14, 4)
        kmers = np.array(keys * 3, dtype=np.uint64)
        slots = np.zeros(kmers.size, dtype=np.int64)
        table.insert_batch(kmers, slots)
        assert table.n_occupied == 14
        per_shard = [sh.n_occupied for sh in table.shards]
        assert sum(per_shard) == 14
        assert max(per_shard) <= 4  # probing keeps one free slot per shard
        assert sum(1 for n in per_shard if n) > 1, per_shard
        # Every key is still found through the same fallback walk.
        for key in keys:
            row = table.lookup(np.uint64(key))
            assert row is not None and int(row[0]) == 3

    def test_spill_stats_attribution(self):
        table = ShardedHashTable(16, k=15, n_shards=4)
        keys = skewed_keys(14, 4)
        kmers = np.array(keys * 3, dtype=np.uint64)
        slots = np.zeros(kmers.size, dtype=np.int64)
        table.insert_batch(kmers, slots)
        stats = table.stats
        # Attribution across the spill: every observation is counted
        # exactly once, every distinct key inserted exactly once, and
        # the rolled-back full-shard attempts only ever add probes.
        assert stats.ops == kmers.size
        assert stats.count_increments == kmers.size
        assert stats.inserts == 14
        assert stats.updates == kmers.size - 14
        assert stats.probes > 0

    def test_per_op_spill_matches_batch(self):
        keys = skewed_keys(14, 4)
        kmers = np.array(keys * 3, dtype=np.uint64)
        slots = np.zeros(kmers.size, dtype=np.int64)
        batch = ShardedHashTable(16, k=15, n_shards=4)
        batch.insert_batch(kmers, slots)
        threaded = ShardedHashTable(16, k=15, n_shards=4)
        threaded.insert_threaded(kmers, slots, n_threads=3)
        assert_identical(batch.to_graph(), threaded.to_graph())
        assert threaded.stats.ops == kmers.size
        assert threaded.stats.inserts == 14

    def test_full_only_when_all_shards_exhausted(self):
        # Linear probing fills every slot of every shard before the
        # wrapper gives up; TableFullError therefore implies the whole
        # table is occupied, not just the home shard.
        table = ShardedHashTable(16, k=15, n_shards=4)
        keys = skewed_keys(16, 4)
        kmers = np.array(keys, dtype=np.uint64)
        slots = np.zeros(16, dtype=np.int64)
        table.insert_batch(kmers, slots)
        assert table.n_occupied == 16
        extra = skewed_keys(17, 4)[-1]
        with pytest.raises(TableFullError, match="all 4 shards exhausted"):
            table.insert_batch(np.array([extra], dtype=np.uint64),
                               np.zeros(1, dtype=np.int64))
        with pytest.raises(TableFullError, match="all 4 shards exhausted"):
            table.insert_one_threadsafe(extra, 0, HashStats())

    def test_on_full_return_reports_leftovers(self):
        table = ShardedHashTable(16, k=15, n_shards=4)
        keys = skewed_keys(18, 4)
        kmers = np.array(keys, dtype=np.uint64)
        slots = np.zeros(18, dtype=np.int64)
        left = table.insert_batch(kmers, slots, on_full="return")
        assert left.size == 2
        assert table.n_occupied == 16

    def test_skewed_two_word_spill(self):
        table = ShardedTwoWordHashTable(16, k=33, n_shards=4)
        keys = skewed_keys(14, 4, two_word=True)
        hi = np.array([split_int(v, 33)[0] for v in keys], dtype=np.uint64)
        lo = np.array([split_int(v, 33)[1] for v in keys], dtype=np.uint64)
        table.insert_batch(np.tile(hi, 2), np.tile(lo, 2),
                           np.zeros(28, dtype=np.int64))
        assert table.n_occupied == 14
        assert sum(1 for sh in table.shards if sh.n_occupied) > 1
        assert table.stats.inserts == 14
        assert table.stats.ops == 28


# -- races: lock-free threaded variant under monitor + scheduler ------------------


class TestLockfreeRaces:
    def test_lockset_clean_one_word(self, rng):
        from repro.checks.instrument import lockset_session

        kmers, slots = observations(rng, n_distinct=60, n_obs=800)
        table = ShardedHashTable(1024, k=15, n_shards=4,
                                 protocol="lockfree")
        with lockset_session() as mon:
            table.insert_threaded(kmers, slots, n_threads=4)
        mon.assert_no_races()
        assert table.stats.key_locks == 0

    def test_lockset_clean_two_word(self, rng):
        from repro.checks.instrument import lockset_session

        ints = [int(x) for x in np.unique(
            rng.integers(0, 1 << 60, size=40, dtype=np.uint64))] * 8
        slots = np.zeros(len(ints), dtype=np.int64)
        table = ShardedTwoWordHashTable(512, k=33, n_shards=4,
                                        protocol="lockfree")
        with lockset_session() as mon:
            table.insert_threaded(ints, slots, n_threads=4)
        mon.assert_no_races()

    def test_prepub_gap_blocks_readers_until_publish(self):
        # Adversarial schedule on the real claim→publish gap: park the
        # claim winner after keys_hi (keys_lo unwritten), let a same-key
        # reader probe the slot.  The fixed protocol must spin on the
        # missing PUB bit instead of trusting the torn key; on release
        # exactly one vertex exists.
        from repro.checks.instrument import monitor_session
        from repro.checks.schedule import InterleavingScheduler, _run_threads

        sched = InterleavingScheduler(timeout=15.0)

        def on_gap(s: InterleavingScheduler, point) -> None:
            if s.bump("gap_entered") == 1:
                s.bump("winner_mid_gap")
                s.pause_at("hold")

        sched.on("lf_prepub_gap", on_gap)

        table = TwoWordHashTable(64, k=33, protocol="lockfree")
        locals_ = [HashStats(), HashStats()]
        kmer = (3 << 62) | 0xD0D0F00D

        def winner() -> None:
            table.insert_one_threadsafe(kmer, 0, locals_[0])

        def reader() -> None:
            sched.wait_count("winner_mid_gap", 1)
            t = threading.Thread(
                target=table.insert_one_threadsafe,
                args=(kmer, 0, locals_[1]))
            t.start()
            deadline = time.monotonic() + 10.0
            while (locals_[1].blocked_reads == 0
                   and time.monotonic() < deadline):
                time.sleep(0.001)
            sched.release("hold")
            t.join()

        with monitor_session(sched):
            _run_threads([winner, reader], 15.0)

        assert table.n_occupied == 1
        assert locals_[1].blocked_reads > 0
        row = table.lookup(kmer)
        assert row is not None and int(row[0]) == 2


# -- process backend across the matrix --------------------------------------------


@pytest.mark.parametrize("layout,protocol", COMBOS)
def test_cross_process_combo_matches_serial(rng, layout, protocol):
    from repro.parallel import concurrent_insert_processes

    kmers, slots = observations(rng, n_distinct=100, n_obs=1200)
    serial = ConcurrentHashTable(1024, k=15)
    serial.insert_batch(kmers, slots)
    graph, worker_stats = concurrent_insert_processes(
        kmers, slots, k=15, capacity=1024, n_workers=2,
        layout=layout, protocol=protocol, n_shards=4)
    assert_identical(serial.to_graph(), graph)
    if protocol == "lockfree":
        assert sum(s.key_locks for s in worker_stats) == 0


# -- shared-memory plumbing -------------------------------------------------------


def test_table_over_segment_sharded_roundtrip(rng):
    from repro.parallel.shm import create_table_segment, table_over_segment

    kmers, slots = observations(rng, n_distinct=50, n_obs=400)
    with create_table_segment(512, k=15, n_shards=4) as seg:
        table = table_over_segment(seg, k=15, fresh=True, layout="sharded",
                                   n_shards=4)
        table.insert_batch(kmers, slots)
        reference = ConcurrentHashTable(512, k=15)
        reference.insert_batch(kmers, slots)
        assert_identical(reference.to_graph(), table.to_graph())
        table.detach_views()


def test_join_planes_roundtrip_for_skew_helper():
    # The skew helper derives homes from split_int; make sure the split
    # it uses is the same bijection the table stores.
    for v in (1, 0xD0D0, (3 << 62) | 5):
        hi, lo = split_int(v, 33)
        assert join_planes(hi, lo) == v
