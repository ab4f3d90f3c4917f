"""Subgraph construction from superkmer partitions (ParaHash Step 2).

For each superkmer in a partition we "generate multiple <kmer, edge>
pairs according to the superkmer length, and insert the <kmer, edge>
pairs in the hash table" (§III-C2).  Here the pair is a ``(canonical
kmer, counter slot)`` observation:

* every kmer instance contributes one multiplicity observation;
* every adjacent pair *inside* a superkmer contributes a successor
  observation on the left kmer and a predecessor observation on the
  right kmer;
* the partition's **extension bases** contribute the cut edges: the
  first kmer's predecessor and the last kmer's successor, when the
  superkmer did not touch the read boundary.

Because MSP routes all duplicates of a kmer to one partition, the union
of all subgraphs is exactly the reference graph — the test suite checks
this equality bit-for-bit.

A partition has exactly one owner on every build path, so
:func:`build_subgraph` groups its observations by vertex and takes the
sorted rows as the subgraph.  Its input repeats: at high coverage most
superkmers of a partition are exact copies, and copies with equal
extensions make equal observations.  So it expands one copy of each
distinct superkmer (:func:`superkmer_groups`, :func:`block_observations`)
and weights that copy's observations by the copy count.
:func:`repro.core.hashtable.build_subgraph_table` keeps the paper's
shared concurrent hash table, fed every instance's observations in
block order (:func:`instance_observations`), for the experiments that
measure it.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..dna.kmer import (
    canonical_planes_with_flip,
    group_planes,
    group_words,
    pack_spans,
    take_planes,
)
from ..graph.dbg import (
    MULT_SLOT,
    DeBruijnGraph,
    graph_from_pairs,
    slot_for_predecessor,
    slot_for_successor,
    vertex_rows,
)
from ..msp.partitioner import load_partition_group
from ..msp.records import SuperkmerBlock


def _edge_slot_table(slot_for) -> np.ndarray:
    """``slot_for(flipped, base)`` at entry ``5 * flipped + base + 1``.

    ``base`` runs over -1..3; a -1 neighbour (a read boundary) has slot
    -1.
    """
    bases = np.arange(-1, 4)
    slots = slot_for(np.array([[False], [True]]), bases)
    return np.where(bases < 0, -1, slots).astype(np.int8).ravel()


_SUCCESSOR_SLOTS = _edge_slot_table(slot_for_successor)
_PREDECESSOR_SLOTS = _edge_slot_table(slot_for_predecessor)


def instance_slots(block: SuperkmerBlock, positions: np.ndarray,
                   flip: np.ndarray,
                   superkmers: np.ndarray | None = None) -> np.ndarray:
    """The ``(3, n)`` counter slots each kmer instance of a block observes.

    Row 0 is the multiplicity slot, row 1 the successor edge and row 2
    the predecessor edge: the next (previous) base inside the
    superkmer, or the partition's extension base at a superkmer end.
    An edge slot is -1 where the instance touches a read boundary.
    ``positions`` and ``flip`` are the instances' flat base positions
    and canonical-flip flags, grouped by superkmer in the order of
    ``superkmers`` (an index; every superkmer by default).
    """
    k = block.k
    bases = block.bases
    t = bases.size
    chosen = slice(None) if superkmers is None else superkmers
    per_sk = block.kmers_per_superkmer[chosen]
    last = np.cumsum(per_sk) - 1
    first = last - per_sk + 1
    next_base = bases[np.minimum(positions + k, t - 1)].astype(np.int8)
    next_base[last] = block.right_ext[chosen]
    prev_base = bases[np.maximum(positions - 1, 0)].astype(np.int8)
    prev_base[first] = block.left_ext[chosen]
    offset = flip * np.int8(5) + np.int8(1)
    slots = np.empty((3, positions.size), dtype=np.int8)
    slots[0] = MULT_SLOT
    np.take(_SUCCESSOR_SLOTS, next_base + offset, out=slots[1], mode="clip")
    np.take(_PREDECESSOR_SLOTS, prev_base + offset, out=slots[2], mode="clip")
    return slots


def instance_observations(
    block: SuperkmerBlock, superkmers: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Every kmer instance of some superkmers with the observations it makes.

    ``superkmers`` indexes the block's superkmers (every one, in block
    order, by default).  Returns ``(keys, slots)``: the instances'
    canonical keys as a ``(W, n)`` plane array (any k) and their
    ``(3, n)`` counter slots from :func:`instance_slots`.  Each
    non-negative slot is one ``(vertex, slot)`` observation;
    :func:`observation_pairs` flattens them into the per-observation
    stream.
    """
    planes, positions = block.kmer_planes(superkmers)
    keys, flip = canonical_planes_with_flip(planes, block.k)
    return keys, instance_slots(block, positions, flip, superkmers)


def superkmer_groups(block: SuperkmerBlock) -> tuple[np.ndarray, np.ndarray]:
    """The block's identical superkmers grouped: ``(first, copies)``.

    Two superkmers with equal bases and equal extensions make equal
    observations.  A superkmer shorter than ``2k`` is keyed by its bases
    (:func:`repro.dna.kmer.pack_spans`, masked to its length), its length
    and both extensions; one of ``2k`` or more bases gets a key of its
    own.  Returns one superkmer index per group and the group's size,
    from :func:`repro.dna.kmer.group_words`: a hash collision there can
    split a group, never merge two, so the copies stay exact.
    """
    k = block.k
    lengths = block.lengths
    words = pack_spans(block.bases, block.offsets[:-1], lengths, 2 * k - 1)
    tag = lengths.astype(np.uint64)
    tag |= (block.left_ext + 1).astype(np.uint64) << np.uint64(16)
    tag |= (block.right_ext + 1).astype(np.uint64) << np.uint64(20)
    # A short superkmer's tag stays below 2**24 (length < 2k < 2**16,
    # extensions 0..4), so no long one's index tag can equal it.
    long = np.flatnonzero(lengths >= 2 * k)
    tag[long] = (long + 1).astype(np.uint64) << np.uint64(24)
    return group_words(np.vstack([words, tag]))


def block_observations(
    block: SuperkmerBlock,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One copy of each distinct superkmer's instances, with its copy count.

    At high coverage most superkmers of a partition are exact copies:
    an error-free stretch of the genome gets the same minimizer
    boundaries in every read that covers it.  So only one superkmer of
    each :func:`superkmer_groups` group is expanded
    (:func:`instance_observations`).  Returns ``(keys, slots, copies)``:
    the expanded instances' keys and slots, and how many superkmers of
    the block each instance stands for.
    :func:`preaggregate_observations` weights every observation by it,
    which gives the rows of expanding every copy.
    """
    first, copies = superkmer_groups(block)
    keys, slots = instance_observations(block, first)
    return keys, slots, np.repeat(copies, block.kmers_per_superkmer[first])


def observation_pairs(keys: np.ndarray,
                      slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten per-instance observations into parallel observation arrays.

    Takes what :func:`instance_observations` returns and returns the keys
    (same form: ``(W, m)`` planes, or a 1-D array for 1-D input) and
    the int64 slot of every single observation: all multiplicity
    observations first, then the successor edges, then the predecessor
    edges.  This is the paper's per-observation insert stream and the
    input of the sort-merge oracles.
    """
    flat = slots.ravel()
    keep = flat >= 0
    instance = np.flatnonzero(keep) % max(slots.shape[1], 1)
    keys = np.asarray(keys)
    picked = keys[instance] if keys.ndim == 1 else take_planes(keys, instance)
    return picked, flat[keep].astype(np.int64)


def preaggregate_observations(
    keys: np.ndarray, slots: np.ndarray, k: int, copies: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Group a block's observations into one counter row per vertex.

    The paper's hash entry is ``<vertex, list of edge multiplicities>``
    and its inputs carry a ~4-6x kmer duplication ratio (§III-C); one
    row per distinct vertex is exactly that entry.

    Takes instance keys and slots, the block's ``k`` and optionally
    each instance's copy count (what :func:`block_observations`
    returns; one copy each by default); returns ``(keys, rows)``:
    the distinct vertices in ascending order (same form as the input
    keys: ``(W, u)`` planes, or 1-D for 1-D input) and their ``(u, 9)``
    uint32 counter rows -- the subgraph itself (a counter past the
    uint32 maximum raises :class:`OverflowError`).  Inserting the rows
    into :class:`repro.core.hashtable.ConcurrentHashTable` instead
    produces a table byte-identical to the per-observation insert, with
    :class:`HashStats` metered from the row sums for the individual
    observations.
    """
    keys = np.asarray(keys)
    distinct, inverse = group_planes(np.atleast_2d(keys), k)
    rows = vertex_rows(inverse, distinct.shape[1], slots, copies)
    return (distinct[0] if keys.ndim == 1 else distinct), rows


@dataclass
class HashStats:
    """Metered events of a hash table's lifetime.

    The paper's table (:class:`repro.core.hashtable.ConcurrentHashTable`)
    meters every event; the build paths fill the fields the
    observations fix alone (:func:`row_stats`).  ``key_locks`` counts
    multi-word key critical sections (one per insertion under state
    transfer); ``naive_locks`` counts what a whole-entry-locking design
    would pay (one lock per operation) — the ratio of the two is the
    §III-C3 contention-reduction claim.
    """

    ops: int = 0  # observations applied
    inserts: int = 0  # new distinct vertices
    updates: int = 0  # counter increments on existing vertices
    probes: int = 0  # slot visits beyond the first
    key_locks: int = 0  # state EMPTY -> LOCKED -> OCCUPIED transitions
    blocked_reads: int = 0  # times a thread saw LOCKED and had to wait
    cas_failures: int = 0  # lost CAS races on the state flag
    count_increments: int = 0  # atomic adds on the counter array

    @property
    def naive_locks(self) -> int:
        """Locks a design without state transfer would take (1 per op)."""
        return self.ops

    @property
    def lock_reduction(self) -> float:
        """Fraction of entry locks saved by state transfer (≈0.8 in paper)."""
        if self.ops == 0:
            return 0.0
        return 1.0 - self.key_locks / self.ops

    def merged_with(self, other: "HashStats") -> "HashStats":
        return HashStats(
            ops=self.ops + other.ops,
            inserts=self.inserts + other.inserts,
            updates=self.updates + other.updates,
            probes=self.probes + other.probes,
            key_locks=self.key_locks + other.key_locks,
            blocked_reads=self.blocked_reads + other.blocked_reads,
            cas_failures=self.cas_failures + other.cas_failures,
            count_increments=self.count_increments + other.count_increments,
        )


def row_stats(rows: np.ndarray) -> HashStats:
    """``HashStats`` the paper's locked insert meters for distinct-vertex rows.

    Inserting the observations one by one into a fresh table takes one
    op and one atomic increment per observation, one key lock and one
    insert per distinct vertex, and makes every other observation an
    update -- so ``lock_reduction`` is exact without running a table.
    Probes, blocked reads and CAS failures are properties of a shared
    table and stay 0.
    """
    ops = int(rows.sum())
    n = rows.shape[0]
    return HashStats(ops=ops, inserts=n, updates=ops - n, key_locks=n,
                     count_increments=ops)


@dataclass
class SubgraphResult:
    """One constructed subgraph plus its construction telemetry.

    ``capacity``, ``table_bytes`` and ``n_regrows`` describe the hash
    table of :func:`repro.core.hashtable.build_subgraph_table`;
    :func:`build_subgraph` uses none and leaves them 0.
    """

    graph: DeBruijnGraph
    stats: HashStats
    n_kmers: int
    capacity: int = 0
    table_bytes: int = 0
    n_regrows: int = 0


def build_subgraph(block: SuperkmerBlock) -> SubgraphResult:
    """Construct one partition's subgraph as its single owner.

    Every build path gives a partition to exactly one worker, so there
    is nothing to share a table with: the instances of the block's
    distinct superkmers, weighted by their copies
    (:func:`block_observations`) and grouped by canonical vertex
    (:func:`preaggregate_observations`), already are the sorted
    vertices and ``(u, 9)`` counter rows of the subgraph, at any k.
    The graph is identical to the one
    :func:`repro.core.hashtable.build_subgraph_table` reads out of its
    table, and the stats are metered by :func:`row_stats`.
    """
    keys, slots, copies = block_observations(block)
    keys, rows = preaggregate_observations(keys, slots, block.k, copies)
    return SubgraphResult(graph=DeBruijnGraph(k=block.k, vertices=keys, counts=rows),
                          stats=row_stats(rows), n_kmers=block.total_kmers())


def build_partition(paths: Sequence[str | os.PathLike], k: int) -> SubgraphResult:
    """Step 2 on disk: build one partition's subgraph from its files.

    ``paths`` are the partition's files from all its writers.  Every
    disk-backed engine builds through here, one partition at a time.
    """
    return build_subgraph(load_partition_group(paths, k))


def build_subgraph_sortmerge(block: SuperkmerBlock) -> DeBruijnGraph:
    """Sort-merge construction of the same subgraph (§II-B's alternative).

    Used by baselines and as an independent oracle for the hash path.
    """
    return graph_from_pairs(block.k, *observation_pairs(*instance_observations(block)))
