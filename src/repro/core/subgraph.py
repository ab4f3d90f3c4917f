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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dna.kmer import canonical_with_flip
from ..graph.dbg import (
    MULT_SLOT,
    N_SLOTS,
    DeBruijnGraph,
    graph_from_pairs,
    slot_for_predecessor,
    slot_for_successor,
)
from ..msp.records import SuperkmerBlock
from .estimator import SizingPolicy, next_power_of_two
from .hashtable import ConcurrentHashTable, HashStats, TableFullError


def instance_slots(block: SuperkmerBlock, positions: np.ndarray,
                   flip: np.ndarray) -> np.ndarray:
    """The ``(3, n)`` counter slots each kmer instance of a block observes.

    Row 0 is the multiplicity slot, row 1 the successor edge and row 2
    the predecessor edge: the next (previous) base inside the
    superkmer, or the partition's extension base at a superkmer end.
    An edge slot is -1 where the instance touches a read boundary.
    ``positions`` and ``flip`` are the instances' flat base positions
    and canonical-flip flags, in block order.
    """
    k = block.k
    bases = block.bases
    t = bases.size
    per_sk = block.kmers_per_superkmer
    last = np.cumsum(per_sk) - 1
    first = last - per_sk + 1
    next_base = bases[np.minimum(positions + k, t - 1)].astype(np.int8)
    next_base[last] = block.right_ext
    prev_base = bases[np.maximum(positions - 1, 0)].astype(np.int8)
    prev_base[first] = block.left_ext
    slots = np.empty((3, positions.size), dtype=np.int8)
    slots[0] = MULT_SLOT
    slots[1] = np.where(next_base < 0, -1, slot_for_successor(flip, next_base))
    slots[2] = np.where(prev_base < 0, -1, slot_for_predecessor(flip, prev_base))
    return slots


def block_observations(block: SuperkmerBlock) -> tuple[np.ndarray, np.ndarray]:
    """Every kmer instance of a block with the observations it makes.

    Returns ``(vertices, slots)``: the instances' canonical vertices
    (uint64, block order) and their ``(3, n)`` counter slots from
    :func:`instance_slots`.  Each non-negative slot is one ``(vertex,
    slot)`` observation; :func:`preaggregate_observations` groups them
    into vertex rows and :func:`observation_pairs` flattens them into
    the per-observation stream.
    """
    if block.n_superkmers == 0:
        return np.zeros(0, dtype=np.uint64), np.zeros((3, 0), dtype=np.int8)
    kmers, positions = block.flat_kmers()
    can, flip = canonical_with_flip(kmers, block.k)
    return can, instance_slots(block, positions, flip)


def observation_pairs(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Flatten per-instance observations into parallel observation arrays.

    Takes what :func:`block_observations` (or its two-word twin)
    returns -- the key planes, then the ``(3, n)`` slots -- and returns
    the planes and the int64 slot of every single observation: all
    multiplicity observations first, then the successor edges, then
    the predecessor edges.  This is the paper's per-observation insert
    stream and the input of the sort-merge oracles.
    """
    *planes, slots = arrays
    flat = slots.ravel()
    keep = flat >= 0
    return (*(np.tile(plane, 3)[keep] for plane in planes),
            flat[keep].astype(np.int64))


def vertex_rows(inverse: np.ndarray, n_vertices: int,
                slots: np.ndarray) -> np.ndarray:
    """``(n_vertices, 9)`` counter rows of grouped kmer instances.

    Instance ``i`` belongs to vertex ``inverse[i]`` and adds one count
    to each of its non-negative ``slots[:, i]``; a single ``bincount``
    over ``vertex * 9 + slot`` builds every row at once.
    """
    spill = n_vertices * N_SLOTS  # bin for the -1 slots, dropped below
    bins = np.where(slots < 0, spill, inverse * N_SLOTS + slots)
    counts = np.bincount(bins.ravel(), minlength=spill + 1)[:-1]
    return counts.reshape(n_vertices, N_SLOTS).view(np.uint64)


def preaggregate_observations(
    vertices: np.ndarray, slots: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Group a block's observations into one counter row per vertex.

    The paper's hash entry is ``<vertex, list of edge multiplicities>``
    and its inputs carry a ~4-6x kmer duplication ratio (§III-C), so
    the instances are grouped by canonical vertex first and each
    distinct vertex pays a single probe walk in
    :meth:`ConcurrentHashTable.insert_batch`, instead of one per
    observation.

    Takes :func:`block_observations` output; returns ``(keys, rows)``:
    the distinct vertices in ascending order and their ``(u, 9)``
    uint64 counter rows.  Inserting the rows produces a table
    byte-identical to the per-observation insert, with ``HashStats``
    metered from the row sums for the individual observations.
    """
    keys, inverse = np.unique(vertices, return_inverse=True)
    return keys, vertex_rows(inverse, keys.size, slots)


def insert_arrays(block: SuperkmerBlock, preaggregate: bool) -> tuple[np.ndarray, ...]:
    """The arrays one ``insert_batch`` call takes for ``block``.

    Vertex rows with ``preaggregate``, else the per-observation stream;
    key planes for the block's width (two for ``k > 31``).
    """
    if block.k > 31:
        from ..bigk.construct import block_observations_2w as expand
        from ..bigk.construct import preaggregate_observations_2w as group
    else:
        expand, group = block_observations, preaggregate_observations
    observations = expand(block)
    return group(*observations) if preaggregate else observation_pairs(*observations)


def _new_table(capacity: int, k: int, protocol: str, table_layout: str,
               n_shards: int):
    """An empty table of the layout and key width ``k`` asks for."""
    if table_layout == "sharded":
        from ..parallel.sharded import ShardedHashTable, ShardedTwoWordHashTable

        cls = ShardedTwoWordHashTable if k > 31 else ShardedHashTable
        return cls(capacity, k, n_shards=n_shards, protocol=protocol)
    if k > 31:
        from ..bigk.table import TwoWordHashTable

        return TwoWordHashTable(capacity, k, protocol=protocol)
    return ConcurrentHashTable(capacity, k, protocol=protocol)


@dataclass
class SubgraphResult:
    """One constructed subgraph plus its construction telemetry."""

    graph: DeBruijnGraph  # BigDeBruijnGraph for k > 31
    stats: HashStats
    capacity: int
    n_kmers: int
    table_bytes: int
    n_regrows: int = 0


def build_subgraph(
    block: SuperkmerBlock,
    policy: SizingPolicy | None = None,
    n_threads: int = 1,
    allow_regrow: bool = True,
    preaggregate: bool = False,
    protocol: str = "locked",
    table_layout: str = "flat",
    n_shards: int = 8,
) -> SubgraphResult:
    """Construct one subgraph with the concurrent hash table.

    ``n_threads == 1`` uses the vectorized batch path, on either key
    width (``k > 31`` takes the two-word table and returns a
    :class:`repro.bigk.store.BigDeBruijnGraph`); more threads run the
    real per-operation state machine concurrently on one-word keys
    (slow; meant for correctness validation, not throughput).

    ``preaggregate`` (batch path only) groups the block's instances by
    vertex via :func:`preaggregate_observations` and inserts one counter
    row per distinct vertex; the resulting graph and the metered
    ``HashStats.lock_reduction`` are identical, only the table-touching
    work shrinks.

    The table is sized once from Property 1 and, on genomic data, never
    resizes — that is the paper's design.  Inputs that violate the
    estimate (e.g. coverage < 1, where nearly every kmer is distinct)
    would overflow the fixed table; with ``allow_regrow`` the build
    retries with doubled capacity and reports ``n_regrows > 0`` so
    callers can see the estimate was breached.  With
    ``allow_regrow=False`` the overflow raises
    :class:`repro.core.hashtable.TableFullError` instead.

    ``protocol`` selects the per-slot insert protocol (``locked`` state
    transfer or ``lockfree`` CAS-publish) and ``table_layout`` the
    table layout (``flat`` or the hash-prefix ``sharded`` wrapper with
    ``n_shards`` shards); every combination produces the identical
    graph.
    """
    policy = policy or SizingPolicy()
    n_kmers = block.total_kmers()
    if n_threads == 1:
        arrays = insert_arrays(block, preaggregate)
    elif block.k > 31:
        raise ValueError("the threaded path needs one-word keys (k <= 31)")
    else:
        arrays = observation_pairs(*block_observations(block))

    capacity = policy.capacity_for(max(1, n_kmers))
    # Hard upper bound: there cannot be more distinct vertices than
    # kmer instances, so capacity n_kmers/alpha always fits.
    bound = next_power_of_two(max(2, int(n_kmers / policy.alpha) + 1))
    n_regrows = 0
    while True:
        table = _new_table(capacity, block.k, protocol, table_layout, n_shards)
        try:
            if n_threads == 1:
                table.insert_batch(*arrays)
            else:
                table.insert_threaded(*arrays, n_threads)
            break
        except TableFullError:
            if not allow_regrow or capacity >= bound:
                raise
            capacity *= 2
            n_regrows += 1
    return SubgraphResult(
        graph=table.to_graph(),
        stats=table.stats,
        capacity=table.capacity,
        n_kmers=n_kmers,
        table_bytes=table.memory_bytes(),
        n_regrows=n_regrows,
    )


def build_subgraph_sortmerge(block: SuperkmerBlock) -> DeBruijnGraph:
    """Sort-merge construction of the same subgraph (§II-B's alternative).

    Used by baselines and as an independent oracle for the hash path.
    """
    return graph_from_pairs(block.k, *observation_pairs(*block_observations(block)))
