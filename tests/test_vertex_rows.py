"""Vertex-row Step 2 against independent oracles, on adversarial blocks.

The row path groups a partition's kmer instances by canonical vertex
into one 9-counter row per vertex.  Here the owner build
(``build_subgraph``) must equal a pure-Python ``Counter``-style oracle
and the sort-merge oracle (``build_subgraph_sortmerge``) on both key
widths, and meter the same
protocol-level ``HashStats`` as the paper's per-observation insert;
inserting the rows into the hash table must give that table's
per-observation graph and stats.

The blocks are built directly from superkmer records, so they can hold
what MSP output rarely does: read-boundary (-1) extensions on both
sides, repeated identical superkmers, a kmer and its reverse complement
inside one superkmer, and homopolymer runs.

``build_subgraph`` expands one copy of each distinct superkmer and
weights it by its copies; the dedup tests plant exact copies beside
near-copies that differ only in one extension, in length or in the last
base, and superkmers of ``2k`` or more bases, and check the rows
against a ``collections.Counter`` of every observation -- also with the
grouping hash forced to one value, so every superkmer collides.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import SizingPolicy
from repro.core.hashtable import ConcurrentHashTable, TableFullError
from repro.core.subgraph import (
    block_observations,
    build_subgraph,
    build_subgraph_sortmerge,
    instance_observations,
    observation_pairs,
    preaggregate_observations,
    superkmer_groups,
)
from repro.dna import kmer as kmer_codec
from repro.dna.kmer import join_planes, kmer_from_codes, revcomp_int
from repro.graph.dbg import vertex_rows
from repro.msp.records import SuperkmerRecord, block_from_records, empty_block

#: ``HashStats`` fields fixed by the observations alone, whatever order
#: or grouping the table sees them in.
PROTOCOL_FIELDS = ("ops", "inserts", "key_locks", "updates", "count_increments")

POLICIES = [
    SizingPolicy(),
    # Undersized tables: forces regrows.
    SizingPolicy(lam=0.25, alpha=1.0, min_capacity=2),
]

exts = st.sampled_from([-1, -1, 0, 1, 2, 3])


@st.composite
def superkmer_bases(draw, k: int) -> list[int]:
    kind = draw(st.sampled_from(["random", "homopolymer", "revcomp"]))
    if kind == "homopolymer":
        return [draw(st.integers(0, 3))] * (k + draw(st.integers(0, 12)))
    if kind == "revcomp":
        # A kmer followed by its reverse complement: one superkmer
        # holds both orientations of the same vertex.
        kmer = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
        return kmer + [3 - b for b in reversed(kmer)]
    return draw(st.lists(st.integers(0, 3), min_size=k, max_size=k + 8))


@st.composite
def blocks(draw, ks):
    k = draw(st.sampled_from(ks))
    records: list[SuperkmerRecord] = []
    for _ in range(draw(st.integers(1, 6))):
        if records and draw(st.booleans()):
            # An exact repeat of an earlier superkmer, extensions included.
            records.append(draw(st.sampled_from(records)))
            continue
        bases = np.array(draw(superkmer_bases(k)), dtype=np.uint8)
        records.append(SuperkmerRecord(bases=bases, left_ext=draw(exts),
                                       right_ext=draw(exts)))
    return block_from_records(k, records)


def oracle_rows(block) -> dict[int, list[int]]:
    """Vertex -> 9 counters, straight from the records in pure Python."""
    k = block.k
    rows: dict[int, list[int]] = {}
    for rec in block.iter_records():
        bases = [int(b) for b in rec.bases]
        for i in range(len(bases) - k + 1):
            fwd = kmer_from_codes(bases[i:i + k])
            rc = revcomp_int(fwd, k)
            flip = rc < fwd
            row = rows.setdefault(min(fwd, rc), [0] * 9)
            row[8] += 1
            nxt = bases[i + k] if i + k < len(bases) else rec.right_ext
            prv = bases[i - 1] if i > 0 else rec.left_ext
            # Slots 0-3: out-edge by appended base; 4-7: in-edge by
            # prepended base; a flipped instance mirrors both.
            if nxt >= 0:
                row[4 + (3 - nxt) if flip else nxt] += 1
            if prv >= 0:
                row[3 - prv if flip else 4 + prv] += 1
    return rows


def graph_rows(graph) -> dict[int, list[int]]:
    if hasattr(graph, "vertices_hi"):
        keys = [join_planes(h, l) for h, l in
                zip(graph.vertices_hi.tolist(), graph.vertices_lo.tolist())]
    else:
        keys = graph.vertices.tolist()
    return dict(zip(keys, graph.counts.tolist()))


def filled_table(block, policy, rows):
    """Insert the block's weighted rows (or every observation) into a fresh table.

    Returns the table; an overflowing table is rebuilt at twice the
    capacity, as :func:`build_subgraph_table` does.
    """
    if rows:
        keys, slots, copies = block_observations(block)
        arrays = preaggregate_observations(keys, slots, block.k, copies)
    else:
        arrays = observation_pairs(*instance_observations(block))
    capacity = policy.capacity_for(max(1, block.total_kmers()))
    while True:
        table = ConcurrentHashTable(capacity, block.k)
        try:
            table.insert_batch(*arrays)
            return table
        except TableFullError:
            capacity *= 2


def check_block(block, policy) -> None:
    oracle = oracle_rows(block)
    sortmerge = build_subgraph_sortmerge(block)
    assert graph_rows(sortmerge) == oracle
    owner = build_subgraph(block)
    assert graph_rows(owner.graph) == oracle
    rows = filled_table(block, policy, rows=True)
    plain = filled_table(block, policy, rows=False)
    assert graph_rows(rows.to_graph()) == oracle
    assert graph_rows(plain.to_graph()) == oracle
    for field in PROTOCOL_FIELDS:
        assert getattr(rows.stats, field) == getattr(plain.stats, field), field
        assert getattr(owner.stats, field) == getattr(plain.stats, field), field
    assert rows.stats.lock_reduction == plain.stats.lock_reduction


@given(blocks([1, 2, 3, 5, 11, 16, 31]), st.sampled_from(POLICIES))
@settings(max_examples=40, deadline=None)
def test_one_word_rows_match_oracles(block, policy):
    check_block(block, policy)


@given(blocks([33, 40, 63]), st.sampled_from(POLICIES))
@settings(max_examples=30, deadline=None)
def test_two_word_rows_match_oracles(block, policy):
    check_block(block, policy)


@pytest.mark.parametrize("k", [5, 45])
def test_palindromic_superkmer_folds_into_one_row(k):
    # A kmer and its reverse complement back to back share a vertex,
    # and the superkmer repeats: the row must hold every instance.
    rng = np.random.default_rng(k)
    kmer = rng.integers(0, 4, size=k, dtype=np.uint8)
    bases = np.concatenate([kmer, 3 - kmer[::-1]])
    block = block_from_records(k, [SuperkmerRecord(bases, -1, -1)] * 2)
    check_block(block, POLICIES[0])


# -- one copy per distinct superkmer -------------------------------------------


def counter_oracle(block) -> Counter:
    """``(vertex, slot)`` -> count over every observation, in pure Python."""
    k = block.k
    seen: Counter = Counter()
    for rec in block.iter_records():
        bases = [int(b) for b in rec.bases]
        for i in range(len(bases) - k + 1):
            fwd = kmer_from_codes(bases[i:i + k])
            rc = revcomp_int(fwd, k)
            vertex, flip = min(fwd, rc), rc < fwd
            seen[vertex, 8] += 1
            nxt = bases[i + k] if i + k < len(bases) else rec.right_ext
            prv = bases[i - 1] if i > 0 else rec.left_ext
            if nxt >= 0:
                seen[vertex, 4 + (3 - nxt) if flip else nxt] += 1
            if prv >= 0:
                seen[vertex, 3 - prv if flip else 4 + prv] += 1
    return seen


def graph_counter(graph) -> Counter:
    return Counter({(vertex, slot): count
                    for vertex, row in graph_rows(graph).items()
                    for slot, count in enumerate(row) if count})


@st.composite
def near_copy(draw, rec: SuperkmerRecord, k: int) -> SuperkmerRecord:
    """``rec`` with one extension, its length or its last base changed."""
    bases = rec.bases.copy()
    left, right = rec.left_ext, rec.right_ext
    change = draw(st.sampled_from(["left", "right", "longer", "shorter", "last"]))
    if change == "left":
        left = draw(exts.filter(lambda e: e != rec.left_ext))
    elif change == "right":
        right = draw(exts.filter(lambda e: e != rec.right_ext))
    elif change == "longer" or (change == "shorter" and bases.size == k):
        bases = np.append(bases, np.uint8(draw(st.integers(0, 3))))
    elif change == "shorter":
        bases = bases[:-1]
    else:
        bases[-1] = (bases[-1] + draw(st.integers(1, 3))) % 4
    return SuperkmerRecord(bases=bases, left_ext=left, right_ext=right)


@st.composite
def dedup_blocks(draw, ks):
    """Blocks of planted exact copies and near-copies, in any order."""
    k = draw(st.sampled_from(ks))
    records: list[SuperkmerRecord] = []
    for _ in range(draw(st.integers(0, 4))):
        # Lengths reach past 2k: such a superkmer is its own group.
        n = draw(st.integers(k, 2 * k + 3))
        bases = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                         dtype=np.uint8)
        records.append(SuperkmerRecord(bases=bases, left_ext=draw(exts),
                                       right_ext=draw(exts)))
    planted = list(records)
    for rec in records:
        planted += [rec] * draw(st.integers(0, 3))
        planted += [draw(near_copy(rec, k)) for _ in range(draw(st.integers(0, 2)))]
    order = draw(st.permutations(range(len(planted))))
    return block_from_records(k, [planted[i] for i in order])


def check_dedup(block) -> None:
    built = build_subgraph(block)
    assert graph_counter(built.graph) == counter_oracle(block)
    assert built.n_kmers == block.total_kmers()
    keys, slots, copies = block_observations(block)
    assert int(copies.sum()) == block.total_kmers()


def _examples(pinned: int) -> int:
    """``pinned`` examples, or the loaded profile's count when it asks for
    more than hypothesis's default (the nightly ``deep`` profile)."""
    loaded = settings().max_examples
    return loaded if loaded > settings.get_profile("default").max_examples else pinned


@given(dedup_blocks([1, 5, 11, 27, 31, 33, 45, 63]))
@settings(max_examples=_examples(60), deadline=None)
def test_dedup_rows_match_counter_oracle(block):
    check_dedup(block)


@given(dedup_blocks([5, 27, 45]))
@settings(max_examples=_examples(20), deadline=None)
def test_dedup_rows_exact_when_every_hash_collides(block):
    # One hash for every key: groups can only split, never merge, so
    # the rows stay exact.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kmer_codec, "mix_words",
                   lambda words: np.zeros(words.shape[1], dtype=np.uint64))
        check_dedup(block)


@pytest.mark.parametrize("k", [5, 27, 45])
def test_superkmer_groups_count_copies(k):
    rng = np.random.default_rng(k)
    a = SuperkmerRecord(rng.integers(0, 4, size=k + 3, dtype=np.uint8), 1, -1)
    b = SuperkmerRecord(a.bases, 2, -1)  # differs only in its left extension
    c = SuperkmerRecord(a.bases[:-1], 1, -1)  # one base shorter
    long = SuperkmerRecord(rng.integers(0, 4, size=2 * k, dtype=np.uint8), -1, -1)
    block = block_from_records(k, [a, b, a, c, long, a, long, b])
    first, copies = superkmer_groups(block)
    sizes = {block.record(int(i)).to_str() + str(block.left_ext[i]): int(n)
             for i, n in zip(first, copies) if block.lengths[i] < 2 * k}
    assert sizes == {a.to_str() + "1": 3, b.to_str() + "2": 2, c.to_str() + "1": 1}
    # Superkmers of 2k or more bases are never merged.
    assert sorted(copies[block.lengths[first] >= 2 * k].tolist()) == [1, 1]
    check_dedup(block)


def test_dedup_empty_block():
    check_dedup(empty_block(27))
    assert build_subgraph(empty_block(45)).graph.n_vertices == 0


def test_rows_past_the_uint32_maximum_raise():
    top = 2**32 - 1
    inverse = np.array([0, 0, 1])
    slots = np.array([[8, 8, 8], [2, -1, 5], [-1, 4, 6]])
    rows = vertex_rows(inverse, 2, slots, np.array([top - 1, 1, 7]))
    assert rows.dtype == np.uint32
    assert rows[0].tolist() == [0, 0, top - 1, 0, 1, 0, 0, 0, top]
    with pytest.raises(OverflowError):
        vertex_rows(inverse, 2, slots, np.array([top, 1, 7]))
