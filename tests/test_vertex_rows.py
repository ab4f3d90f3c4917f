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
"""

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
    observation_pairs,
    preaggregate_observations,
)
from repro.dna.kmer import join_planes, kmer_from_codes, revcomp_int
from repro.msp.records import SuperkmerRecord, block_from_records

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
    """Insert the block's rows (or every observation) into a fresh table.

    Returns the table; an overflowing table is rebuilt at twice the
    capacity, as :func:`build_subgraph_table` does.
    """
    observations = block_observations(block)
    arrays = (preaggregate_observations(*observations, block.k) if rows
              else observation_pairs(*observations))
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
