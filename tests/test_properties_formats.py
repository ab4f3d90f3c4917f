"""Property-based tests for the disk formats and partitioning invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dna.kmer import key_width, split_int
from repro.dna.reads import ReadBatch
from repro.graph.build import build_reference_graph
from repro.graph.dbg import COUNT_MAX, DeBruijnGraph
from repro.graph.serialize import export_tsv, import_tsv, load_graph, save_graph
from repro.graph.validate import assert_graphs_equal
from repro.msp.binio import (
    PartitionWriter,
    read_partition,
    write_partition,
)
from repro.msp.partitioner import load_partition_group, partition_reads
from repro.msp.records import (
    SuperkmerRecord,
    block_from_records,
    concat_blocks,
    empty_block,
)


def _examples(pinned: int) -> int:
    """``pinned`` examples, or the loaded profile's count when it asks for
    more than hypothesis's default (the nightly ``deep`` profile)."""
    loaded = settings().max_examples
    return loaded if loaded > settings.get_profile("default").max_examples else pinned


@st.composite
def superkmer_blocks(draw):
    k = draw(st.integers(3, 15))
    n = draw(st.integers(0, 12))
    records = []
    for _ in range(n):
        length = draw(st.integers(k, k + 30))
        bases = np.array(
            draw(st.lists(st.integers(0, 3), min_size=length, max_size=length)),
            dtype=np.uint8,
        )
        left = draw(st.sampled_from([-1, 0, 1, 2, 3]))
        right = draw(st.sampled_from([-1, 0, 1, 2, 3]))
        records.append(SuperkmerRecord(bases=bases, left_ext=left, right_ext=right))
    return block_from_records(k, records)


@st.composite
def framed_writes(draw):
    """``(k, blocks, cut)``: 1-4 blocks (some empty) for one writer each
    call, and where to split them over two writers' files of one
    partition (``None``: one file).  Lengths run from exactly ``k``
    through every residue mod 4."""
    k = draw(st.integers(1, 63))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        records = []
        for _ in range(draw(st.integers(0, 5))):
            length = k + draw(st.integers(0, 7))
            raw = draw(st.binary(min_size=length, max_size=length))
            records.append(SuperkmerRecord(
                bases=np.frombuffer(raw, dtype=np.uint8) & 3,
                left_ext=draw(st.sampled_from([-1, 0, 1, 2, 3])),
                right_ext=draw(st.sampled_from([-1, 0, 1, 2, 3])),
            ))
        blocks.append(block_from_records(k, records))
    cut = draw(st.none() | st.integers(0, len(blocks)))
    return k, blocks, cut


@st.composite
def read_batches(draw):
    n = draw(st.integers(1, 12))
    length = draw(st.integers(8, 40))
    codes = np.array(
        draw(
            st.lists(
                st.lists(st.integers(0, 3), min_size=length, max_size=length),
                min_size=n, max_size=n,
            )
        ),
        dtype=np.uint8,
    )
    return ReadBatch(codes=codes)


@st.composite
def limit_graphs(draw):
    """Graphs at every k in 1..63 but 32 (which has no key width) whose
    counters crowd the uint32 maximum."""
    k = draw(st.integers(1, 63).filter(lambda k: k != 32))
    kmers = sorted(draw(st.sets(st.integers(0, 4**k - 1), max_size=8)))
    planes = np.array([split_int(v, k) for v in kmers],
                      dtype=np.uint64).reshape(-1, key_width(k)).T
    near_top = st.integers(COUNT_MAX - 2, COUNT_MAX)
    counts = draw(st.lists(near_top | st.integers(0, COUNT_MAX),
                           min_size=9 * len(kmers), max_size=9 * len(kmers)))
    return DeBruijnGraph(k=k, vertices=planes,
                         counts=np.array(counts, dtype=np.uint64).reshape(-1, 9))


class TestPartitionFileProperties:
    @given(block=superkmer_blocks())
    @settings(max_examples=_examples(25), deadline=None)
    def test_binio_roundtrip(self, tmp_path_factory, block):
        path = tmp_path_factory.mktemp("phsk") / "p.phsk"
        write_partition(path, block)
        back = read_partition(path)
        assert back.k == block.k
        assert np.array_equal(back.bases, block.bases)
        assert np.array_equal(back.offsets, block.offsets)
        assert np.array_equal(back.left_ext, block.left_ext)
        assert np.array_equal(back.right_ext, block.right_ext)


    @given(case=framed_writes())
    @settings(max_examples=_examples(40), deadline=None)
    def test_frames_roundtrip(self, tmp_path_factory, case):
        k, blocks, cut = case
        out = tmp_path_factory.mktemp("frames")
        groups = [blocks] if cut is None else [blocks[:cut], blocks[cut:]]
        paths = []
        for i, group in enumerate(groups):
            paths.append(out / f"part{i}.phsk")
            with PartitionWriter(paths[-1], k) as writer:
                for block in group:
                    writer.write_block(block)
        back = load_partition_group(paths, k)
        nonempty = [b for b in blocks if b.n_superkmers]
        want = concat_blocks(nonempty) if nonempty else empty_block(k)
        assert back.k == k
        assert np.array_equal(back.bases, want.bases)
        assert np.array_equal(back.offsets, want.offsets)
        assert np.array_equal(back.left_ext, want.left_ext)
        assert np.array_equal(back.right_ext, want.right_ext)


class TestGraphFileProperties:
    @given(batch=read_batches(), k=st.integers(3, 12))
    @settings(max_examples=_examples(20), deadline=None)
    def test_binary_roundtrip(self, tmp_path_factory, batch, k):
        if k > batch.read_length:
            k = batch.read_length
        graph = build_reference_graph(batch, k)
        path = tmp_path_factory.mktemp("phdbg") / "g.phdbg"
        save_graph(path, graph)
        assert_graphs_equal(load_graph(path), graph)

    @given(batch=read_batches(), k=st.integers(3, 10))
    @settings(max_examples=_examples(15), deadline=None)
    def test_tsv_roundtrip(self, tmp_path_factory, batch, k):
        if k > batch.read_length:
            k = batch.read_length
        graph = build_reference_graph(batch, k)
        path = tmp_path_factory.mktemp("tsv") / "g.tsv"
        export_tsv(path, graph)
        assert_graphs_equal(import_tsv(path), graph)


    @given(graph=limit_graphs())
    @settings(max_examples=_examples(25), deadline=None)
    def test_uint32_limit_roundtrip(self, tmp_path_factory, graph):
        out = tmp_path_factory.mktemp("limit")
        save_graph(out / "g.phdbg", graph)
        back = load_graph(out / "g.phdbg")
        assert back.counts.dtype == np.uint32
        assert_graphs_equal(back, graph)
        export_tsv(out / "g.tsv", graph)
        assert_graphs_equal(import_tsv(out / "g.tsv"), graph)

    @given(graph=limit_graphs())
    @settings(max_examples=_examples(25), deadline=None)
    def test_v1_loads_equal_to_v2(self, tmp_path_factory, write_v1_graph,
                                  graph):
        out = tmp_path_factory.mktemp("v1")
        write_v1_graph(out / "v1.phdbg", graph.k, graph.planes, graph.counts)
        save_graph(out / "v2.phdbg", graph)
        assert_graphs_equal(load_graph(out / "v1.phdbg"),
                            load_graph(out / "v2.phdbg"))


class TestPartitioningProperties:
    @given(read_batches(), st.integers(0, 2**31 - 1))
    @settings(max_examples=_examples(25), deadline=None)
    def test_partitions_vertex_disjoint(self, batch, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(3, min(13, batch.read_length) + 1))
        p = int(rng.integers(1, k + 1))
        n_partitions = int(rng.integers(1, 10))
        from repro.dna.kmer import canonical_u64

        res = partition_reads(batch, k, p, n_partitions)
        seen: dict[int, int] = {}
        for pid, block in enumerate(res.blocks):
            if block.n_superkmers == 0:
                continue
            kmers, _ = block.flat_kmers()
            for v in np.unique(canonical_u64(kmers, k)):
                assert seen.setdefault(int(v), pid) == pid

    @given(read_batches())
    @settings(max_examples=_examples(20), deadline=None)
    def test_noncanonical_minimizers_can_break_disjointness(self, batch):
        # The ablation that justifies canonical minimizers: with plain
        # Definition-1 minimizers, a vertex read on both strands can
        # land in two partitions.  We verify the canonical variant never
        # does (above) and record that the non-canonical one is allowed
        # to (no assertion that it must — just that our check is what
        # distinguishes them on strand-mixed data).
        from repro.dna.kmer import canonical_u64, kmers_from_reads
        from repro.dna.minimizer import superkmers_for_reads

        k, p = min(9, batch.read_length), 4
        p = min(p, k)
        # Build a strand-mixed batch: originals plus reverse complements.
        rc = (batch.codes[:, ::-1] ^ 3).astype(np.uint8)
        mixed = ReadBatch(codes=np.concatenate([batch.codes, rc]))
        canonical_sk = superkmers_for_reads(mixed.codes, k, p, canonical=True)
        # Each canonical kmer maps to exactly one canonical minimizer.
        minis: dict[int, int] = {}
        kmers_all = canonical_u64(kmers_from_reads(mixed.codes, k), k)
        per_kmer_mini = np.repeat(canonical_sk.minimizer, canonical_sk.n_kmers)
        for v, m in zip(kmers_all.ravel(), per_kmer_mini):
            assert minis.setdefault(int(v), int(m)) == int(m)