"""Property-based tests for the key-plane codec past one word."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bigk.store import build_reference_bigk_slow
from repro.bigk.table import TwoWordHashTable
from repro.core.parahash import build_debruijn_graph
from repro.dna.kmer import (
    canonical_int,
    canonical_planes_with_flip,
    join_planes,
    revcomp_int,
    revcomp_planes,
    split_int,
)
from repro.dna.reads import ReadBatch
from repro.graph.dbg import graph_from_pairs

from .oracles import read_planes

big_ks = st.integers(33, 63)


class TestPlaneProperties:
    @given(big_ks, st.data())
    def test_split_join_roundtrip(self, k, data):
        kmer = data.draw(st.integers(0, (1 << (2 * k)) - 1))
        hi, lo = split_int(kmer, k)
        assert join_planes(hi, lo) == kmer

    @given(big_ks, st.data())
    @settings(max_examples=40)
    def test_revcomp_matches_scalar(self, k, data):
        kmer = data.draw(st.integers(0, (1 << (2 * k)) - 1))
        hi, lo = split_int(kmer, k)
        rhi, rlo = revcomp_planes((np.array([hi], dtype=np.uint64),
                                   np.array([lo], dtype=np.uint64)), k)
        assert join_planes(int(rhi[0]), int(rlo[0])) == revcomp_int(kmer, k)

    @given(big_ks, st.data())
    @settings(max_examples=40)
    def test_canonical_matches_scalar(self, k, data):
        kmer = data.draw(st.integers(0, (1 << (2 * k)) - 1))
        hi, lo = split_int(kmer, k)
        (chi, clo), flip = canonical_planes_with_flip(
            (np.array([hi], dtype=np.uint64), np.array([lo], dtype=np.uint64)), k
        )
        expected = canonical_int(kmer, k)
        assert join_planes(int(chi[0]), int(clo[0])) == expected
        assert bool(flip[0]) == (expected != kmer)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_extraction_matches_scalar(self, seed):
        from repro.dna.kmer import iter_kmers

        rng = np.random.default_rng(seed)
        k = int(rng.integers(33, 64))
        length = k + int(rng.integers(0, 20))
        codes = rng.integers(0, 4, size=(2, length), dtype=np.uint8)
        hi, lo = read_planes(codes, k)
        for i in range(2):
            for j, ref in enumerate(iter_kmers(codes[i], k)):
                assert join_planes(hi[i, j], lo[i, j]) == ref


class TestBigKConstructionProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_pipeline_equals_slow_reference(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(33, 50))
        n = int(rng.integers(2, 10))
        length = k + int(rng.integers(2, 25))
        batch = ReadBatch(codes=rng.integers(0, 4, size=(n, length),
                                             dtype=np.uint8))
        p = int(rng.integers(5, 22))
        n_partitions = int(rng.integers(1, 8))
        fast = build_debruijn_graph(batch, k, p=p, n_partitions=n_partitions)
        slow = build_reference_bigk_slow(batch, k)
        assert fast.equals(slow)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_table_equals_sortmerge(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(33, 64))
        n = int(rng.integers(1, 300))
        hi = rng.integers(0, 1 << (2 * (k - 32)), size=n, dtype=np.uint64)
        lo = rng.integers(0, 1 << 63, size=n, dtype=np.uint64)
        slots = rng.integers(0, 9, size=n).astype(np.int64)
        table = TwoWordHashTable(1024, k)
        table.insert_batch(hi, lo, slots)
        assert table.to_graph().equals(graph_from_pairs(k, (hi, lo), slots))


# -- Sort kernel on ties past the leading 64 bits ---------------------------------
#
# sort_order/group_planes argsort the key's leading 64 bits, then
# ``dense rank << b | next b bits`` until every bit is used or no tie
# is left.  Keys drawn from a few 64-bit prefixes and a few tails make
# every pass matter; up to 8 prefixes need a 3-bit rank, which at
# k = 63 leaves 61 of the 62 tail bits and forces a third pass.

tie_ks = st.sampled_from([33, 45, 62, 63, 65, 80, 95])


@st.composite
def tie_heavy_keys(draw):
    from repro.dna.kmer import lead_bases

    k = draw(tie_ks)
    tail_bits = 2 * k - 64
    prefix = st.integers(0, (1 << 64) - 1)
    if draw(st.booleans()):  # plane 0 all zero
        prefix = st.integers(0, (1 << (64 - 2 * lead_bases(k))) - 1)
    prefixes = draw(st.lists(prefix, min_size=1, max_size=8))
    tails = draw(st.lists(st.integers(0, (1 << tail_bits) - 1),
                          min_size=1, max_size=6))
    pairs = draw(st.lists(st.tuples(st.sampled_from(prefixes),
                                    st.sampled_from(tails)), max_size=60))
    return k, [(p << tail_bits) | t for p, t in pairs]


def _check_sort_kernels(k, kmers):
    from repro.dna.kmer import group_planes, sort_order

    planes = _planes(kmers, k)
    order = sort_order(planes, k).tolist()
    assert [kmers[i] for i in order] == sorted(kmers)
    keys, inverse = group_planes(planes, k)
    distinct = sorted(set(kmers))
    assert [join_planes(*col) for col in keys.T.tolist()] == distinct
    assert [distinct[i] for i in inverse.tolist()] == kmers


class TestSortKernelTies:
    @given(tie_heavy_keys())
    def test_sort_and_group_match_ints(self, case):
        _check_sort_kernels(*case)

    @pytest.mark.parametrize("k, passes", [(45, 2), (63, 3), (95, 4)])
    def test_passes(self, monkeypatch, k, passes):
        # Six 64-bit prefixes, each with tails that differ in the last
        # bit only: the rank takes 3 bits.
        tail_bits = 2 * k - 64
        kmers = [((p * 0x9E3779B97F4A7C15 % (1 << 64)) << tail_bits) | t
                 for p in range(6) for t in (0, 1)]
        calls = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort",
                            lambda a, *args, **kw: calls.append(a.size)
                            or argsort(a, *args, **kw))
        _check_sort_kernels(k, kmers)
        assert calls == [len(kmers)] * passes * 2  # sort_order, group_planes

    def test_no_tie_is_one_pass(self, monkeypatch):
        kmers = [(p << 26) | 5 for p in range(10)]
        calls = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort",
                            lambda a, *args, **kw: calls.append(a.size)
                            or argsort(a, *args, **kw))
        _check_sort_kernels(45, kmers)
        assert len(calls) == 2


# -- W = 3: k > 63 needs no code change in the codec ------------------------------
#
# Only the codec knows how bases map onto planes, so running it at three
# planes against the scalar Python-int functions shows that wider keys
# are a constant change (the k ranges of ParaHashConfig and JobSpec).
# Multiples of 32 leave the leading plane empty and are rejected.

three_plane_ks = st.integers(65, 95)


def _kmer(data, k):
    return data.draw(st.integers(0, (1 << (2 * k)) - 1))


def _planes(kmers, k):
    from repro.dna.kmer import key_width

    columns = [split_int(km, k) for km in kmers]
    return np.array(columns, dtype=np.uint64).reshape(-1, key_width(k)).T


class TestThreePlaneCodec:
    @given(three_plane_ks, st.data())
    def test_width_and_int_roundtrip(self, k, data):
        from repro.dna.kmer import key_width, lead_bases

        assert key_width(k) == 3 and lead_bases(k) == k - 64
        kmer = _kmer(data, k)
        planes = split_int(kmer, k)
        assert len(planes) == 3 and planes[0] < 1 << (2 * (k - 64))
        assert join_planes(*planes) == kmer

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_pack_matches_scalar(self, seed):
        from repro.dna.kmer import iter_kmers, pack_planes, planes_to_ints

        rng = np.random.default_rng(seed)
        k = int(rng.integers(65, 96))
        bases = rng.integers(0, 4, size=k + int(rng.integers(0, 30)),
                             dtype=np.uint8)
        assert planes_to_ints(pack_planes(bases, k)) == list(iter_kmers(bases, k))

    @given(three_plane_ks, st.data())
    @settings(max_examples=60)
    def test_revcomp_matches_scalar_and_involutes(self, k, data):
        kmers = [_kmer(data, k) for _ in range(4)]
        planes = _planes(kmers, k)
        rc = revcomp_planes(planes, k)
        assert [join_planes(*col) for col in rc.T.tolist()] == [
            revcomp_int(km, k) for km in kmers
        ]
        assert np.array_equal(revcomp_planes(rc, k), planes)

    @given(three_plane_ks, st.data())
    @settings(max_examples=60)
    def test_canonical_with_flip_matches_scalar(self, k, data):
        kmers = [_kmer(data, k) for _ in range(4)]
        canon, flip = canonical_planes_with_flip(_planes(kmers, k), k)
        expected = [canonical_int(km, k) for km in kmers]
        assert [join_planes(*col) for col in canon.T.tolist()] == expected
        assert flip.tolist() == [e != km for e, km in zip(expected, kmers)]

    @given(three_plane_ks, st.data())
    @settings(max_examples=60)
    def test_less_and_sort_order_match_ints(self, k, data):
        from repro.dna.kmer import group_planes, less_planes, sort_order

        # Few distinct values per plane, so ties reach the later planes.
        kmers = [
            join_planes(*(data.draw(st.sampled_from([0, 1, (1 << 64) - 1]))
                          if j else data.draw(st.integers(0, 2))
                          for j in range(3)))
            for _ in range(8)
        ]
        planes = _planes(kmers, k)
        a, b = planes[:, :4], planes[:, 4:]
        assert less_planes(a, b).tolist() == [
            x < y for x, y in zip(kmers[:4], kmers[4:])
        ]
        order = sort_order(planes, k).tolist()
        assert [kmers[i] for i in order] == sorted(kmers)
        keys, inverse = group_planes(planes, k)
        distinct = sorted(set(kmers))
        assert [join_planes(*col) for col in keys.T.tolist()] == distinct
        assert [distinct[i] for i in inverse.tolist()] == kmers

    def test_multiples_of_32_rejected(self):
        from repro.dna.kmer import key_width

        for k in (32, 64, 96):
            with pytest.raises(ValueError):
                key_width(k)

    def test_pipeline_k_ranges_stay_at_two_planes(self):
        from repro.core.config import ParaHashConfig
        from repro.service.jobstore import JobError, JobSpec

        for k in (32, 64, 65):
            with pytest.raises(ValueError):
                ParaHashConfig(k=k, p=11)
            with pytest.raises(JobError):
                JobSpec(input="reads.fastq", k=k, p=11)
