"""Tests for repro.dna.minimizer (P-minimum-substrings and superkmers)."""

import numpy as np
import pytest

from repro.dna import alphabet as al
from repro.dna import minimizer as mz

from .oracles import kmer_minimizers, minimizer_of_kmer_ref, superkmers_of_read_ref


class TestSlidingMin:
    def test_window_one_is_identity(self, rng):
        a = rng.integers(0, 100, size=(3, 10))
        assert np.array_equal(mz.sliding_min(a, 1), a)

    def test_full_window(self, rng):
        a = rng.integers(0, 100, size=(3, 10))
        assert np.array_equal(mz.sliding_min(a, 10).ravel(), a.min(axis=1))

    def test_matches_naive(self, rng):
        a = rng.integers(0, 1000, size=(5, 40))
        for w in (2, 3, 7, 16, 40):
            got = mz.sliding_min(a, w)
            for i in range(5):
                for j in range(40 - w + 1):
                    assert got[i, j] == a[i, j : j + w].min()

    def test_bad_window(self):
        a = np.zeros((2, 5))
        with pytest.raises(ValueError):
            mz.sliding_min(a, 0)
        with pytest.raises(ValueError):
            mz.sliding_min(a, 6)

    def test_1d_input(self):
        a = np.array([5, 3, 8, 1, 9])
        assert mz.sliding_min(a, 2).tolist() == [3, 3, 1, 1]

    def test_1d_full_window(self):
        a = np.array([5, 3, 8, 1, 9])
        assert mz.sliding_min(a, 5).tolist() == [1]

    def test_single_element_window_one(self):
        a = np.array([[42]])
        got = mz.sliding_min(a, 1)
        assert got.shape == (1, 1)
        assert got[0, 0] == 42

    def test_window_one_does_not_alias_input(self):
        # window == 1 must return values equal to the input but not a
        # view that later doubling rounds (or the caller) could mutate.
        a = np.array([[7, 2, 5]])
        got = mz.sliding_min(a, 1)
        got[0, 0] = -1
        assert a[0, 0] == 7


class TestMinimizers:
    """Each kmer's minimizer as the Step-1 scanner finds it."""

    def test_matches_reference_noncanonical(self, rng):
        codes = rng.integers(0, 4, size=(10, 30), dtype=np.uint8)
        k, p = 11, 4
        got = kmer_minimizers(codes, k, p, canonical=False)
        for i in range(10):
            for j in range(30 - k + 1):
                ref = minimizer_of_kmer_ref(codes[i, j : j + k], p, canonical=False)
                assert int(got[i, j]) == ref

    def test_matches_reference_canonical(self, rng):
        codes = rng.integers(0, 4, size=(8, 26), dtype=np.uint8)
        k, p = 9, 5
        got = kmer_minimizers(codes, k, p)
        for i in range(8):
            for j in range(26 - k + 1):
                ref = minimizer_of_kmer_ref(codes[i, j : j + k], p)
                assert int(got[i, j]) == ref

    def test_p_equals_k(self, rng):
        # With P = K, the minimizer of a kmer is its own canonical form.
        codes = rng.integers(0, 4, size=(4, 20), dtype=np.uint8)
        from repro.dna.kmer import canonical_u64, kmers_from_reads

        k = 7
        minis = kmer_minimizers(codes, k, k)
        kmers = kmers_from_reads(codes, k)
        assert np.array_equal(minis, canonical_u64(kmers, k))

    def test_strand_invariance(self, rng):
        # Canonical minimizers must be identical for a read and its RC.
        codes = rng.integers(0, 4, size=(1, 40), dtype=np.uint8)
        rc = (codes[:, ::-1] ^ 3).astype(np.uint8)
        k, p = 15, 7
        fwd = kmer_minimizers(codes, k, p)
        bwd = kmer_minimizers(rc, k, p)
        assert np.array_equal(fwd[0], bwd[0][::-1])

    def test_invalid_p(self):
        codes = np.zeros((1, 20), dtype=np.uint8)
        with pytest.raises(ValueError):
            kmer_minimizers(codes, 5, 0)
        with pytest.raises(ValueError):
            kmer_minimizers(codes, 5, 6)


class TestSuperkmers:
    def test_matches_reference(self, rng):
        codes = rng.integers(0, 4, size=(12, 35), dtype=np.uint8)
        k, p = 11, 5
        sk = mz.superkmers_for_reads(codes, k, p)
        for i in range(12):
            ref = superkmers_of_read_ref(codes[i], k, p)
            got = [
                (int(s), int(n), int(m))
                for r, s, n, m in zip(sk.read_idx, sk.start, sk.n_kmers, sk.minimizer)
                if r == i
            ]
            assert got == [(a, b, int(c)) for a, b, c in ref]

    def test_covers_every_kmer_exactly_once(self, rng):
        codes = rng.integers(0, 4, size=(30, 50), dtype=np.uint8)
        k, p = 13, 6
        sk = mz.superkmers_for_reads(codes, k, p)
        assert sk.total_kmers() == 30 * (50 - k + 1)
        # Within each read, superkmers tile the kmer index range.
        for i in range(30):
            spans = sorted(
                (int(s), int(s + n))
                for r, s, n in zip(sk.read_idx, sk.start, sk.n_kmers)
                if r == i
            )
            assert spans[0][0] == 0
            assert spans[-1][1] == 50 - k + 1
            for (a, b), (c, d) in zip(spans, spans[1:]):
                assert b == c

    def test_base_lengths(self, rng):
        codes = rng.integers(0, 4, size=(5, 30), dtype=np.uint8)
        sk = mz.superkmers_for_reads(codes, 9, 4)
        assert np.array_equal(sk.base_lengths, sk.n_kmers + 8)

    def test_superkmer_compaction_bound(self, rng):
        # A superkmer with M kmers stores M + K - 1 bases, vs M*K if
        # kmers were stored individually (§III-B's space claim).
        codes = rng.integers(0, 4, size=(20, 60), dtype=np.uint8)
        k, p = 15, 5
        sk = mz.superkmers_for_reads(codes, k, p)
        compact = int(sk.base_lengths.sum())
        naive = int(sk.n_kmers.sum()) * k
        assert compact < naive

    def test_single_superkmer_when_p1(self):
        # P = 1: minimizer = smallest base; often one superkmer per read
        # when the read contains an 'A' in every kmer window.
        codes = al.encode("AACAGATAAC").reshape(1, -1)
        sk = mz.superkmers_for_reads(codes, 4, 1)
        assert len(sk) == 1
        assert int(sk.n_kmers[0]) == 7

    def test_uniform_read(self):
        codes = np.zeros((1, 20), dtype=np.uint8)  # "AAAA..."
        sk = mz.superkmers_for_reads(codes, 5, 3)
        assert len(sk) == 1
        assert int(sk.minimizer[0]) == 0

    def test_known_split(self):
        # Non-canonical, P=2: minimizer changes mid-read force splits.
        codes = al.encode("TTTTATTTT").reshape(1, -1)
        sk = mz.superkmers_for_reads(codes, 4, 2, canonical=False)
        # kmers: TTTT TTTA TTAT TATT ATTT TTTT; minimizers: TT,TA,AT,AT,AT,TT
        assert [int(n) for n in sk.n_kmers] == [1, 1, 3, 1]

    def test_reads_shorter_than_k_raises(self):
        codes = np.zeros((1, 4), dtype=np.uint8)
        with pytest.raises(ValueError):
            mz.superkmers_for_reads(codes, 5, 2)

    def test_ref_rejects_short_read(self):
        with pytest.raises(ValueError):
            superkmers_of_read_ref(np.zeros(3, dtype=np.uint8), 5, 2)
