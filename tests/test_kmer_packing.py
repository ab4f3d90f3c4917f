"""Doubling kmer packers against per-record scalar extraction.

``SuperkmerBlock.flat_kmers`` (one word) and ``flat_kmers_2w`` (two
words) build their kmers from 1-, 2-, 4-, ... 32-base windows; every
width and boundary case here is checked against ``iter_kmers`` run on
each superkmer on its own.
"""

import numpy as np
import pytest

from repro.bigk.construct import flat_kmers_2w
from repro.bigk.kmer2w import hi_bases, join_planes
from repro.dna.kmer import iter_kmers
from repro.msp.records import (
    SuperkmerRecord,
    block_from_records,
    empty_block,
    pack_windows,
)

ONE_WORD_KS = [1, 2, 16, 31]
TWO_WORD_KS = [33, 45, 63]


def _records(rng, k: int) -> list[SuperkmerRecord]:
    """Superkmers of exactly k bases, a little longer, and much longer."""
    lengths = [k, k, k + 1, k + 7, 3 * k + 5]
    return [
        SuperkmerRecord(bases=rng.integers(0, 4, size=n, dtype=np.uint8),
                        left_ext=-1, right_ext=-1)
        for n in lengths
    ]


def _expected(records, k: int) -> list[int]:
    return [km for r in records for km in iter_kmers(r.bases, k)]


@pytest.mark.parametrize("k", ONE_WORD_KS)
def test_flat_kmers_matches_iter_kmers(rng, k):
    records = _records(rng, k)
    block = block_from_records(k, records)
    kmers, positions = block.flat_kmers()
    assert kmers.tolist() == _expected(records, k)
    assert positions.size == kmers.size


@pytest.mark.parametrize("k", TWO_WORD_KS)
def test_flat_kmers_2w_matches_iter_kmers(rng, k):
    records = _records(rng, k)
    block = block_from_records(k, records)
    hi, lo, positions = flat_kmers_2w(block)
    got = [join_planes(h, l) for h, l in zip(hi.tolist(), lo.tolist())]
    assert got == _expected(records, k)
    assert positions.size == hi.size


@pytest.mark.parametrize("k, hi_len", [(33, 1), (63, 31)])
def test_hi_plane_extremes(rng, k, hi_len):
    # k = 33 leaves one base in the high plane, k = 63 leaves 31.
    assert hi_bases(k) == hi_len
    records = [SuperkmerRecord(bases=np.full(k, 3, dtype=np.uint8),
                               left_ext=-1, right_ext=-1)]
    hi, lo, _ = flat_kmers_2w(block_from_records(k, records))
    assert hi.tolist() == [(1 << (2 * hi_len)) - 1]
    assert lo.tolist() == [(1 << 64) - 1]


@pytest.mark.parametrize("k", ONE_WORD_KS + TWO_WORD_KS)
def test_superkmers_exactly_k_long(rng, k):
    records = [SuperkmerRecord(bases=rng.integers(0, 4, size=k, dtype=np.uint8),
                               left_ext=-1, right_ext=-1) for _ in range(3)]
    block = block_from_records(k, records)
    if k > 31:
        hi, lo, positions = flat_kmers_2w(block)
        got = [join_planes(h, l) for h, l in zip(hi.tolist(), lo.tolist())]
    else:
        kmers, positions = block.flat_kmers()
        got = kmers.tolist()
    assert got == _expected(records, k)
    assert positions.tolist() == [0, k, 2 * k]


@pytest.mark.parametrize("k", ONE_WORD_KS + TWO_WORD_KS)
def test_empty_block(k):
    block = empty_block(k)
    if k > 31:
        hi, lo, positions = flat_kmers_2w(block)
        assert hi.size == lo.size == positions.size == 0
    else:
        kmers, positions = block.flat_kmers()
        assert kmers.size == positions.size == 0


def test_pack_windows_every_width(rng):
    bases = rng.integers(0, 4, size=80, dtype=np.uint8)
    for k in range(1, 33):
        expected = list(iter_kmers(bases, k))
        assert pack_windows(bases, k).tolist() == expected, k


def test_pack_windows_rejects_wide_k():
    with pytest.raises(ValueError):
        pack_windows(np.zeros(70, dtype=np.uint8), 33)
    with pytest.raises(ValueError):
        pack_windows(np.zeros(70, dtype=np.uint8), 0)
