"""The kmer packer against per-record scalar extraction.

``SuperkmerBlock.flat_kmers`` (one word) and ``kmer_planes`` (two
words) pack only the kmers that start at the block's kmer positions
(``pack_planes`` with ``starts``); every width and boundary case here
is checked against ``iter_kmers`` run on each superkmer on its own,
and ``pack_planes`` itself at one, two and three planes, at arbitrary
starts and at starts within ``32 W`` bases of the array's end.
"""

import numpy as np
import pytest

from repro.dna.kmer import (
    iter_kmers,
    join_planes,
    key_width,
    kmer_from_codes,
    lead_bases,
    pack_planes,
    pack_spans,
    planes_to_ints,
)
from repro.msp.records import SuperkmerRecord, block_from_records, empty_block

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
    (hi, lo), positions = block.kmer_planes()
    got = [join_planes(h, l) for h, l in zip(hi.tolist(), lo.tolist())]
    assert got == _expected(records, k)
    assert positions.size == hi.size


@pytest.mark.parametrize("k, hi_len", [(33, 1), (63, 31)])
def test_hi_plane_extremes(rng, k, hi_len):
    # k = 33 leaves one base in the high plane, k = 63 leaves 31.
    assert lead_bases(k) == hi_len
    records = [SuperkmerRecord(bases=np.full(k, 3, dtype=np.uint8),
                               left_ext=-1, right_ext=-1)]
    (hi, lo), _ = block_from_records(k, records).kmer_planes()
    assert hi.tolist() == [(1 << (2 * hi_len)) - 1]
    assert lo.tolist() == [(1 << 64) - 1]


@pytest.mark.parametrize("k", ONE_WORD_KS + TWO_WORD_KS)
def test_superkmers_exactly_k_long(rng, k):
    records = [SuperkmerRecord(bases=rng.integers(0, 4, size=k, dtype=np.uint8),
                               left_ext=-1, right_ext=-1) for _ in range(3)]
    block = block_from_records(k, records)
    if k > 31:
        (hi, lo), positions = block.kmer_planes()
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
        (hi, lo), positions = block.kmer_planes()
        assert hi.size == lo.size == positions.size == 0
    else:
        kmers, positions = block.flat_kmers()
        assert kmers.size == positions.size == 0


#: One k per plane count, plus each width's extremes.
PACK_KS = [1, 27, 31, 33, 45, 63, 65, 80, 95]


@pytest.mark.parametrize("k", PACK_KS)
def test_pack_planes_every_window(rng, k):
    bases = rng.integers(0, 4, size=3 * k + 40, dtype=np.uint8)
    assert planes_to_ints(pack_planes(bases, k)) == list(iter_kmers(bases, k))


@pytest.mark.parametrize("k", PACK_KS)
def test_pack_planes_at_starts(rng, k):
    # Any order, repeats, and every start whose 32 W-base read runs
    # past the end of the array into the zero padding.
    size = 3 * k + 40
    bases = rng.integers(0, 4, size=size, dtype=np.uint8)
    edge = np.arange(max(0, size - 32 * key_width(k)), size - k + 1)
    starts = np.concatenate([rng.integers(0, size - k + 1, size=60), edge, edge[:3]])
    expected = [kmer_from_codes(bases[s:s + k]) for s in starts]
    assert planes_to_ints(pack_planes(bases, k, starts)) == expected


@pytest.mark.parametrize("k", [1, 31, 45, 95])
def test_pack_planes_no_starts(k):
    planes = pack_planes(np.zeros(k - 1, dtype=np.uint8), k)
    assert planes.shape == (key_width(k), 0)
    planes = pack_planes(np.ones(k + 5, dtype=np.uint8), k, np.zeros(0, dtype=np.int64))
    assert planes.shape == (key_width(k), 0)


@pytest.mark.parametrize("max_bases", [1, 32, 53, 64, 89])
def test_pack_spans_masks_each_span_to_its_length(rng, max_bases):
    size = 200
    bases = rng.integers(0, 4, size=size, dtype=np.uint8)
    starts = rng.integers(0, size, size=80)
    lengths = np.minimum(rng.integers(1, max_bases + 1, size=80), size - starts)
    words = pack_spans(bases, starts, lengths, max_bases)
    held = 32 * words.shape[0]
    assert held >= max_bases > held - 32
    for i, (start, length) in enumerate(zip(starts, lengths)):
        value = join_planes(*words[:, i].tolist())
        span = kmer_from_codes(bases[start:start + length])
        assert value == span << (2 * (held - int(length)))
