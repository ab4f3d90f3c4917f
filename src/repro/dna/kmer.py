"""K-mer extraction, reverse complement and canonical form.

A *kmer* is a length-K substring of a read; every kmer generated from
the input reads is a candidate vertex of the De Bruijn graph (paper
§II-A).  Because a DNA sequence has a reverse complement, a graph vertex
is represented by the **canonical** kmer — the lexicographically smaller
of a kmer and its reverse complement — and the constructed graph is
bi-directed.

Three representations are provided:

* a **vectorized uint64 path** for ``K <= 31`` (the paper uses K = 27),
  where a kmer is the 2K low bits of a ``numpy.uint64`` and whole read
  batches are processed with array operations;
* the **key-plane codec** for every K: a key is ``W = key_width(k)``
  uint64 *planes* (one for ``k`` in 1..31, two for 33..63), and
  ``n`` keys are one ``(W, n)`` array.  The paper's hash entry "is not
  limited by the machine word size" (§I), so the table, the graph store
  and the Step-2 kernels all work on plane arrays and only this codec
  knows how bases map onto words; and
* a **scalar Python-int path** for arbitrary K, used by the reference
  implementations and as the codec's ground truth.
"""

from __future__ import annotations

import numpy as np

from .alphabet import decode
from .encoding import int_to_codes

#: Largest K supported by the vectorized uint64 representation.
MAX_U64_K = 31

_WORD_MASK = (1 << 64) - 1

# (shift, mask) pairs that swap adjacent 2-bit fields, then nibbles.
_SWAPS = (
    (np.uint64(2), np.uint64(0x3333333333333333)),
    (np.uint64(4), np.uint64(0x0F0F0F0F0F0F0F0F)),
)


def kmer_mask(k: int) -> int:
    """Bit mask covering the 2K bits of a packed kmer."""
    _check_k(k)
    return (1 << (2 * k)) - 1


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _check_u64_k(k: int) -> None:
    _check_k(k)
    if k > MAX_U64_K:
        raise ValueError(f"uint64 kmer path requires k <= {MAX_U64_K}, got {k}")


# ---------------------------------------------------------------------------
# Vectorized uint64 path
# ---------------------------------------------------------------------------

def kmers_from_reads(codes: np.ndarray, k: int) -> np.ndarray:
    """Extract all kmers from a batch of equal-length reads.

    Parameters
    ----------
    codes:
        ``(n_reads, L)`` uint8 matrix of 2-bit base codes.
    k:
        Kmer length, at most :data:`MAX_U64_K`.

    Returns
    -------
    numpy.ndarray
        ``(n_reads, L - k + 1)`` uint64 matrix; element ``[i, j]`` is the
        packed kmer ``reads[i][j : j + k]``.
    """
    _check_u64_k(k)
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.ndim != 2:
        raise ValueError("codes must be a 2-D (n_reads, L) matrix")
    n, length = codes.shape
    if length < k:
        raise ValueError(f"read length {length} shorter than k={k}")
    n_kmers = length - k + 1
    out = np.empty((n, n_kmers), dtype=np.uint64)
    two = np.uint64(2)
    mask = np.uint64(kmer_mask(k))
    cur = np.zeros(n, dtype=np.uint64)
    for j in range(k):
        cur = (cur << two) | codes[:, j].astype(np.uint64)
    out[:, 0] = cur
    for j in range(k, length):
        cur = ((cur << two) | codes[:, j].astype(np.uint64)) & mask
        out[:, j - k + 1] = cur
    return out


def _revcomp_words(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Reverse complement of full 32-base words, written into ``out``.

    Complementing a 2-bit code is ``code ^ 3``, so the whole word is
    inverted; the base order is then reversed by swapping adjacent
    2-bit pairs, then nibbles, then bytes.
    """
    np.invert(words, out=out)
    t = np.empty_like(out)
    for shift, mask in _SWAPS:
        np.right_shift(out, shift, out=t)
        t &= mask
        out &= mask
        out <<= shift
        out |= t
    out.byteswap(inplace=True)
    return out


def revcomp_u64(kmers: np.ndarray, k: int) -> np.ndarray:
    """Reverse complement of packed uint64 kmers, vectorized.

    The full-word reverse complement followed by a shift that drops the
    (complemented) padding.  Accepts ``k`` up to 32 (a full word).
    """
    _check_k(k)
    if k > 32:
        raise ValueError(f"revcomp_u64 requires k <= 32, got {k}")
    kmers = np.ascontiguousarray(kmers, dtype=np.uint64)
    x = _revcomp_words(kmers, np.empty_like(kmers))
    x >>= np.uint64(64 - 2 * k)
    return x


def canonical_u64(kmers: np.ndarray, k: int) -> np.ndarray:
    """Canonical form (minimum of kmer and reverse complement), vectorized."""
    rc = revcomp_u64(kmers, k)
    return np.minimum(np.asarray(kmers, dtype=np.uint64), rc)


def canonical_with_flip(kmers: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical kmers plus a boolean flag marking which were flipped.

    ``flipped[i]`` is ``True`` when the canonical form is the reverse
    complement of the input kmer (the input was not canonical).  Edge
    direction bookkeeping in the graph needs this flag.
    """
    kmers = np.asarray(kmers, dtype=np.uint64)
    rc = revcomp_u64(kmers, k)
    flipped = rc < kmers
    return np.where(flipped, rc, kmers), flipped


# ---------------------------------------------------------------------------
# Scalar Python-int path (arbitrary K)
# ---------------------------------------------------------------------------

def kmer_from_codes(codes: np.ndarray) -> int:
    """Pack a code array into a Python-int kmer (arbitrary length)."""
    value = 0
    for c in np.asarray(codes, dtype=np.uint8):
        value = (value << 2) | int(c)
    return value


def revcomp_int(kmer: int, k: int) -> int:
    """Reverse complement of a Python-int kmer."""
    _check_k(k)
    out = 0
    for _ in range(k):
        out = (out << 2) | ((kmer & 0x3) ^ 0x3)
        kmer >>= 2
    return out


def canonical_int(kmer: int, k: int) -> int:
    """Canonical form of a Python-int kmer."""
    return min(kmer, revcomp_int(kmer, k))


def kmer_to_str(kmer: int, k: int) -> str:
    """Decode a packed kmer to its DNA string."""
    return decode(int_to_codes(int(kmer), k))


def iter_kmers(codes: np.ndarray, k: int):
    """Yield each packed kmer of a single read (reference implementation).

    Slow but obviously correct; used as ground truth in tests.
    """
    _check_k(k)
    codes = np.asarray(codes, dtype=np.uint8)
    for i in range(len(codes) - k + 1):
        yield kmer_from_codes(codes[i : i + k])


# ---------------------------------------------------------------------------
# Key planes (every K)
# ---------------------------------------------------------------------------
#
# Plane 0 holds the leading ``lead_bases(k) = k - 32 (W - 1)`` bases and
# every later plane 32 bases, each packed 2 bits per base with the first
# base in the high bits.  Comparing the planes in order therefore
# compares the kmers, and at W = 2 the planes are the (hi, lo) split of
# the 2k-bit integer.

#: Bases held by every plane after the leading one.
PLANE_BASES = 32


def key_width(k: int) -> int:
    """Number of uint64 planes ``W`` of a ``k``-base key.

    The leading plane holds 1..31 bases, so ``k`` must not be a
    multiple of 32 (that plane would be empty).
    """
    _check_k(k)
    if k % PLANE_BASES == 0:
        raise ValueError(
            f"k must not be a multiple of {PLANE_BASES} (the leading key "
            f"plane would hold no bases), got {k}"
        )
    return k // PLANE_BASES + 1


def lead_bases(k: int) -> int:
    """Bases held by plane 0."""
    return k - PLANE_BASES * (key_width(k) - 1)


def as_planes(keys, k: int) -> np.ndarray:
    """Keys as a contiguous ``(W, n)`` uint64 plane array.

    Accepts a ``(W, ...)`` array or a sequence of ``W`` plane arrays
    (the dimensions after the first are flattened) and, at W = 1, an
    array of one-word keys of any shape.
    """
    width = key_width(k)
    planes = np.asarray(keys, dtype=np.uint64)
    if width == 1:
        planes = planes.reshape(1, -1)
    elif planes.ndim < 2 or planes.shape[0] != width:
        raise ValueError(
            f"k={k} keys need {width} planes, got an array of shape "
            f"{planes.shape}"
        )
    return np.ascontiguousarray(planes.reshape(width, -1))


def take_planes(planes: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``planes[:, index]``, gathered one plane at a time.

    A per-plane ``np.take`` into one preallocated array is several
    times faster than numpy's 2-D fancy index.
    """
    index = np.asarray(index)
    if index.dtype == bool:
        index = np.flatnonzero(index)
    out = np.empty((planes.shape[0], index.size), dtype=np.uint64)
    for plane, row in zip(planes, out):
        # Indices are in range; mode="clip" writes ``out`` unbuffered.
        np.take(plane, index, out=row, mode="clip")
    return out


#: One ``uint32`` multiply packs four 2-bit codes held one per byte of
#: a little-endian word: code ``i`` lands at bits ``30 - 2 i``, so the
#: top byte reads ``c0 c1 c2 c3``.  No partial product reaches bit 24.
_PACK4 = np.uint32(1 + (1 << 10) + (1 << 20) + (1 << 30))

#: Starts gathered per pass of :func:`_pack_words` (bounds its scratch
#: at ``32 W`` bytes per start).
_PACK_CHUNK = 1 << 16


def _pack_words(bases: np.ndarray, starts: np.ndarray, n_words: int) -> np.ndarray:
    """``(n_words, n)`` words of 32 bases each, read from every start.

    Word ``j`` of start ``s`` packs ``bases[s + 32 j : s + 32 (j + 1)]``
    2 bits per base, first base in the high bits, with zeros past the
    end of ``bases``.  Each start's ``32 n_words`` bases are gathered as
    one row of a zero-padded sliding window, packed 4 per byte by one
    multiply, and the bytes read back as big-endian words.
    """
    span = PLANE_BASES * n_words
    padded = np.zeros(bases.size + span, dtype=np.uint8)
    padded[: bases.size] = bases
    # One opaque ``span``-byte item per base: gathering items copies
    # each row whole, faster than a 2-D sliding-window index.
    rows = np.ndarray((bases.size + 1,), dtype=np.dtype((np.void, span)),
                      buffer=padded, strides=(1,))
    out = np.empty((n_words, starts.size), dtype=np.uint64)
    for lo in range(0, starts.size, _PACK_CHUNK):
        hi = min(lo + _PACK_CHUNK, starts.size)
        x = rows[starts[lo:hi]].view(np.uint8).reshape(hi - lo, span)
        quads = x.view("<u4")
        quads *= _PACK4
        out[:, lo:hi] = np.ascontiguousarray(x[:, 3::4]).view(">u8").T
    return out


def pack_planes(bases: np.ndarray, k: int,
                starts: np.ndarray | None = None) -> np.ndarray:
    """The ``k``-base windows of a flat base array as ``(W, n)`` planes.

    Every window by default, or only the windows beginning at
    ``starts``.  The ``W`` words read from each start
    (:func:`_pack_words`) hold its ``32 W >= k`` leading bases; plane 0
    is word 0's leading ``lead_bases(k)`` bases and plane ``j`` the
    tail of word ``j - 1`` joined to the head of word ``j``.
    """
    bases = np.asarray(bases, dtype=np.uint8)
    if starts is None:
        starts = np.arange(max(bases.size - k + 1, 0))
    words = _pack_words(bases, np.asarray(starts, dtype=np.intp), key_width(k))
    tail = np.uint64(2 * (PLANE_BASES - lead_bases(k)))
    head = np.uint64(64) - tail
    planes = np.empty_like(words)
    np.right_shift(words[0], tail, out=planes[0])
    for j in range(1, len(words)):
        np.left_shift(words[j - 1], head, out=planes[j])
        planes[j] |= words[j] >> tail
    return planes


def pack_spans(bases: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
               max_bases: int) -> np.ndarray:
    """Spans of a flat base array packed 32 bases per word, zero past each end.

    Span ``i`` is ``bases[starts[i] : starts[i] + lengths[i]]``; the
    result is ``(ceil(max_bases / 32), n)`` words, and a span longer
    than ``max_bases`` keeps only as many bases as the words hold.  Two
    spans of at most ``max_bases`` bases get equal words exactly when
    their bases are equal and their lengths are equal.
    """
    words = _pack_words(np.asarray(bases, dtype=np.uint8),
                        np.asarray(starts, dtype=np.intp),
                        -(-max_bases // PLANE_BASES))
    lengths = np.asarray(lengths, dtype=np.int64)
    for j, word in enumerate(words):
        held = np.clip(lengths - PLANE_BASES * j, 0, PLANE_BASES)
        shift = (2 * (PLANE_BASES - np.maximum(held, 1))).astype(np.uint64)
        word &= np.where(held > 0, np.uint64(_WORD_MASK) << shift, np.uint64(0))
    return words


def mix_words(words: np.ndarray) -> np.ndarray:
    """A 64-bit multiply-mix hash of each column of ``(m, n)`` uint64 words."""
    h = np.full(words.shape[1], 0x243F6A8885A308D3, dtype=np.uint64)
    for word in words:
        h ^= word
        h *= np.uint64(0x9E3779B97F4A7C15)
        h ^= h >> np.uint64(29)
    return h


def group_words(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Groups of equal columns of ``(m, n)`` uint64 words.

    Returns ``(first, size)``: one column index per group and the
    number of columns in it.  The columns are ordered by one argsort of
    :func:`mix_words`, and a group starts wherever any word differs
    from the column before it in that order.  A hash collision can only
    split equal columns into more than one group, never merge different
    ones.
    """
    n = words.shape[1]
    order = np.argsort(mix_words(words))
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    ordered = np.empty(n, dtype=np.uint64)
    for word in words:
        np.take(word, order, out=ordered, mode="clip")
        new[1:] |= ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(new)
    return order[starts], np.diff(starts, append=n)


def revcomp_planes(planes: np.ndarray, k: int) -> np.ndarray:
    """Reverse complement of plane-array keys, vectorized.

    Reverse-complement each plane as a full 32-base word and reverse
    the plane order; the complemented padding of plane 0 then sits at
    the low end, and a multi-word right shift by ``2 (32 W - k)`` bits
    (2..62, always less than a word) drops it.
    """
    planes = np.asarray(planes, dtype=np.uint64)
    width = key_width(k)
    if planes.shape[0] != width:
        raise ValueError(f"k={k} keys need {width} plane(s), got {planes.shape[0]}")
    out = np.empty_like(planes)
    for j in range(width):
        _revcomp_words(planes[j], out[width - 1 - j])
    shift = np.uint64(2 * (PLANE_BASES - lead_bases(k)))
    carry = np.uint64(64) - shift
    for j in range(width - 1, 0, -1):
        out[j] >>= shift
        out[j] |= out[j - 1] << carry
    out[0] >>= shift
    return out


def less_planes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise lexicographic ``a < b`` of two plane arrays."""
    less = a[-1] < b[-1]
    for j in range(len(a) - 2, -1, -1):
        less = (a[j] < b[j]) | ((a[j] == b[j]) & less)
    return less


def canonical_planes_with_flip(
    planes: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical plane-array keys plus the flipped flag, vectorized."""
    planes = np.asarray(planes, dtype=np.uint64)
    rc = revcomp_planes(planes, k)
    flipped = less_planes(rc, planes)
    return np.where(flipped, rc, planes), flipped


def _or_key_bits(planes: np.ndarray, k: int, start: int, width: int,
                 out: np.ndarray, piece: np.ndarray) -> None:
    """OR ``width`` (1..64) bits of the keys into the low bits of ``out``.

    The bits are ``start .. start + width`` of the ``2k``-bit key,
    counted from its top; they span at most two planes, each staged in
    the scratch array ``piece``.  Every shift count stays within 1..63
    (numpy's ``uint64 << 64`` is not 0).
    """
    lead = 2 * lead_bases(k)
    while width:
        j = 0 if start < lead else (start - lead) // 64 + 1
        bits = lead if j == 0 else 64
        above = start - (0 if j == 0 else lead + 64 * (j - 1))
        taken = min(width, bits - above)
        below = bits - above - taken
        width -= taken
        start += taken
        if below:
            np.right_shift(planes[j], np.uint64(below), out=piece)
        else:
            piece[:] = planes[j]
        if above:
            piece &= np.uint64((1 << taken) - 1)
        if width:
            piece <<= np.uint64(width)
        out |= piece


def _argsort_runs(planes: np.ndarray, k: int,
                  runs: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Sort order of ``(W, n)`` keys, plus the starts of equal-key runs.

    A rank-compressed argsort: the first pass argsorts the key's
    leading 64 bits; each later pass argsorts ``dense rank of the
    prefix sorted so far << b | the next b key bits``, with ``b`` the
    bits the rank leaves free, until every key bit is used or no two
    prefixes tie.  A 45-base key takes two passes.  Three ``n``-sized
    arrays serve every pass: the key, the order and one scratch array.

    With ``runs``, also returns ``new``: ``new[i]`` is true where the
    ``i``-th sorted key differs from the one before it.
    """
    total = 2 * k
    used = min(total, 64)
    scratch = np.empty(planes.shape[1], dtype=np.uint64)
    if planes.shape[0] == 1:
        key = planes[0]  # all 2k bits: one pass, never written
    else:
        key = np.zeros_like(scratch)
        _or_key_bits(planes, k, 0, used, key, scratch)
    while True:
        order = np.argsort(key)
        if used == total and not runs:
            return order, None
        # The keys in sorted order; mode="clip" writes ``out`` unbuffered.
        np.take(key, order, out=scratch, mode="clip")
        new = np.empty(order.size, dtype=bool)
        new[:1] = True
        np.not_equal(scratch[1:], scratch[:-1], out=new[1:])
        if used == total or new.all():
            return order, new
        rank = np.cumsum(new, dtype=np.uint64, out=scratch)
        rank -= np.uint64(1)
        rank_bits = int(rank[-1]).bit_length()
        width = min(64 - rank_bits, total - used)
        key[order] = rank
        del order
        if rank_bits:
            key <<= np.uint64(width)
        _or_key_bits(planes, k, used, width, key, scratch)
        used += width


def sort_order(planes: np.ndarray, k: int) -> np.ndarray:
    """Indices that sort ``(W, n)`` ``k``-base keys ascending.

    One plane is one ``np.argsort``; more take the rank-compressed
    argsort of :func:`_argsort_runs`.  Equal keys end up next to each
    other in no particular order.
    """
    return _argsort_runs(planes, k, runs=False)[0]


def group_planes(planes: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ``(W, n)`` ``k``-base keys in ascending order, plus each key's group.

    Returns ``(keys, inverse)`` with ``keys[:, inverse] == planes``;
    one plane takes ``np.unique``, more the rank-compressed argsort of
    :func:`_argsort_runs`, whose last pass marks where the runs start.
    """
    if planes.shape[0] == 1:
        keys, inverse = np.unique(planes[0], return_inverse=True)
        return keys[None], inverse
    order, new = _argsort_runs(planes, k, runs=True)
    group = np.cumsum(new)
    group -= 1
    inverse = np.empty(order.size, dtype=np.int64)
    inverse[order] = group
    return take_planes(planes, order[new]), inverse


def split_int(kmer: int, k: int) -> tuple[int, ...]:
    """A Python-int kmer as its ``W`` plane values, plane 0 first."""
    width = key_width(k)
    kmer = int(kmer)
    return tuple(
        (kmer >> (64 * (width - 1 - j))) & _WORD_MASK for j in range(width)
    )


def join_planes(*planes: int) -> int:
    """Inverse of :func:`split_int`."""
    kmer = 0
    for plane in planes:
        kmer = (kmer << 64) | int(plane)
    return kmer


def planes_to_ints(planes: np.ndarray) -> list[int]:
    """``(W, n)`` keys as a list of Python-int kmers."""
    if len(planes) == 1:
        return planes[0].tolist()
    return [join_planes(*key) for key in zip(*(p.tolist() for p in planes))]
