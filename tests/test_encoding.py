"""Tests for repro.dna.encoding (2-bit packing)."""

import numpy as np
import pytest

from repro.dna import alphabet as al
from repro.dna import encoding as enc


class TestPackedSize:
    def test_exact_multiples(self):
        assert enc.packed_size(4) == 1
        assert enc.packed_size(8) == 2

    def test_rounding_up(self):
        assert enc.packed_size(1) == 1
        assert enc.packed_size(5) == 2

    def test_zero(self):
        assert enc.packed_size(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            enc.packed_size(-1)

    def test_quarter_size_claim(self):
        # §III-B: encoded output is ~1/4 of the text representation.
        n = 10_000
        assert enc.packed_size(n) == n // 4


class TestPackUnpack:
    def test_roundtrip_all_lengths(self):
        rng = np.random.default_rng(0)
        for n in range(0, 30):
            codes = rng.integers(0, 4, size=n, dtype=np.uint8)
            packed = enc.pack_codes(codes)
            assert len(packed) == enc.packed_size(n)
            out = enc.unpack_codes(packed, n)
            assert np.array_equal(out, codes)

    def test_first_base_most_significant(self):
        packed = enc.pack_codes(np.array([3, 0, 0, 0], dtype=np.uint8))
        assert packed == bytes([0b11000000])

    def test_padding_is_zero(self):
        packed = enc.pack_codes(np.array([1], dtype=np.uint8))
        assert packed == bytes([0b01000000])

    def test_unpack_too_short_raises(self):
        with pytest.raises(ValueError):
            enc.unpack_codes(b"\x00", 5)

    def test_unpack_ignores_trailing_bytes(self):
        codes = np.array([1, 2], dtype=np.uint8)
        data = enc.pack_codes(codes) + b"\xff\xff"
        assert np.array_equal(enc.unpack_codes(data, 2), codes)

    def test_empty(self):
        assert enc.pack_codes(np.zeros(0, dtype=np.uint8)) == b""
        assert enc.unpack_codes(b"", 0).size == 0


class TestIntPacking:
    def test_codes_to_int_lexicographic(self):
        # Integer order must equal string order for equal lengths.
        a = enc.codes_to_int(al.encode("ACGT"))
        b = enc.codes_to_int(al.encode("ACTA"))
        assert (a < b) == ("ACGT" < "ACTA")

    def test_roundtrip(self):
        codes = al.encode("GATTACA")
        value = enc.codes_to_int(codes)
        assert np.array_equal(enc.int_to_codes(value, 7), codes)

    def test_leading_a_preserved(self):
        codes = al.encode("AAAC")
        value = enc.codes_to_int(codes)
        assert value == 1
        assert np.array_equal(enc.int_to_codes(value, 4), codes)

    def test_int_to_codes_overflow_rejected(self):
        with pytest.raises(ValueError):
            enc.int_to_codes(1 << 10, 4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            enc.int_to_codes(-1, 4)
