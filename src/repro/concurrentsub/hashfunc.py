"""Hash functions for kmers, minimizers and multi-word keys.

The same 64-bit mixer is used for (a) routing superkmers to partitions
("a value computed from the minimizer's hash bit value with a modulo of
the number of partitions", §III-B) and (b) indexing the open-addressing
hash tables of Step 2.  The mixer is the splitmix64 finalizer — a full
avalanche bijection on 64-bit words, so distinct minimizers spread
uniformly over partitions and table slots.
"""

from __future__ import annotations

import numpy as np

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

_M1_INT = 0xBF58476D1CE4E5B9
_M2_INT = 0x94D049BB133111EB
_GOLDEN_INT = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def mix64(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array."""
    x = np.asarray(values, dtype=np.uint64).copy()
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(30)
        x *= _M1
        x ^= x >> np.uint64(27)
        x *= _M2
        x ^= x >> np.uint64(31)
    return x


def mix64_int(value: int) -> int:
    """Scalar splitmix64 finalizer (matches :func:`mix64` bit-for-bit)."""
    x = value & _MASK64
    x ^= x >> 30
    x = (x * _M1_INT) & _MASK64
    x ^= x >> 27
    x = (x * _M2_INT) & _MASK64
    x ^= x >> 31
    return x


def hash_planes(*planes: np.ndarray) -> np.ndarray:
    """Probe hash of plane-array keys (vectorized), folded over planes.

    ``h = mix64(p0)``, then ``h = mix64(p_j ^ (h + GOLDEN))`` per later
    plane: the one-word hash at W = 1 and a full-key mix at any W.
    """
    h = mix64(planes[0])
    with np.errstate(over="ignore"):
        for plane in planes[1:]:
            h = mix64(np.asarray(plane, dtype=np.uint64) ^ (h + _GOLDEN))
    return h


def hash_planes_int(*planes: int) -> int:
    """Scalar twin of :func:`hash_planes` over plane values."""
    h = mix64_int(planes[0])
    for plane in planes[1:]:
        h = mix64_int(plane ^ ((h + _GOLDEN_INT) & _MASK64))
    return h


def partition_ids(minimizers: np.ndarray, n_partitions: int) -> np.ndarray:
    """Superkmer partition id: ``mix64(minimizer) % n_partitions``."""
    if n_partitions < 1:
        raise ValueError("n_partitions must be >= 1")
    return (mix64(minimizers) % np.uint64(n_partitions)).astype(np.int64)

