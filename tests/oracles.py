"""Slow, obviously correct references the tests check the kernels
against, and per-kmer views of the vectorized kernels to compare with
them."""

from __future__ import annotations

import numpy as np

from repro.dna.kmer import canonical_int, kmer_from_codes, pack_planes
from repro.dna.minimizer import superkmers_for_reads


def minimizer_of_kmer_ref(codes: np.ndarray, p: int, canonical: bool = True) -> int:
    """Reference P-minimum-substring of a single kmer (Definition 1).

    With ``canonical`` the substrings are canonicalized first (the
    strand-invariant variant the partitioner uses).
    """
    codes = np.asarray(codes, dtype=np.uint8)
    k = len(codes)
    if not 1 <= p <= k:
        raise ValueError(f"need 1 <= p <= k, got p={p}, k={k}")
    values = (kmer_from_codes(codes[i : i + p]) for i in range(k - p + 1))
    if canonical:
        return min(canonical_int(v, p) for v in values)
    return min(values)


def superkmers_of_read_ref(
    codes: np.ndarray, k: int, p: int, canonical: bool = True
) -> list[tuple[int, int, int]]:
    """Reference superkmer decomposition of one read (Definition 2).

    Returns ``(start_kmer_index, n_kmers, minimizer)`` tuples in
    left-to-right order, one read and one kmer at a time.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    n_kmers = len(codes) - k + 1
    if n_kmers <= 0:
        raise ValueError(f"read of length {len(codes)} has no kmers for k={k}")
    minis = [
        minimizer_of_kmer_ref(codes[i : i + k], p, canonical=canonical)
        for i in range(n_kmers)
    ]
    groups: list[tuple[int, int, int]] = []
    start = 0
    for i in range(1, n_kmers + 1):
        if i == n_kmers or minis[i] != minis[start]:
            groups.append((start, i - start, minis[start]))
            start = i
    return groups


def kmer_minimizers(codes: np.ndarray, k: int, p: int,
                    canonical: bool = True) -> np.ndarray:
    """The minimizer of every kmer of equal-length reads, from the Step-1
    scanner: ``(n_reads, L - k + 1)``, each superkmer's minimizer
    repeated over its kmers."""
    codes = np.asarray(codes, dtype=np.uint8)
    sk = superkmers_for_reads(codes, k, p, canonical=canonical)
    return np.repeat(sk.minimizer, sk.n_kmers).reshape(
        codes.shape[0], codes.shape[1] - k + 1)


def read_planes(codes: np.ndarray, k: int) -> np.ndarray:
    """Every kmer of equal-length reads as ``(W, n_reads, L - k + 1)``
    key planes, packed by :func:`repro.dna.kmer.pack_planes`."""
    codes = np.asarray(codes, dtype=np.uint8)
    n, length = codes.shape
    n_kmers = length - k + 1
    starts = (np.arange(n)[:, None] * length + np.arange(n_kmers)).ravel()
    return pack_planes(codes.ravel(), k, starts).reshape(-1, n, n_kmers)
