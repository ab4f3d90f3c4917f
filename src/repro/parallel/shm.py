"""Shared-memory segments, kept to measure what they would cost.

No build makes a segment: the process backend
(:mod:`repro.parallel.backend`) hands each worker its read chunks over
the worker's pipe.  :func:`share_read_batch` (the read-code matrix) and
:func:`create_table_segment` (one hash table's ``state``, ``(W,
capacity)`` ``keys`` planes and ``counts``) lay out the arrays a
shared-memory design would hold, so the benchmark can time what such a
set-up costs at a build's sizes.

Lifetime rule: the process that creates a segment owns it and calls
:meth:`SharedSegment.unlink` on every exit path (a segment is a context
manager, and :func:`share_read_batch` unlinks a half-filled one itself),
so no segment outlives its owner in ``/dev/shm``.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

#: Byte alignment of every array inside a segment (cache-line friendly,
#: and satisfies any dtype's alignment requirement).
_ALIGN = 64


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class ArrayField:
    """One named array inside a segment (picklable layout metadata)."""

    name: str
    shape: tuple[int, ...]
    dtype: str
    offset: int

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class SegmentSpec:
    """Description of a shared-memory segment and its arrays."""

    segment: str
    nbytes: int
    fields: tuple[ArrayField, ...]


class SharedSegment:
    """An owned shared-memory segment plus numpy views over its arrays."""

    def __init__(self, spec: SegmentSpec,
                 shm: shared_memory.SharedMemory) -> None:
        self.spec = spec
        self._shm = shm
        self.arrays: dict[str, np.ndarray] = {
            f.name: np.frombuffer(
                shm.buf, dtype=np.dtype(f.dtype),
                count=int(np.prod(f.shape, dtype=np.int64)), offset=f.offset,
            ).reshape(f.shape)
            for f in spec.fields
        }

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def close(self) -> None:
        """Drop this process's mapping (views become invalid)."""
        # The views hold references into shm.buf; numpy must release
        # them before the buffer can be closed.
        self.arrays = {}
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - view still referenced
            pass

    def unlink(self) -> None:
        """Destroy the segment; implies :meth:`close`."""
        self.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "SharedSegment":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink()


def create_segment(fields: list[tuple[str, tuple[int, ...], str]]) -> SharedSegment:
    """Allocate a zero-filled segment holding the given arrays.

    ``fields`` is a list of ``(name, shape, dtype-string)``; the arrays
    are laid out back to back at 64-byte-aligned offsets.
    """
    laid_out: list[ArrayField] = []
    offset = 0
    for name, shape, dtype in fields:
        f = ArrayField(name=name, shape=tuple(int(s) for s in shape),
                       dtype=dtype, offset=offset)
        laid_out.append(f)
        offset = _aligned(offset + f.nbytes)
    total = max(1, offset)
    shm = shared_memory.SharedMemory(create=True, size=total)
    spec = SegmentSpec(segment=shm.name, nbytes=total, fields=tuple(laid_out))
    return SharedSegment(spec, shm)


# -- read batches ---------------------------------------------------------------


def share_read_batch(batch) -> SharedSegment:
    """Copy a :class:`~repro.dna.reads.ReadBatch` into shared memory.

    Ownership of the segment transfers to the caller on success; if the
    copy itself fails (e.g. a dtype/shape surprise mid-write) the
    half-filled segment is unlinked here rather than leaked — the
    caller never learns its name, so nobody else could.
    """
    seg = create_segment([("codes", batch.codes.shape, "uint8")])
    try:
        seg["codes"][:] = batch.codes
    except BaseException:
        seg.unlink()
        raise
    return seg


# -- hash tables ----------------------------------------------------------------

def create_table_segment(capacity: int, k: int) -> SharedSegment:
    """Zero-filled backing store for one hash table.

    Layout matches :class:`~repro.core.hashtable.ConcurrentHashTable`:
    an int8 ``state`` plane, a ``(W, capacity)`` uint64 ``keys`` plane
    array (``W = key_width(k)``) and ``(capacity, 9)`` uint32
    ``counts``.  ``capacity`` must already be the table's true
    (power-of-two) capacity.
    """
    from ..dna.kmer import key_width
    from ..graph.dbg import N_SLOTS

    return create_segment([
        ("state", (capacity,), "int8"),
        ("keys", (key_width(k), capacity), "uint64"),
        ("counts", (capacity, N_SLOTS), "uint32"),
    ])
