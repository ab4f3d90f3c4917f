"""Shared-memory segments for the process backend.

The process backend (:mod:`repro.parallel.backend`) moves the read-code
matrix of a ParaHash run into a :mod:`multiprocessing.shared_memory`
segment, so every Step-1 worker reads the *same* physical memory (no
pickling of a multi-megabyte array).  :func:`create_table_segment`
lays out one hash table's arrays (``state``, the ``(W, capacity)``
``keys`` planes, ``counts``) the same way, for measuring what a
shared-memory table of a given size costs to set up.

Lifetime rules
--------------

Exactly one process *owns* each segment: the owner creates it, hands
the picklable :class:`SegmentSpec` to workers, and calls
:meth:`SharedSegment.unlink` once every attacher has exited (or no
longer needs the data).  Attachers call :func:`attach_segment` and
:meth:`SharedSegment.close` — never ``unlink``.  Both directions are
context managers, and the backend keeps every create inside a
``try/finally`` so segments cannot leak past a run even on error.

CPython's ``resource_tracker`` registers *attached* segments too
(bpo-38119).  The backend's workers inherit the parent's tracker
process (fork and spawn both pass the tracker fd down), so the
registration cache is shared and keyed by name: a worker's re-register
is a no-op and the owner's ``unlink`` removes the single entry.  No
unregister calls are needed — and none must be made from workers, as
that would delete the *owner's* registration out from under it.
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
    """Picklable description of a shared-memory segment and its arrays.

    This is the only thing that crosses the process boundary — workers
    reconstruct zero-copy numpy views from it via :func:`attach_segment`.
    """

    segment: str
    nbytes: int
    fields: tuple[ArrayField, ...]

    def field(self, name: str) -> ArrayField:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(f"segment {self.segment} has no field {name!r}")


class SharedSegment:
    """A shared-memory segment plus numpy views over its arrays."""

    def __init__(self, spec: SegmentSpec, shm: shared_memory.SharedMemory,
                 owner: bool) -> None:
        self.spec = spec
        self._shm = shm
        self._owner = owner
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
        """Destroy the segment (owner only); implies :meth:`close`."""
        if not self._owner:
            raise RuntimeError(
                f"segment {self.spec.segment} is attached, not owned; "
                "only the creating process may unlink it"
            )
        self.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "SharedSegment":
        return self

    def __exit__(self, *exc) -> None:
        if self._owner:
            self.unlink()
        else:
            self.close()


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
    return SharedSegment(spec, shm, owner=True)


def attach_segment(spec: SegmentSpec) -> SharedSegment:
    """Attach to an existing segment by spec (worker side).

    The attacher must :meth:`SharedSegment.close` (never ``unlink``)
    when done, after dropping every array view it took — see the
    lifetime rules in the module docstring.
    """
    shm = shared_memory.SharedMemory(name=spec.segment)
    return SharedSegment(spec, shm, owner=False)


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


def attach_read_batch(spec: SegmentSpec):
    """Zero-copy :class:`ReadBatch` over an attached segment.

    Returns ``(batch, segment)``; the caller must keep ``segment`` alive
    while the batch is in use and ``close()`` it afterwards.
    """
    from ..dna.reads import ReadBatch

    seg = attach_segment(spec)
    return ReadBatch(codes=seg["codes"]), seg


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
