"""Abstract protocol models for :mod:`repro.checks.model`.

Two protocols, each with a fixed (verified) build and a corpus of
deliberately broken variants the checker must refute:

* :class:`~repro.checks.protocols.cas_insert.InsertProtocol` — the
  §III-C3 state-transfer insert (CAS EMPTY→LOCKED, write key, publish
  OCCUPIED) as run by ``ConcurrentHashTable.insert_one_threadsafe``.
* :class:`~repro.checks.protocols.workqueue.WorkQueueProtocol` — the
  §III-E srv/cns publish/claim discipline shared by
  ``concurrentsub.workqueue`` and the process backend's
  ``ProcessWorkQueue``, including crash transitions and the parent
  merger's abort containment.
"""

from __future__ import annotations

from .cas_insert import INSERT_VARIANTS, InsertProtocol
from .workqueue import QUEUE_VARIANTS, WorkQueueProtocol

#: Every (protocol, buggy-variant) pair of the seeded-bug corpus.
CORPUS: tuple[tuple[str, str], ...] = tuple(
    [("insert", v) for v in INSERT_VARIANTS]
    + [("workqueue", v) for v in QUEUE_VARIANTS]
)


def build_model(protocol: str, variant: str | None = None, *,
                writers: int = 3, consumers: int = 2, items: int = 4,
                crash: bool = True):
    """Instantiate a protocol model by name (the CLI/test entry point)."""
    if protocol == "insert":
        return InsertProtocol(n_writers=writers, variant=variant)
    if protocol == "workqueue":
        return WorkQueueProtocol(n_consumers=consumers, n_items=items,
                                 crash=crash, variant=variant)
    raise ValueError(f"unknown protocol {protocol!r} "
                     f"(expected 'insert' or 'workqueue')")


__all__ = [
    "CORPUS",
    "INSERT_VARIANTS",
    "QUEUE_VARIANTS",
    "InsertProtocol",
    "WorkQueueProtocol",
    "build_model",
]
