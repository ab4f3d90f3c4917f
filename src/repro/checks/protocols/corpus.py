"""The protocol registry: every model by name, and the seeded-bug corpus."""

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

