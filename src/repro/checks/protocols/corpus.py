"""The protocol registry: every model by name, and the seeded-bug corpus."""

from __future__ import annotations

from .cas_insert import INSERT_VARIANTS, InsertProtocol

#: Every (protocol, buggy-variant) pair of the seeded-bug corpus.
CORPUS: tuple[tuple[str, str], ...] = tuple(
    ("insert", v) for v in INSERT_VARIANTS
)


def build_model(protocol: str, variant: str | None = None, *,
                writers: int = 3):
    """Instantiate a protocol model by name (the CLI/test entry point)."""
    if protocol == "insert":
        return InsertProtocol(n_writers=writers, variant=variant)
    raise ValueError(f"unknown protocol {protocol!r} (expected 'insert')")
