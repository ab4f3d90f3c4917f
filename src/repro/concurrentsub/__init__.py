"""Concurrency substrate: atomics, hash mixing, work-stealing queues."""

from .atomics import AtomicInt64Array, SharedCounter
from .hashfunc import hash_words, mix64, mix64_int, partition_ids, table_slots
from .workqueue import (
    InputQueue,
    OutputQueue,
    ProcessWorkQueue,
    QueueClosed,
    WorkerRecord,
    run_coprocessed,
)

__all__ = [
    "AtomicInt64Array",
    "InputQueue",
    "OutputQueue",
    "ProcessWorkQueue",
    "QueueClosed",
    "SharedCounter",
    "WorkerRecord",
    "hash_words",
    "mix64",
    "mix64_int",
    "partition_ids",
    "run_coprocessed",
    "table_slots",
]
