"""The process-parallel execution backend (``backend="processes"``).

Public surface:

* :func:`build_graph_processes` — the end-to-end driver (Step 1 chunk
  fan-out over shared read memory, then one owner process per Step-2
  partition, streamed in one pool);
* :func:`concurrent_insert_processes` — several processes running the
  state-transfer protocol against *one* shared table (protocol
  validation on genuinely concurrent memory), at any key width;
* the shared-memory and pool primitives the backend is built from.
"""

from .atomics_mp import ProcessAtomicInt64Array, create_lock_bundle
from .backend import (
    build_graph_processes,
    concurrent_insert_processes,
)
from .pool import (
    PoolInterrupted,
    WorkerCrashed,
    WorkerFailed,
    default_context,
    run_workers,
)
from .shm import (
    SegmentSpec,
    SharedSegment,
    attach_segment,
    create_segment,
    create_table_segment,
    table_over_segment,
)

__all__ = [
    "PoolInterrupted",
    "ProcessAtomicInt64Array",
    "SegmentSpec",
    "SharedSegment",
    "WorkerCrashed",
    "WorkerFailed",
    "attach_segment",
    "build_graph_processes",
    "concurrent_insert_processes",
    "create_lock_bundle",
    "create_segment",
    "create_table_segment",
    "default_context",
    "run_workers",
    "table_over_segment",
]
