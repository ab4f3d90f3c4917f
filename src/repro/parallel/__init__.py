"""The process-parallel execution backend (``backend="processes"``).

Public surface:

* :func:`build_graph_processes` — the end-to-end driver (Step 1 chunk
  fan-out over shared read memory, then one owner process per Step-2
  partition, streamed in one pool);
* the shared-memory and pool primitives the backend is built from.
"""

from .backend import build_graph_processes
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
)

__all__ = [
    "PoolInterrupted",
    "SegmentSpec",
    "SharedSegment",
    "WorkerCrashed",
    "WorkerFailed",
    "attach_segment",
    "build_graph_processes",
    "create_segment",
    "create_table_segment",
    "default_context",
    "run_workers",
]
