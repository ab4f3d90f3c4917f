"""The process-parallel execution backend (``backend="processes"``).

Modules:

* :mod:`backend` — :func:`~repro.parallel.backend.build_graph_processes`,
  the end-to-end driver (Step 1 chunk fan-out over shared read memory,
  then one owner process per Step-2 partition, streamed in one pool);
* :mod:`pool` and :mod:`shm` — the process-pool and shared-memory
  primitives the backend is built from.
"""
