"""The process-parallel execution backend (``backend="processes"``).

Modules:

* :mod:`backend` — :func:`~repro.parallel.backend.build_graph_processes`,
  the end-to-end driver (Step-1 read chunks handed out over each
  worker's pipe, then one owner process per Step-2 partition, streamed
  in one pool);
* :mod:`pool` — the crash-safe process fan-out the backend runs on;
* :mod:`shm` — shared-memory segments no build makes, kept so the
  benchmark can time what a shared-memory set-up would cost.
"""
