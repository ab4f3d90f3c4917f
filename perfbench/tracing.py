"""Layer spans recorded from outside the program.

:class:`Tracer` wraps the public functions and methods that form each
layer's boundary (see ``TARGETS``), so an unmodified build run under it
records one span per call: name, layer, start, end and parent span.
Spans live in memory; :meth:`Tracer.summary` turns them into per-layer
self times (a span's duration minus the part its child spans cover)
and :meth:`Tracer.dump` writes the raw list out when the run ends.

Work done inside worker processes is invisible here: a forked worker
inherits the wrappers, but its spans die with it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

#: (module, attribute path, layer).  A dotted attribute path names a
#: method on a class; a plain name is a module-level function, patched
#: in every loaded ``repro`` module that imported it by name.
TARGETS = [
    ("repro.dna.io", "load_read_batch", "dna"),
    ("repro.core.parahash", "ParaHash.partition", "msp"),
    ("repro.msp.partitioner", "partition_reads", "msp"),
    ("repro.msp.partitioner", "partition_to_files", "msp"),
    ("repro.msp.partitioner", "load_partitions", "msp"),
    ("repro.core.subgraph", "build_subgraph", "step2"),
    ("repro.core.subgraph", "block_observations", "step2"),
    ("repro.core.subgraph", "preaggregate_observations", "step2"),
    ("repro.bigk.construct", "build_subgraph_2w", "step2"),
    ("repro.bigk.construct", "block_observations_2w", "step2"),
    ("repro.bigk.construct", "preaggregate_observations_2w", "step2"),
    ("repro.core.hashtable", "ConcurrentHashTable.__init__", "table"),
    ("repro.core.hashtable", "ConcurrentHashTable.insert_batch", "table"),
    ("repro.core.hashtable", "ConcurrentHashTable.to_graph", "table"),
    ("repro.bigk.table", "TwoWordHashTable.__init__", "table"),
    ("repro.bigk.table", "TwoWordHashTable.insert_batch", "table"),
    ("repro.bigk.table", "TwoWordHashTable.to_graph", "table"),
    ("repro.graph.merge", "merge_disjoint", "graph"),
    ("repro.bigk.construct", "merge_bigk_disjoint", "graph"),
    ("repro.graph.serialize", "save_graph", "graph"),
    ("repro.bigk.serialize", "save_big_graph", "graph"),
    ("repro.parallel.backend", "build_graph_processes", "parallel"),
]

LAYERS = ("dna", "msp", "step2", "table", "graph", "parallel")


class Tracer:
    """Records spans and counts at the layer boundaries of ``TARGETS``."""

    def __init__(self) -> None:
        # Each span: [name, layer, start, end, parent index or -1].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.errors: dict[str, int] = {}
        # Tables seen at ``to_graph``: (n_occupied, capacity, bytes).
        self.tables: list[tuple[int, int, int]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for module_name, path, layer in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(original, path, layer))
            else:
                original = getattr(module, attr)
                wrapped = self._wrap(original, f"{module_name.rsplit('.', 1)[1]}.{attr}", layer)
                for loaded_name, loaded in list(sys.modules.items()):
                    if loaded_name.startswith("repro") and \
                            getattr(loaded, attr, None) is original:
                        self._patch(loaded, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        is_to_graph = name.endswith(".to_graph")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, layer, time.perf_counter(), 0.0, parent]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                key = f"{name}:{type(exc).__name__}"
                tracer.errors[key] = tracer.errors.get(key, 0) + 1
                raise
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            if is_to_graph:
                table = args[0]
                tracer.tables.append((int(table.n_occupied), int(table.capacity),
                                      int(table.memory_bytes())))
            return out

        return traced

    # -- results --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus its direct children's durations."""
        own = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict:
        """Self seconds per span name and per layer, plus table counts."""
        by_name: dict[str, float] = {}
        by_layer = {layer: 0.0 for layer in LAYERS}
        for span, own in zip(self.spans, self.self_times()):
            by_name[span[0]] = by_name.get(span[0], 0.0) + own
            by_layer[span[1]] += own
        return {
            "by_name": by_name,
            "by_layer": by_layer,
            "errors": dict(self.errors),
            "tables": list(self.tables),
            "n_spans": len(self.spans),
        }

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "layer", "start", "end", "parent")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))
