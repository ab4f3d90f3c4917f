"""Every single-writer build path runs without the concurrent hash table.

Each partition has exactly one owner on every build path -- serial,
processes and the service's ``step2`` task -- so the owner turns the
partition's vertex rows straight into its subgraph.  These tests make the table
constructors and the table segment refuse to run, and require every
path to still build the reference graph.
"""

from __future__ import annotations

import pytest

from repro.bigk.store import build_reference_bigk_slow
from repro.bigk.table import TwoWordHashTable
from repro.core.config import ParaHashConfig
from repro.core.hashtable import ConcurrentHashTable
from repro.core.parahash import ParaHash
from repro.graph.build import build_reference_graph
from repro.graph.validate import assert_graphs_equal
from repro.parallel import shm as shm_mod


@pytest.fixture
def no_tables(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a single-writer build path touched a hash table")

    monkeypatch.setattr(ConcurrentHashTable, "__init__", refuse)
    monkeypatch.setattr(TwoWordHashTable, "__init__", refuse)
    monkeypatch.setattr(shm_mod, "create_table_segment", refuse)


def reference(reads, k):
    if k > 31:
        return build_reference_bigk_slow(reads, k)
    return build_reference_graph(reads, k)


def assert_equal(graph, ref, k):
    if k > 31:
        assert graph.equals(ref)
    else:
        assert_graphs_equal(graph, ref, "owner build")


@pytest.mark.parametrize("backend", ["serial", "processes"])
@pytest.mark.parametrize("k", [21, 45])
def test_build_paths_use_no_table(genomic_batch, no_tables, backend, k):
    cfg = ParaHashConfig(k=k, p=9 if k <= 31 else 15, n_partitions=8,
                         backend=backend, n_workers=2)
    result = ParaHash(cfg).build_graph(genomic_batch)
    assert_equal(result.graph, reference(genomic_batch, k), k)
    assert result.hash_stats.key_locks == result.graph.n_vertices
    assert result.hash_stats.probes == 0


@pytest.mark.parametrize("k", [21, 45])
def test_service_step2_task_uses_no_table(genomic_batch, no_tables, tmp_path,
                                          k):
    from repro.bigk.serialize import load_big_graph
    from repro.core.subgraph import build_subgraph_sortmerge
    from repro.graph.serialize import load_graph
    from repro.msp.partitioner import load_partition_group, partition_to_files
    from repro.service.tasks import run_task

    p = 9 if k <= 31 else 15
    report = partition_to_files(genomic_batch, k, p, 4, tmp_path / "parts")
    for part, path in report.paths.items():
        out = tmp_path / f"subgraph_{part}.phdbg"
        result = run_task({"kind": "step2", "partition": part,
                           "partition_files": [str(path)],
                           "out_path": str(out), "k": k})
        block = load_partition_group([path], k)
        if k > 31:
            built, oracle = load_big_graph(out), build_subgraph_sortmerge(block)
        else:
            built, oracle = load_graph(out), build_subgraph_sortmerge(block)
        assert built.equals(oracle)
        assert result["n_vertices"] == oracle.n_vertices
