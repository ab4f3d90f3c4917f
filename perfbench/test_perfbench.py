"""Self-tests of the benchmark's own code.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

They build tiny inputs through the same child process the benchmark
times, so they also exercise the oracle, the failure accounting and
the per-build resource probes end to end.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(common.SRC))

TOY = common.Workload("selftest_toy", genome_size=3_000, coverage=10.0,
                      mean_errors=0.5, k=27, backend="serial", read_length=60)


def test_oracle_flags_one_perturbed_counter():
    reads = common.generate_reads(TOY, seed=5)
    graph = common.reference_graph(reads, TOY.k)
    perturbed = replace(graph, counts=graph.counts.copy())
    perturbed.counts[len(graph.counts) // 2, 3] += 1
    assert common.graph_digest(graph) == common.graph_digest(
        common.reference_graph(reads, TOY.k))
    assert common.graph_digest(perturbed) != common.graph_digest(graph)


def test_build_with_wrong_oracle_counts_as_failed():
    meta = dict(run.prepare(TOY, seed=5), digest="0" * 64)
    loop = run.Loop(TOY, meta)
    assert loop.build() is None
    assert loop.attempted == 1
    assert loop.failures == ["graph differs from the oracle"]


@pytest.mark.parametrize("w", [
    TOY,
    replace(TOY, name="selftest_toy_2w", k=45),
    replace(TOY, name="selftest_toy_procs", backend="processes", n_workers=2,
            on_disk=True),
])
def test_traced_metrics_on_toy_input(w):
    meta = run.prepare(w, seed=7)
    reads = common.generate_reads(w, seed=7)
    oracle = common.reference_graph(reads, w.k)
    report = run.Loop(w, meta).build(trace=True)
    assert report is not None, "toy build failed its checks"
    layers = report["layers"]

    # Each read of n k-mers yields n multiplicity observations plus one
    # successor and one predecessor observation per adjacent pair.
    per_read = w.read_length - w.k + 1
    assert report["n_kmers"] == w.n_reads() * per_read == meta["n_kmers"]
    assert layers["step2.observations"] == w.n_reads() * (3 * per_read - 2)
    assert layers["graph.vertices"] == oracle.n_vertices
    nonzero = int((oracle.counts != 0).sum())
    assert layers["step2.collapse_ratio"] == pytest.approx(
        nonzero / layers["step2.observations"])
    assert 0 < layers["table.load_factor"] <= 1

    layer_total = sum(v for k, v in layers.items() if k.startswith("self."))
    assert layer_total + layers["unaccounted_s"] == pytest.approx(
        layers["traced_wall_s"], abs=1e-9)
    assert layers["unaccounted_s"] >= 0
    if w.backend == "processes":
        assert layers["self.parallel_s"] > 0 and layers["parallel.shm_bytes"] > 0
        assert layers["self.step2_s"] == 0  # the kernels run in workers
    else:
        assert layers["self.step2_s"] > 0 and layers["parallel.shm_bytes"] == 0


def test_peak_rss_is_measured_per_build():
    big = replace(TOY, name="selftest_big", genome_size=50_000, coverage=42.0,
                  read_length=101)
    loop_big = run.Loop(big, run.prepare(big, seed=3))
    loop_small = run.Loop(TOY, run.prepare(TOY, seed=3))
    first = loop_big.build()
    second = loop_small.build()
    assert first is not None and second is not None
    # A high-water mark carried over from the first build would make the
    # second one read at least as high.
    assert second["peak_rss"] < first["peak_rss"] - 20 * 2**20


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    w = replace(TOY, name="selftest_names")
    layers = run.Loop(w, run.prepare(w, seed=1)).build(trace=True)["layers"]
    emitted = set(layers) | {"trace_overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == emitted
    assert {m["name"] for m in spec["workloads"]} == set(common.WORKLOADS)


def test_missing_program_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "chr14_k27_procs", "--seed", "1",
                     "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_iqr_share_matches_quartiles():
    assert common.iqr_share([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
    assert common.iqr_share([2.0]) == 0.0
