"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import main
from repro.dna.io import load_read_batch, read_fasta
from repro.graph.serialize import load_graph


@pytest.fixture
def reads_file(tmp_path):
    path = tmp_path / "reads.fastq"
    rc = main([
        "simulate", "--genome-size", "3000", "--coverage", "12",
        "--errors", "0.5", "--seed", "9", "--output", str(path),
    ])
    assert rc == 0
    return path


class TestSimulate:
    def test_writes_fastq(self, reads_file):
        batch = load_read_batch(reads_file)
        assert batch.n_reads == 360  # 3000 * 12 / 100
        assert batch.read_length == 100

    def test_writes_fasta_by_extension(self, tmp_path):
        path = tmp_path / "reads.fasta"
        main(["simulate", "--genome-size", "2000", "--coverage", "5",
              "--output", str(path)])
        assert path.read_text().startswith(">")

    def test_genome_out(self, tmp_path):
        reads = tmp_path / "r.fastq"
        genome = tmp_path / "g.fasta"
        main(["simulate", "--genome-size", "1500", "--coverage", "5",
              "--output", str(reads), "--genome-out", str(genome)])
        records = read_fasta(genome)
        assert len(records) == 1
        assert len(records[0].sequence) == 1500

    def test_profile(self, tmp_path):
        path = tmp_path / "toy.fastq"
        main(["simulate", "--profile", "toy", "--output", str(path)])
        batch = load_read_batch(path)
        assert batch.read_length == 80

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.fastq", tmp_path / "b.fastq"
        args = ["simulate", "--genome-size", "2000", "--coverage", "8",
                "--seed", "5"]
        main(args + ["--output", str(a)])
        main(args + ["--output", str(b)])
        assert a.read_text() == b.read_text()


class TestBuild:
    def test_builds_exact_graph(self, reads_file, tmp_path):
        out = tmp_path / "g.phdbg"
        rc = main(["build", "--input", str(reads_file), "--k", "21",
                   "--p", "9", "--partitions", "8", "--output", str(out)])
        assert rc == 0
        graph = load_graph(out)
        from repro.graph.build import build_reference_graph
        from repro.graph.validate import assert_graphs_equal

        reads = load_read_batch(reads_file)
        assert_graphs_equal(graph, build_reference_graph(reads, 21), "cli")

    def test_min_multiplicity_filter(self, reads_file, tmp_path):
        full = tmp_path / "full.phdbg"
        filtered = tmp_path / "filtered.phdbg"
        base = ["build", "--input", str(reads_file), "--k", "21", "--p", "9",
                "--partitions", "4"]
        main(base + ["--output", str(full)])
        main(base + ["--output", str(filtered), "--min-multiplicity", "2"])
        assert load_graph(filtered).n_vertices < load_graph(full).n_vertices

    def test_tsv_export(self, reads_file, tmp_path):
        out = tmp_path / "g.phdbg"
        tsv = tmp_path / "g.tsv"
        main(["build", "--input", str(reads_file), "--k", "21", "--p", "9",
              "--partitions", "4", "--output", str(out), "--tsv", str(tsv)])
        assert tsv.read_text().startswith("# k=21")

    def test_workdir_run(self, reads_file, tmp_path):
        out = tmp_path / "g.phdbg"
        workdir = tmp_path / "parts"
        main(["build", "--input", str(reads_file), "--k", "21", "--p", "9",
              "--partitions", "4", "--output", str(out),
              "--workdir", str(workdir)])
        assert list(workdir.glob("partition_*.phsk"))
        assert load_graph(out).n_vertices > 0


class TestStatsAndUnitigs:
    def test_stats_runs(self, reads_file, tmp_path, capsys):
        out = tmp_path / "g.phdbg"
        main(["build", "--input", str(reads_file), "--k", "21", "--p", "9",
              "--partitions", "4", "--output", str(out)])
        rc = main(["stats", "--graph", str(out), "--reads", "360",
                   "--read-length", "100"])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "n_vertices" in captured
        assert "estimated error rate" in captured

    def test_unitigs_fasta(self, reads_file, tmp_path):
        out = tmp_path / "g.phdbg"
        uni = tmp_path / "u.fasta"
        main(["build", "--input", str(reads_file), "--k", "21", "--p", "9",
              "--partitions", "4", "--output", str(out)])
        rc = main(["unitigs", "--graph", str(out), "--output", str(uni)])
        assert rc == 0
        records = read_fasta(uni)
        assert records
        assert all(len(r.sequence) >= 21 for r in records)
        # Sorted longest-first.
        lengths = [len(r.sequence) for r in records]
        assert lengths == sorted(lengths, reverse=True)


class TestHetsim:
    def test_hetsim_report(self, reads_file, capsys):
        rc = main(["hetsim", "--input", str(reads_file), "--k", "21",
                   "--p", "9", "--partitions", "8", "--gpus", "1",
                   "--disk", "hdd"])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "workload distribution" in captured
        assert "total simulated time" in captured

    def test_gpu_only(self, reads_file, capsys):
        rc = main(["hetsim", "--input", str(reads_file), "--k", "21",
                   "--p", "9", "--partitions", "8", "--gpus", "2",
                   "--no-cpu"])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "cpu" not in captured.split("workload distribution")[1].splitlines()[3]


class TestCount:
    def test_count_spectrum(self, reads_file, capsys):
        rc = main(["count", "--input", str(reads_file), "--k", "21",
                   "--min-count", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "distinct kmers" in out
        assert "abundance histogram" in out
        assert "#" in out

    def test_count_matches_build(self, reads_file, tmp_path, capsys):
        main(["count", "--input", str(reads_file), "--k", "21"])
        count_out = capsys.readouterr().out
        distinct = int(count_out.split(" distinct")[0].replace(",", ""))
        out = tmp_path / "g.phdbg"
        main(["build", "--input", str(reads_file), "--k", "21", "--p", "9",
              "--partitions", "4", "--output", str(out)])
        assert load_graph(out).n_vertices == distinct


class TestGantt:
    def test_gantt_flag(self, reads_file, capsys):
        rc = main(["hetsim", "--input", str(reads_file), "--k", "21",
                   "--p", "9", "--partitions", "8", "--gpus", "1", "--gantt"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hashing schedule" in out
        assert "writer" in out


class TestValidateAndPartitions:
    def test_validate_good_graph(self, reads_file, tmp_path, capsys):
        out = tmp_path / "g.phdbg"
        main(["build", "--input", str(reads_file), "--k", "21", "--p", "9",
              "--partitions", "4", "--output", str(out)])
        rc = main(["validate", "--graph", str(out), "--full"])
        assert rc == 0
        assert "all invariants hold" in capsys.readouterr().out

    def test_validate_detects_corruption(self, reads_file, tmp_path, capsys):
        import numpy as np

        from repro.graph.serialize import load_graph as lg
        from repro.graph.serialize import save_graph

        out = tmp_path / "g.phdbg"
        main(["build", "--input", str(reads_file), "--k", "21", "--p", "9",
              "--partitions", "4", "--output", str(out)])
        graph = lg(out)
        # Break edge symmetry by inflating one out-edge counter.
        rows = np.nonzero(graph.counts[:, 0] > 0)[0]
        graph.counts[rows[0], 0] += 1
        save_graph(out, graph)
        rc = main(["validate", "--graph", str(out), "--full"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_partitions_summary(self, reads_file, tmp_path, capsys):
        out = tmp_path / "g.phdbg"
        workdir = tmp_path / "parts"
        main(["build", "--input", str(reads_file), "--k", "21", "--p", "9",
              "--partitions", "4", "--output", str(out),
              "--workdir", str(workdir)])
        rc = main(["partitions", "--dir", str(workdir), "--deep"])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "4 partitions" in captured
        assert "balance CV" in captured
        assert "partition_0000.phsk" in captured


class TestBigKCli:
    def test_build_large_k(self, reads_file, tmp_path, capsys):
        out = tmp_path / "g41.phdbg"
        rc = main(["build", "--input", str(reads_file), "--k", "41",
                   "--p", "15", "--partitions", "4", "--output", str(out)])
        assert rc == 0
        assert "two-word keys" in capsys.readouterr().out
        # stats detects the two-word format.
        rc = main(["stats", "--graph", str(out)])
        assert rc == 0
        assert "two-word keys" in capsys.readouterr().out

    def test_bigk_roundtrip_exact(self, reads_file, tmp_path):
        from repro.bigk import build_debruijn_graph_bigk, load_big_graph

        out = tmp_path / "g41.phdbg"
        main(["build", "--input", str(reads_file), "--k", "41",
              "--p", "15", "--partitions", "4", "--output", str(out)])
        reads = load_read_batch(reads_file)
        expected = build_debruijn_graph_bigk(reads, 41, p=15, n_partitions=4)
        assert load_big_graph(out).equals(expected)

    def test_unsupported_flags_rejected(self, reads_file, tmp_path):
        out = tmp_path / "g.phdbg"
        rc = main(["build", "--input", str(reads_file), "--k", "41",
                   "--p", "15", "--partitions", "4", "--output", str(out),
                   "--min-multiplicity", "2"])
        assert rc == 2
        rc = main(["build", "--input", str(reads_file), "--k", "41",
                   "--p", "15", "--partitions", "4", "--output", str(out),
                   "--tsv", str(tmp_path / "g.tsv")])
        assert rc == 2

    def test_processes_backend_builds_large_k(self, reads_file, tmp_path):
        from repro.bigk import load_big_graph

        serial_out = tmp_path / "serial.phdbg"
        proc_out = tmp_path / "proc.phdbg"
        rc = main(["build", "--input", str(reads_file), "--k", "41",
                   "--p", "15", "--partitions", "4",
                   "--backend", "serial", "--output", str(serial_out)])
        assert rc == 0
        rc = main(["build", "--input", str(reads_file), "--k", "41",
                   "--p", "15", "--partitions", "4",
                   "--backend", "processes", "--workers", "2", "--pipeline",
                   "--output", str(proc_out)])
        assert rc == 0
        assert load_big_graph(proc_out).equals(load_big_graph(serial_out))

    def test_k32_rejected(self, reads_file, tmp_path):
        with pytest.raises(ValueError, match=r"33\.\.63"):
            main(["build", "--input", str(reads_file), "--k", "32",
                  "--output", str(tmp_path / "g.phdbg")])
        assert not (tmp_path / "g.phdbg").exists()

    def test_bigk_preaggregate_flag_threaded_through(
        self, reads_file, tmp_path, monkeypatch
    ):
        # Regression: the big-k serial path used to drop --preaggregate
        # entirely.  Count calls into the 2w pre-aggregation kernel.
        import repro.bigk.construct as construct_mod

        calls = {"n": 0}
        real = construct_mod.preaggregate_observations_2w

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(construct_mod,
                            "preaggregate_observations_2w", counting)
        base = ["build", "--input", str(reads_file), "--k", "41",
                "--p", "15", "--partitions", "4"]
        rc = main(base + ["--output", str(tmp_path / "a.phdbg")])
        assert rc == 0
        assert calls["n"] > 0
        calls["n"] = 0
        rc = main(base + ["--no-preaggregate",
                          "--output", str(tmp_path / "b.phdbg")])
        assert rc == 0
        assert calls["n"] == 0
        # Flag or not, the graph is identical.
        from repro.bigk import load_big_graph

        assert load_big_graph(tmp_path / "a.phdbg").equals(
            load_big_graph(tmp_path / "b.phdbg")
        )

    def test_threads_backend_builds_large_k(self, reads_file, tmp_path):
        from repro.bigk import load_big_graph

        serial_out = tmp_path / "serial.phdbg"
        threads_out = tmp_path / "threads.phdbg"
        rc = main(["build", "--input", str(reads_file), "--k", "41",
                   "--p", "15", "--partitions", "4",
                   "--backend", "serial", "--output", str(serial_out)])
        assert rc == 0
        rc = main(["build", "--input", str(reads_file), "--k", "41",
                   "--p", "15", "--partitions", "4",
                   "--backend", "threads", "--workers", "2",
                   "--output", str(threads_out)])
        assert rc == 0
        assert load_big_graph(threads_out).equals(load_big_graph(serial_out))


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_required(self):
        with pytest.raises(SystemExit):
            main(["build", "--k", "21"])
