"""The on-disk partition layout every backend shares.

Partition ``p`` on disk is every file named ``partition_{p:04d}_w{w:03d}.phsk``
(writer ``w``) in the run's work directory; nothing concatenates them.
A writer creates its file of a partition when it first gives that
partition a superkmer, so an untouched partition has no file.
"""

import pytest

from repro.cli import main
from repro.core.config import ParaHashConfig
from repro.core.parahash import ParaHash
from repro.dna.reads import ReadBatch
from repro.msp.partitioner import (
    parse_partition_path,
    partition_path,
    partition_reads,
)

CFG = ParaHashConfig(k=21, p=9, n_partitions=8, n_input_pieces=4)


def test_partition_path_round_trip(tmp_path):
    path = partition_path(tmp_path, 12, 3)
    assert path.name == "partition_0012_w003.phsk"
    assert parse_partition_path(path) == (12, 3)
    for other in ("partition_0012.phsk", "spill_w003_p0012.phsk",
                  "partition_0012_w003.phsk.tmp", "partition_ab_w003.phsk"):
        assert parse_partition_path(tmp_path / other) is None


@pytest.mark.parametrize("backend,workers", [
    ("serial", 1), ("processes", 1), ("processes", 2),
])
def test_workdir_holds_only_partition_files(genomic_batch, tmp_path,
                                            backend, workers):
    work = tmp_path / "work"
    result = ParaHash(
        CFG.with_(backend=backend, n_workers=workers)
    ).build_graph(genomic_batch, workdir=work)
    entries = list(work.iterdir())
    assert entries
    assert all(path.is_file() and parse_partition_path(path) is not None
               for path in entries)
    assert {parse_partition_path(p)[1] for p in entries} <= set(range(workers))
    assert sum(p.stat().st_size for p in entries) == result.partition_bytes


def touched_partitions(batch, cfg) -> list[int]:
    """The partitions that get at least one superkmer of ``batch``."""
    blocks = partition_reads(batch, cfg.k, cfg.p, cfg.n_partitions).blocks
    return [part for part, block in enumerate(blocks) if block.n_superkmers]


@pytest.mark.parametrize("backend,workers", [
    ("serial", 1), ("processes", 2),
])
def test_untouched_partitions_have_no_file(clean_batch, tmp_path, backend,
                                           workers):
    cfg = CFG.with_(n_partitions=64, backend=backend, n_workers=workers)
    few = ReadBatch(codes=clean_batch.codes[:3])
    touched = touched_partitions(few, cfg)
    assert 0 < len(touched) < cfg.n_partitions
    work = tmp_path / "work"
    ParaHash(cfg).build_graph(few, workdir=work)
    assert sorted({parse_partition_path(p)[0] for p in work.iterdir()}) \
        == touched


@pytest.mark.parametrize("backend,workers", [("serial", 1), ("processes", 2)])
def test_workdir_build_reads_one_partition_at_a_time(genomic_batch, tmp_path,
                                                     monkeypatch, backend,
                                                     workers):
    """Step 2 of a ``--workdir`` build reads each partition as its own
    item; nothing loads every partition file up front."""
    import repro.msp.partitioner as partitioner_mod

    def refuse(*args, **kwargs):
        raise AssertionError("a build loaded every partition at once")

    cfg = CFG.with_(backend=backend, n_workers=workers)
    in_memory = ParaHash(cfg).build_graph(genomic_batch).graph
    monkeypatch.setattr(partitioner_mod, "load_partitions", refuse)
    result = ParaHash(cfg).build_graph(genomic_batch,
                                       workdir=tmp_path / "work")
    assert result.graph.equals(in_memory)


def test_rerun_replaces_the_previous_runs_files(genomic_batch, tmp_path):
    work = tmp_path / "work"
    ParaHash(CFG.with_(backend="processes", n_workers=2)).build_graph(
        genomic_batch, workdir=work)
    # Which worker claims which Step-1 chunk depends on timing, so the
    # first build may or may not leave a writer-1 file: plant one.
    first = min(work.iterdir())
    part, _writer = parse_partition_path(first)
    partition_path(work, part, 1).write_bytes(first.read_bytes())
    assert any(parse_partition_path(p)[1] == 1 for p in work.iterdir())
    result = ParaHash(CFG).build_graph(genomic_batch, workdir=work)
    names = sorted(p.name for p in work.iterdir())
    assert names == [partition_path(work, part, 0).name
                     for part in touched_partitions(genomic_batch, CFG)]
    assert sum(p.stat().st_size for p in work.iterdir()) == \
        result.partition_bytes


def test_partitions_command_agrees_across_backends(reads_file, tmp_path,
                                                   capsys):
    summaries = []
    for backend, workers in (("serial", 1), ("processes", 2)):
        work = tmp_path / backend
        main(["build", "--input", str(reads_file), "--k", "21", "--p", "9",
              "--partitions", "8", "--output", str(tmp_path / "g.phdbg"),
              "--workdir", str(work), "--backend", backend,
              "--workers", str(workers)])
        capsys.readouterr()
        assert main(["partitions", "--dir", str(work), "--deep"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        # "<n> partitions, k=<k>, <n> superkmers, <n> bytes, ..."
        summaries.append(first.split(", ")[:3])
    assert summaries[0] == summaries[1]
    assert summaries[0][0] == "8 partitions"
