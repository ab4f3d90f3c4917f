"""Tests for repro.service.runner (manifest-guarded stage graph)."""

import json

import pytest

from repro.core.config import ParaHashConfig
from repro.core.parahash import ParaHash
from repro.dna.io import load_read_batch, save_read_batch
from repro.graph.compare import compare_graphs
from repro.graph.serialize import load_graph
from repro.service.jobstore import JobSpec, JobStore
from repro.service.manifest import Artifact, StageManifest, fresh_manifest
from repro.service.runner import JobFailed, run_job


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "jobs")


def make_spec(reads_file, **over) -> JobSpec:
    kwargs = dict(input=str(reads_file), k=15, p=4, n_partitions=6,
                  n_step1_tasks=2)
    kwargs.update(over)
    return JobSpec(**kwargs)


def stamps(record) -> dict[str, float]:
    """created-timestamp per stage manifest: the skip/re-run witness."""
    return {
        path.stem: json.loads(path.read_text())["created"]
        for path in record.manifest_dir.glob("*.json")
    }


class TestInlineRun:
    def test_matches_serial_parahash(self, store, reads_file,
                                     genomic_batch):
        record = store.create(make_spec(reads_file))
        graph_path = run_job(record)

        serial = ParaHash(
            ParaHashConfig(k=15, p=4, n_partitions=6)
        ).build_graph(genomic_batch).graph
        diff = compare_graphs(load_graph(graph_path), serial)
        assert diff.n_only_a == 0
        assert diff.n_only_b == 0
        assert diff.n_shared > 0
        assert record.status == "done"

    def test_status_reports_progress_fields(self, store, reads_file):
        record = store.create(make_spec(reads_file))
        run_job(record)
        doc = record.read_status()
        assert doc["stage"] == "finalize"
        assert doc["step2_total"] == 6
        assert "elapsed_seconds" in doc

    def test_rerun_skips_every_stage(self, store, reads_file):
        record = store.create(make_spec(reads_file))
        run_job(record)
        before = stamps(record)
        assert len(before) == 2 + 6 + 1  # step1 x2, step2 x6, final
        run_job(record)
        assert stamps(record) == before

    def test_failure_lands_in_status(self, store, tmp_path):
        record = store.create(
            make_spec(tmp_path / "never_written.fasta")
        )
        with pytest.raises(JobFailed):
            run_job(record)
        doc = record.read_status()
        assert doc["status"] == "failed"
        assert doc["error"]


class TestOldLayoutResume:
    """A job directory from when Step 2 read a concatenated copy."""

    def make_old_layout(self, record) -> list:
        """Rewrite a finished job as the older layout left it, mid-Step-2.

        Spill files get their older names (the Step-1 manifests list
        them), ``partitions/`` holds the concatenated copy and a
        ``merge`` manifest records it; Step 2 and finalize are undone.
        """
        old_spills = []
        for path in sorted(record.manifest_dir.glob("step1_t*.json")):
            manifest = StageManifest.load(path)
            spills, outputs = {}, []
            for part, name in manifest.stats["spills"].items():
                piece = int(manifest.params["piece"])
                old = record.spill_dir / f"spill_w{piece:03d}_p{int(part):04d}.phsk"
                (record.spill_dir / name).rename(old)
                spills[part] = old.name
                outputs.append(Artifact.of(old, record.job_dir))
                old_spills.append(old)
            fresh_manifest(
                manifest.stage, manifest.params, manifest.inputs,
                tuple(outputs), stats={**manifest.stats, "spills": spills},
            ).save(path)
        copy_dir = record.job_dir / "partitions"
        copy_dir.mkdir()
        copies = []
        for part in range(record.spec.n_partitions):
            copy = copy_dir / f"partition_{part:04d}.phsk"
            copy.write_bytes(b"".join(
                p.read_bytes() for p in old_spills
                if p.name.endswith(f"_p{part:04d}.phsk")
            ))
            copies.append(Artifact.of(copy, record.job_dir))
        fresh_manifest("merge", {"k": record.spec.k}, {},
                       tuple(copies)).save(record.manifest_path("merge"))
        for path in record.manifest_dir.glob("step2_p*.json"):
            path.unlink()
        record.manifest_path("finalize").unlink()
        record.graph_path.unlink()
        return old_spills

    def test_resume_drops_copy_and_matches_build(self, store, reads_file,
                                                 tmp_path):
        from repro.cli import main

        record = store.create(make_spec(reads_file))
        run_job(record)
        old_spills = self.make_old_layout(record)
        assert old_spills

        run_job(record)

        assert not (record.job_dir / "partitions").exists()
        assert not record.manifest_path("merge").exists()
        assert all(path.exists() for path in old_spills)
        built = tmp_path / "built.phdbg"
        assert main(["build", "--input", str(reads_file), "--k", "15",
                     "--p", "4", "--partitions", "6",
                     "--output", str(built)]) == 0
        assert record.graph_path.read_bytes() == built.read_bytes()


class TestVersionOneSubgraphResume:
    """A job directory whose Step-2 subgraph files have uint64 counters."""

    def test_resume_reads_v1_subgraphs_and_matches_build(
            self, store, reads_file, tmp_path, write_v1_graph):
        from repro.cli import main

        record = store.create(make_spec(reads_file))
        run_job(record)
        rewritten = []
        for path in sorted(record.manifest_dir.glob("step2_p*.json")):
            manifest = StageManifest.load(path)
            subgraph = record.job_dir / manifest.outputs[0].path
            graph = load_graph(subgraph)
            write_v1_graph(subgraph, graph.k, graph.planes, graph.counts)
            rewritten.append((subgraph, subgraph.read_bytes()))
            fresh_manifest(
                manifest.stage, manifest.params, manifest.inputs,
                (Artifact.of(subgraph, record.job_dir),), stats=manifest.stats,
            ).save(path)
        assert rewritten and all(data[4] == 1 for _, data in rewritten)
        before = {stage: stamp for stage, stamp in stamps(record).items()
                  if stage.startswith("step2")}

        run_job(record)

        after = stamps(record)
        assert {stage: after[stage] for stage in before} == before
        assert all(path.read_bytes() == data for path, data in rewritten)
        built = tmp_path / "built.phdbg"
        assert main(["build", "--input", str(reads_file), "--k", "15",
                     "--p", "4", "--partitions", "6",
                     "--output", str(built)]) == 0
        assert record.graph_path.read_bytes()[4] == 2
        assert record.graph_path.read_bytes() == built.read_bytes()


class TestStep1Share:
    """A Step-1 task streams the input and keeps its share of each batch."""

    @pytest.mark.parametrize("k,p", [(21, 9), (45, 15)])
    def test_task_holds_one_batch(self, store, genomic_batch, tmp_path,
                                  monkeypatch, k, p):
        import repro.dna.io as dio
        import repro.msp.partitioner as partitioner_mod
        import repro.service.tasks as tasks_mod
        from repro.cli import main

        reads = tmp_path / "reads.fastq"
        save_read_batch(reads, genomic_batch)
        built = tmp_path / "built.phdbg"
        assert main(["build", "--input", str(reads), "--k", str(k),
                     "--p", str(p), "--partitions", "6",
                     "--output", str(built)]) == 0

        # Small scanner chunks make the input many batches.
        monkeypatch.setattr(dio, "CHUNK_BYTES", 4096)
        batch_rows = [b.n_reads for b in dio.iter_read_batches(reads)]
        assert len(batch_rows) > 3
        assert sum(batch_rows) == genomic_batch.n_reads

        def refuse(*args, **kwargs):
            raise AssertionError("a Step-1 task loaded the whole input")

        monkeypatch.setattr(dio, "load_read_batch", refuse)
        monkeypatch.setattr(tasks_mod, "load_read_batch", refuse,
                            raising=False)
        rows = []
        real_partition_reads = partitioner_mod.partition_reads

        def counting(piece, *args):
            rows.append(piece.n_reads)
            return real_partition_reads(piece, *args)

        monkeypatch.setattr(partitioner_mod, "partition_reads", counting)
        record = store.create(make_spec(reads, k=k, p=p, n_step1_tasks=3))
        run_job(record)
        assert rows and max(rows) <= max(batch_rows)
        assert sum(rows) == genomic_batch.n_reads
        assert record.graph_path.read_bytes() == built.read_bytes()

    def test_older_split_reruns_step1(self, store, reads_file):
        """Step-1 manifests without the split field (written when each
        task took one piece of the whole input) re-run Step 1."""
        record = store.create(make_spec(reads_file))
        run_job(record)
        graph = record.graph_path.read_bytes()
        before = stamps(record)
        for path in record.manifest_dir.glob("step1_t*.json"):
            manifest = StageManifest.load(path)
            params = {key: value for key, value in manifest.params.items()
                      if key != "split"}
            assert params != manifest.params
            fresh_manifest(manifest.stage, params, manifest.inputs,
                           manifest.outputs, stats=manifest.stats).save(path)
            before[path.stem] = stamps(record)[path.stem]
        run_job(record)
        after = stamps(record)
        assert after["step1_t0000"] != before["step1_t0000"]
        assert after["step1_t0001"] != before["step1_t0001"]
        assert record.status == "done"
        assert record.graph_path.read_bytes() == graph


class TestInvalidation:
    def test_changed_input_reruns_step1(self, store, reads_file,
                                        clean_batch):
        record = store.create(make_spec(reads_file))
        run_job(record)
        before = stamps(record)
        save_read_batch(reads_file, clean_batch, fmt="fasta")
        run_job(record)
        after = stamps(record)
        assert after["step1_t0000"] != before["step1_t0000"]
        assert after["step1_t0001"] != before["step1_t0001"]
        assert record.status == "done"

    def test_changed_input_changes_result(self, store, reads_file,
                                          clean_batch):
        record = store.create(make_spec(reads_file))
        run_job(record)
        first = load_graph(record.graph_path)
        save_read_batch(reads_file, clean_batch, fmt="fasta")
        run_job(record)
        serial = ParaHash(
            ParaHashConfig(k=15, p=4, n_partitions=6)
        ).build_graph(load_read_batch(reads_file)).graph
        diff = compare_graphs(load_graph(record.graph_path), serial)
        assert diff.n_only_a == 0 and diff.n_only_b == 0
        assert compare_graphs(first, serial).n_only_b > 0  # really changed

    def test_truncated_subgraph_reruns_only_that_partition(
            self, store, reads_file, genomic_batch):
        record = store.create(make_spec(reads_file))
        run_job(record)
        before = stamps(record)
        victim = record.subgraph_dir / "subgraph_0002.phdbg"
        victim.write_bytes(victim.read_bytes()[:16])  # torn write
        run_job(record)
        after = stamps(record)
        assert after["step2_p0002"] != before["step2_p0002"]
        unchanged = [s for s in after
                     if s.startswith("step2") and s != "step2_p0002"]
        for stage in unchanged:
            assert after[stage] == before[stage]
        serial = ParaHash(
            ParaHashConfig(k=15, p=4, n_partitions=6)
        ).build_graph(genomic_batch).graph
        diff = compare_graphs(load_graph(record.graph_path), serial)
        assert diff.n_only_a == 0 and diff.n_only_b == 0

    def test_changed_params_invalidate(self, store, reads_file):
        record = store.create(make_spec(reads_file))
        run_job(record)
        before = stamps(record)
        # same store, new spec: a resubmit with a different partitioning
        record2 = store.create(
            make_spec(reads_file, n_partitions=5)
        )
        run_job(record2)
        assert record2.status == "done"
        assert stamps(record) == before  # first job untouched


class TestBigK:
    def test_big_k_inline(self, store, reads_file):
        record = store.create(make_spec(reads_file, k=41, p=6))
        graph_path = run_job(record)
        with open(graph_path, "rb") as fh:
            assert fh.read(4) == b"PHB2"
        # determinism: an independent job over the same input agrees
        record2 = store.create(make_spec(reads_file, k=41, p=6))
        run_job(record2)
        from repro.bigk.serialize import load_big_graph
        diff = compare_graphs(load_big_graph(graph_path),
                              load_big_graph(record2.graph_path))
        assert diff.n_only_a == 0 and diff.n_only_b == 0
        assert diff.n_shared > 0
