"""Tests for repro.service.jobstore (specs, status, directory layout)."""

import pytest

from repro.service.jobstore import JobError, JobSpec, JobStore


def spec(**over) -> JobSpec:
    kwargs = dict(input="/data/reads.fa", k=15, p=4, n_partitions=8)
    kwargs.update(over)
    return JobSpec(**kwargs)


class TestJobSpec:
    def test_defaults_valid(self):
        s = spec()
        assert s.claim_weight == 1

    def test_big_k_flag(self):
        from repro.dna.kmer import key_width

        assert key_width(spec(k=41, p=6).k) == 2

    @pytest.mark.parametrize("bad", [
        dict(k=0), dict(k=64), dict(p=0), dict(p=16),  # p > k=15
        dict(n_partitions=0), dict(n_step1_tasks=0),
        dict(claim_weight=0), dict(step2_delay=-1.0), dict(k=32),
    ])
    def test_validation(self, bad):
        with pytest.raises(JobError):
            spec(**bad)

    def test_minimizer_longer_than_a_word_rejected(self):
        # The rules of ParaHashConfig: p <= 31 even at two-word k.
        with pytest.raises(JobError, match="p must be <= 31"):
            spec(k=45, p=40)
        assert spec(k=45, p=31).p == 31

    def test_round_trip(self):
        s = spec(claim_weight=3, step2_delay=0.5)
        assert JobSpec.from_dict(s.to_dict()) == s

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(JobError, match="unknown"):
            JobSpec.from_dict({"input": "/r.fa", "kmer": 15})
        # A job.json written before a field was retired is refused too.
        for retired in ("max_memory", "lam", "alpha", "preaggregate",
                        "table_layout", "insert_protocol", "n_shards"):
            with pytest.raises(JobError, match=f"unknown.*{retired}"):
                JobSpec.from_dict({"input": "/r.fa", retired: 1})

    def test_from_dict_requires_input(self):
        with pytest.raises(JobError, match="input"):
            JobSpec.from_dict({"k": 15})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(JobError):
            JobSpec.from_dict(["not", "a", "dict"])


class TestJobStore:
    def test_create_layout(self, tmp_path):
        record = JobStore(tmp_path).create(spec())
        assert record.spec_path.is_file()
        assert record.status_path.is_file()
        for d in (record.manifest_dir, record.spill_dir,
                  record.subgraph_dir):
            assert d.is_dir()
        assert not (record.job_dir / "partitions").exists()
        assert record.status == "queued"

    def test_load_round_trip(self, tmp_path):
        store = JobStore(tmp_path)
        created = store.create(spec(claim_weight=2))
        loaded = store.load(created.job_id)
        assert loaded.spec == created.spec
        assert loaded.job_dir == created.job_dir

    def test_load_unknown_job(self, tmp_path):
        with pytest.raises(JobError, match="no such job"):
            JobStore(tmp_path).load("nope")

    def test_list_jobs_sorted_by_id(self, tmp_path):
        store = JobStore(tmp_path)
        ids = [store.create(spec()).job_id for _ in range(3)]
        assert [r.job_id for r in store.list_jobs()] == sorted(ids)

    def test_status_updates_merge(self, tmp_path):
        record = JobStore(tmp_path).create(spec())
        record.write_status(stage="step1", step1_done=2)
        record.set_state("running")
        doc = record.read_status()
        assert doc["status"] == "running"
        assert doc["stage"] == "step1"
        assert doc["step1_done"] == 2

    def test_bad_state_rejected(self, tmp_path):
        record = JobStore(tmp_path).create(spec())
        with pytest.raises(JobError):
            record.set_state("zombie")

    def test_corrupt_status_recovers(self, tmp_path):
        record = JobStore(tmp_path).create(spec())
        record.status_path.write_text("{ torn")
        assert record.status == "queued"  # manifests are the real truth

    def test_describe_carries_id_and_spec(self, tmp_path):
        record = JobStore(tmp_path).create(spec())
        doc = record.describe()
        assert doc["id"] == record.job_id
        assert doc["spec"]["k"] == 15
