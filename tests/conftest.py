"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import struct

import numpy as np
import pytest
from hypothesis import settings

from repro.dna.reads import ReadBatch
from repro.dna.simulate import DatasetProfile, random_genome, simulate_reads

# Tier-1 runs hypothesis's default profile; the nightly job selects
# ``deep`` with HYPOTHESIS_PROFILE=deep.
settings.register_profile("deep", max_examples=2000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_addoption(parser):
    parser.addoption(
        "--repro-race-detect", action="store_true", default=False,
        help="run every test under the Eraser lockset monitor and fail "
             "on candidate races (tests that seed races install their "
             "own inner monitor, which shadows this one)",
    )


@pytest.fixture(autouse=True)
def _race_detect(request):
    """Suite-wide lockset monitoring, opt-in via --repro-race-detect."""
    if not request.config.getoption("--repro-race-detect"):
        yield
        return
    from repro.checks.instrument import lockset_session

    with lockset_session(capture_stacks=False) as mon:
        yield
    mon.assert_no_races()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_batch(rng) -> ReadBatch:
    """60 random reads of length 70 (no genomic redundancy)."""
    return ReadBatch(codes=rng.integers(0, 4, size=(60, 70), dtype=np.uint8))


@pytest.fixture
def genomic_batch() -> ReadBatch:
    """Reads sampled from a small genome: realistic duplicate structure."""
    genome = random_genome(3000, seed=11)
    return simulate_reads(genome, n_reads=500, read_length=80,
                          mean_errors=1.0, seed=12)


@pytest.fixture
def clean_batch() -> ReadBatch:
    """Error-free reads from a small genome (both strands)."""
    genome = random_genome(2500, seed=21)
    return simulate_reads(genome, n_reads=400, read_length=75,
                          mean_errors=0.0, seed=22)


@pytest.fixture
def reads_file(tmp_path, genomic_batch):
    """The genomic batch saved as a FASTA file (service/job-store tests)."""
    from repro.dna.io import save_read_batch

    path = tmp_path / "reads.fasta"
    save_read_batch(path, genomic_batch, fmt="fasta")
    return path


def _write_v1_graph(path, k: int, planes, counts) -> None:
    """Write a version-1 graph file by hand: ``<u8`` planes and counters."""
    planes = np.atleast_2d(np.asarray(planes))
    magic = b"PHDB" if planes.shape[0] == 1 else b"PHB2"
    n = planes.shape[1]
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sBBHQ", magic, 1, k, 0, n))
        fh.write(np.asarray(planes, dtype="<u8").tobytes())
        fh.write(np.asarray(counts, dtype="<u8").reshape(n, 9).tobytes())


@pytest.fixture(scope="session")
def write_v1_graph():
    """``write_v1_graph(path, k, planes, counts)``: the graph file layout
    before uint32 counters, which ``load_graph`` still reads."""
    return _write_v1_graph


@pytest.fixture
def tiny_profile() -> DatasetProfile:
    return DatasetProfile(
        name="tiny",
        genome_size=2_000,
        read_length=60,
        coverage=10.0,
        mean_errors=0.5,
        repeat_fraction=0.0,
        seed=99,
    )
