"""Ablation — state-transfer partial locking vs whole-entry locking.

Paper (§III-A, §III-C3): the state-transfer mechanism locks the
multi-word key once per *distinct* vertex, after which the key is
read-only and only the counters take atomic increments.  A design
without it locks the entry on every kmer access.  "Since the number of
distinct vertices is roughly 1/5 of the entire set, we reduce the
contentious lock on the keys by 80%".

This ablation takes the real hashing runs on the chr14-like dataset and
compares the key-lock counts both per kmer instance (the paper's
metric) and per hash operation (instances plus edge updates), then
prices the serialized critical sections on the simulated CPU.
"""

from __future__ import annotations


def test_lock_contention_ablation(benchmark, chr14_reads, chr14_workloads):
    from conftest import emit_report, run_once

    from repro.hetsim.device import default_cpu

    _, step2 = chr14_workloads
    out = {}

    def compute():
        ops = sum(r.stats.ops for r in step2.results)
        key_locks = sum(r.stats.key_locks for r in step2.results)
        inserts = sum(r.stats.inserts for r in step2.results)
        out.update(ops=ops, key_locks=key_locks, inserts=inserts)

    run_once(benchmark, compute)

    ops, key_locks = out["ops"], out["key_locks"]
    instances = chr14_reads.n_kmers(27)
    reduction_instances = 1.0 - key_locks / instances
    reduction_ops = 1.0 - key_locks / ops
    # Price the serialized key-lock critical sections on the simulated
    # CPU: a whole-entry-locking design pays a multi-word critical
    # section per kmer instance; state transfer pays it per insertion.
    cpu = default_cpu()
    lock_cost = 4.0 / cpu.hash_ops_per_sec  # multi-word critical section
    naive_seconds = instances * lock_cost
    state_transfer_seconds = key_locks * lock_cost

    emit_report(
        "ablation_lock_contention",
        "Ablation: state-transfer locking vs whole-entry locking",
        ["metric", "whole-entry locking", "state transfer"],
        [
            ["key locks (per kmer instance)", instances, key_locks],
            ["key locks (per hash op)", ops, key_locks],
            ["serialized lock time (s)", f"{naive_seconds:.3f}",
             f"{state_transfer_seconds:.3f}"],
        ],
        notes=(
            f"Distinct/instances = {key_locks / instances:.3f} (paper: ~1/5); "
            f"key locks reduced by {100 * reduction_instances:.1f}% per kmer "
            f"instance (paper: ~80%) and {100 * reduction_ops:.1f}% per "
            "operation counting edge updates."
        ),
    )

    # The paper's 80% claim, on the paper's per-instance basis.
    assert 0.70 <= reduction_instances <= 0.90
    assert reduction_ops > reduction_instances
    # Key locks equal insertions exactly (one lock per distinct vertex).
    assert key_locks == out["inserts"]
