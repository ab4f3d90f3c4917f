"""Ablation — multi-word key overhead (one-word K=27 vs two-word K=41).

§I claims the hash entry type "is not limited by the machine word
size"; the question a practitioner asks is what the wider key costs.
This ablation runs the identical pipeline at K=27 (one 64-bit key word)
and K=41 (two words) on the same reads and compares the measured hash
work and wall time of the real Python kernels.

Expected shape: per-operation cost grows by a modest constant (a second
word compared/written per probe), not by an algorithmic factor — the
state-transfer protocol is word-count agnostic.
"""

from __future__ import annotations

import time

from conftest import emit_report, run_once

from repro.core.hashtable import build_subgraph_table
from repro.msp.partitioner import partition_reads


def test_multiword_key_overhead(benchmark, chr14_reads):
    out = {}

    def compute():
        for label, k in (("1-word (K=27)", 27), ("2-word (K=41)", 41)):
            res = partition_reads(chr14_reads, k, 11, 32)
            start = time.perf_counter()
            ops = probes = inserts = 0
            for block in res.blocks:
                if block.n_superkmers == 0:
                    continue
                result = build_subgraph_table(block)
                ops += result.stats.ops
                probes += result.stats.probes
                inserts += result.stats.inserts
            out[label] = {
                "seconds": time.perf_counter() - start,
                "ops": ops,
                "probes": probes,
                "inserts": inserts,
            }

    run_once(benchmark, compute)

    one, two = out["1-word (K=27)"], out["2-word (K=41)"]
    per_op_1 = one["seconds"] / one["ops"]
    per_op_2 = two["seconds"] / two["ops"]
    emit_report(
        "ablation_multiword",
        "Ablation: one-word vs two-word hash keys (same reads, real wall time)",
        ["key width", "ops", "inserts", "wall (s)", "ns/op"],
        [
            ["1 word (K=27)", one["ops"], one["inserts"],
             f"{one['seconds']:.3f}", f"{per_op_1 * 1e9:.1f}"],
            ["2 words (K=41)", two["ops"], two["inserts"],
             f"{two['seconds']:.3f}", f"{per_op_2 * 1e9:.1f}"],
        ],
        notes=(
            f"Two-word per-op overhead: {per_op_2 / per_op_1:.2f}x — a "
            "constant-factor cost (extra word compared and written), not an "
            "algorithmic one; the state-transfer protocol is width-agnostic."
        ),
    )

    # The overhead is a small constant factor, not a blowup.
    assert per_op_2 / per_op_1 < 3.0
    # Both paths processed comparable observation volumes per kmer.
    assert abs(one["ops"] / chr14_reads.n_kmers(27)
               - two["ops"] / chr14_reads.n_kmers(41)) < 0.2
