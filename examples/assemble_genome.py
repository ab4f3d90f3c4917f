#!/usr/bin/env python3
"""End-to-end mini assembly: reads -> De Bruijn graph -> unitigs.

The scenario the paper's introduction motivates: take shotgun reads of
a genome (here simulated, with sequencing errors), construct the De
Bruijn graph with ParaHash through encoded partition files on disk,
clean it with the multiplicity filter, compact it into unitigs, and
check how much of the genome the unitigs recover.

    python examples/assemble_genome.py
"""

import tempfile
from pathlib import Path

from repro.core.config import ParaHashConfig
from repro.core.parahash import ParaHash
from repro.dna.alphabet import decode
from repro.dna.simulate import DatasetProfile
from repro.graph.compact import compact_unitigs, compaction_stats


def revcomp(s: str) -> str:
    return s.translate(str.maketrans("ACGT", "TGCA"))[::-1]


def main() -> None:
    # A 20 kbp genome at 25x coverage with ~1 error per read.
    profile = DatasetProfile(
        name="mini-assembly",
        genome_size=20_000,
        read_length=100,
        coverage=25.0,
        mean_errors=1.0,
        repeat_fraction=0.0,
        seed=42,
    )
    genome, reads = profile.generate()
    print(f"genome: {profile.genome_size:,} bp; reads: {reads.n_reads:,} x "
          f"{reads.read_length} bp ({profile.coverage:.0f}x coverage)")

    # Construct through partition files on disk, the way ParaHash runs
    # on inputs too big for memory.
    k = 27
    config = ParaHashConfig(k=k, p=11, n_partitions=16, n_input_pieces=4)
    with tempfile.TemporaryDirectory() as workdir:
        result = ParaHash(config).build_graph(reads, workdir=Path(workdir))
    graph = result.graph
    print(f"\nDe Bruijn graph (k={k}):")
    print(f"  distinct vertices : {graph.n_vertices:,}")
    print(f"  duplicates merged : {graph.n_duplicate_vertices():,}")
    print(f"  partition files   : {result.partition_bytes / 1e3:.0f} KB encoded")
    print(f"  MSP / hashing     : {result.timings.msp_seconds:.2f}s / "
          f"{result.timings.hashing_seconds:.2f}s")
    print(f"  key-lock reduction: {100 * result.hash_stats.lock_reduction:.0f}%")

    # Error vertices are overwhelmingly multiplicity-1 at 25x coverage;
    # drop them before compaction (§III-C1's filtering step), and drop
    # the residual low-weight edges that pointed at them — this is what
    # the recorded edge weights are for (§II-B).
    cleaned = graph.filter_min_multiplicity(3).filter_min_edge_weight(3)
    print(f"\nafter multiplicity/edge-weight >= 3 filters: "
          f"{cleaned.n_vertices:,} vertices "
          f"(genome kmers: {profile.genome_size - k + 1:,})")

    # Compact maximal non-branching paths into unitigs.
    unitigs = compact_unitigs(cleaned)
    stats = compaction_stats(unitigs, k)
    print(f"\nunitigs: {stats['n_unitigs']:,}; "
          f"longest {stats['longest']:,} bp; N50 {stats['n50']:,} bp")

    # How much of the genome do the long unitigs recover?
    genome_str = decode(genome)
    recovered = 0
    exact = 0
    for u in sorted(unitigs, key=len, reverse=True)[:20]:
        s = u.to_str()
        if s in genome_str or revcomp(s) in genome_str:
            exact += 1
            recovered += len(s)
    print(f"top unitigs matching the genome exactly: {exact}/"
          f"{min(20, len(unitigs))}, covering {recovered:,} bp "
          f"({100 * recovered / profile.genome_size:.1f}% of the genome)")


if __name__ == "__main__":
    main()
