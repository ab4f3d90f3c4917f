#!/usr/bin/env python3
"""Alignment-free strain comparison through De Bruijn graphs.

A downstream workflow the constructed graphs enable: sequence two
related strains (here, one genome and a mutated copy with 40 SNPs),
build both graphs with ParaHash, and find the variants purely from the
vertex sets — every SNP leaves up to K private kmers in each strain.

    python examples/strain_comparison.py
"""

from repro.core.parahash import build_debruijn_graph
from repro.dna.simulate import mutate_genome, random_genome, simulate_reads
from repro.graph.compare import (
    compare_graphs,
    multiplicity_correlation,
    variant_regions,
)
from repro.util.tables import print_table

K = 21
N_SNPS = 40


def main() -> None:
    genome_a = random_genome(30_000, seed=101)
    genome_b = mutate_genome(genome_a, n_snps=N_SNPS, seed=102)
    reads_a = simulate_reads(genome_a, 6_000, 90, mean_errors=0.8, seed=103)
    reads_b = simulate_reads(genome_b, 6_000, 90, mean_errors=0.8, seed=104)
    print(f"strain A and strain B: 30 kbp, {N_SNPS} SNPs apart, "
          f"18x coverage each, ~0.9% read error rate")

    graph_a = build_debruijn_graph(reads_a, k=K, p=9, n_partitions=16)
    graph_b = build_debruijn_graph(reads_b, k=K, p=9, n_partitions=16)

    raw = compare_graphs(graph_a, graph_b)
    print_table(
        ["metric", "value"],
        [
            ["shared vertices", raw.n_shared],
            ["private to A (raw)", raw.n_only_a],
            ["private to B (raw)", raw.n_only_b],
            ["Jaccard similarity", f"{raw.jaccard:.3f}"],
            ["multiplicity correlation", f"{multiplicity_correlation(graph_a, graph_b):.3f}"],
        ],
        title="raw comparison (sequencing errors dominate the private sets)",
    )

    # Errors are each strain's own multiplicity-1 kmers; solid private
    # vertices are the real variants.
    solid_a, solid_b = variant_regions(graph_a, graph_b, min_multiplicity=3)
    # Each SNP corrupts up to K kmers per strain.
    expected_max = N_SNPS * K
    print_table(
        ["metric", "value"],
        [
            ["solid private to A", solid_a.size],
            ["solid private to B", solid_b.size],
            ["upper bound (SNPs x K)", expected_max],
            ["SNP estimate (A-private / K)", f"{solid_a.size / K:.1f}"],
        ],
        title="after multiplicity >= 3 filter (true strain differences)",
    )
    print("The solid private sets shrink to ~SNPs x K kmers per strain —\n"
          "the variants are recovered without aligning a single read.")


if __name__ == "__main__":
    main()
