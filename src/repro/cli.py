"""Command-line interface.

Exposes the library's main workflows as ``python -m repro <command>``:

* ``simulate`` — generate a synthetic genome + read set (FASTA/FASTQ);
* ``build`` — construct a De Bruijn graph from reads (the full ParaHash
  pipeline), optionally through partition files on disk;
* ``stats`` — inspect a constructed graph (sizes, spectrum, degrees);
* ``unitigs`` — filter a graph and write its unitigs as FASTA;
* ``hetsim`` — replay the construction on simulated CPU/GPU devices and
  report elapsed times and workload shares;
* ``checks`` — concurrency static analysis (R1-R5) and the dynamic
  lockset race detector (delegates to ``python -m repro.checks``);
* ``serve`` / ``submit`` / ``jobs`` / ``resume`` — the job service:
  a daemon running checkpointed, resumable builds for many tenants
  over one shared process pool (see :mod:`repro.service`).

All commands are deterministic given their ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core.config import BACKENDS, ParaHashConfig
from .core.parahash import ParaHash
from .dna.io import load_read_batch, save_read_batch, write_fasta
from .dna.io import SequenceRecord
from .dna.kmer import key_width
from .dna.simulate import PROFILES, DatasetProfile, genome_to_str
from .graph.serialize import export_tsv, load_graph, save_graph
from .util.tables import render_table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ParaHash reproduction: parallel De Bruijn graph construction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic genome and reads")
    p.add_argument("--profile", choices=sorted(PROFILES),
                   help="built-in dataset profile")
    p.add_argument("--genome-size", type=int, default=10_000)
    p.add_argument("--read-length", type=int, default=100)
    p.add_argument("--coverage", type=float, default=20.0)
    p.add_argument("--errors", type=float, default=1.0,
                   help="mean substitution errors per read (lambda)")
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument("--output", required=True, help="reads file (.fastq/.fasta)")
    p.add_argument("--genome-out", help="also write the genome as FASTA")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("build", help="construct a De Bruijn graph from reads")
    p.add_argument("--input", required=True, help="FASTA/FASTQ reads")
    p.add_argument("--k", type=int, default=27)
    p.add_argument("--p", type=int, default=11, help="minimizer length")
    p.add_argument("--partitions", type=int, default=32)
    p.add_argument("--backend", choices=BACKENDS, default="serial",
                   help="execution backend for the pipeline (any k <= 63)")
    p.add_argument("--workers", type=int, default=0,
                   help="worker count for --backend processes "
                        "(0 = all cores)")
    p.add_argument("--workdir",
                   help="directory for encoded partition files (disk-backed run)")
    p.add_argument("--output", required=True, help="graph file (.phdbg)")
    p.add_argument("--tsv", help="also export adjacency lists as TSV")
    p.add_argument("--min-multiplicity", type=int, default=1,
                   help="drop vertices seen fewer times before writing")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("stats", help="inspect a constructed graph")
    p.add_argument("--graph", required=True, help=".phdbg file")
    p.add_argument("--reads", type=int, help="#reads (enables error-rate estimate)")
    p.add_argument("--read-length", type=int,
                   help="read length (enables error-rate estimate)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("unitigs", help="compact a graph into unitigs (FASTA)")
    p.add_argument("--graph", required=True, help=".phdbg file")
    p.add_argument("--min-multiplicity", type=int, default=2)
    p.add_argument("--min-edge-weight", type=int, default=2)
    p.add_argument("--output", required=True, help="unitig FASTA file")
    p.set_defaults(func=cmd_unitigs)

    p = sub.add_parser("validate", help="run graph invariants on a .phdbg file")
    p.add_argument("--graph", required=True)
    p.add_argument("--full", action="store_true",
                   help="also check per-edge symmetry (slow on big graphs)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("partitions", help="summarize a .phsk partition directory")
    p.add_argument("--dir", required=True, help="directory of partition files")
    p.add_argument("--deep", action="store_true",
                   help="load each partition for exact kmer counts")
    p.set_defaults(func=cmd_partitions)

    p = sub.add_parser("count", help="count kmers (no edges), print the spectrum")
    p.add_argument("--input", required=True, help="FASTA/FASTQ reads")
    p.add_argument("--k", type=int, default=27)
    p.add_argument("--min-count", type=int, default=1,
                   help="drop kmers below this abundance from the summary")
    p.add_argument("--histogram-max", type=int, default=30)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser(
        "checks",
        help="concurrency lint + lockset race detector (see repro.checks)",
        add_help=False,
    )
    p.add_argument("rest", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_checks)

    from .service.cli import add_service_commands

    add_service_commands(sub)

    p = sub.add_parser("hetsim", help="simulate heterogeneous co-processing")
    p.add_argument("--input", required=True, help="FASTA/FASTQ reads")
    p.add_argument("--k", type=int, default=27)
    p.add_argument("--p", type=int, default=11)
    p.add_argument("--partitions", type=int, default=32)
    p.add_argument("--gpus", type=int, default=2)
    p.add_argument("--no-cpu", action="store_true",
                   help="GPU-only configuration")
    p.add_argument("--disk", choices=["ram", "hdd"], default="ram")
    p.add_argument("--gantt", action="store_true",
                   help="draw the hashing schedule as an ASCII Gantt chart")
    p.set_defaults(func=cmd_hetsim)

    return parser


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.profile:
        profile = PROFILES[args.profile]
    else:
        profile = DatasetProfile(
            name="cli",
            genome_size=args.genome_size,
            read_length=args.read_length,
            coverage=args.coverage,
            mean_errors=args.errors,
            seed=args.seed,
        )
    genome, reads = profile.generate()
    fmt = "fasta" if str(args.output).endswith((".fasta", ".fa")) else "fastq"
    save_read_batch(args.output, reads, fmt=fmt)
    print(f"wrote {reads.n_reads} reads x {reads.read_length} bp to {args.output}")
    if args.genome_out:
        write_fasta(args.genome_out,
                    [SequenceRecord(name=profile.name, sequence=genome_to_str(genome))])
        print(f"wrote genome ({genome.size} bp) to {args.genome_out}")
    return 0


def _key_note(k: int) -> str:
    """How many words a key of length ``k`` takes, when more than one."""
    width = key_width(k)
    words = "two" if width == 2 else width
    return "" if width == 1 else f" ({words}-word keys, k={k})"


def cmd_build(args: argparse.Namespace) -> int:
    # The config validates k and p before the input is read.
    config = ParaHashConfig(
        k=args.k, p=args.p, n_partitions=args.partitions,
        backend=args.backend, n_workers=args.workers,
    )
    reads = load_read_batch(args.input)
    result = ParaHash(config).build_graph(
        reads, workdir=Path(args.workdir) if args.workdir else None
    )
    graph = result.graph
    if args.min_multiplicity > 1:
        graph = graph.filter_min_multiplicity(args.min_multiplicity)
    n_bytes = save_graph(args.output, graph)
    print(f"{graph.n_vertices:,} vertices{_key_note(args.k)} "
          f"({result.graph.n_duplicate_vertices():,} duplicates merged) "
          f"-> {args.output} ({n_bytes:,} bytes)")
    print(f"stages: MSP {result.timings.msp_seconds:.2f}s, "
          f"hashing {result.timings.hashing_seconds:.2f}s; "
          f"lock reduction {100 * result.hash_stats.lock_reduction:.0f}%")
    if args.tsv:
        rows = export_tsv(args.tsv, graph)
        print(f"exported {rows:,} rows to {args.tsv}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from .analysis.degrees import degree_summary
    from .analysis.errors import estimate_error_rate
    from .analysis.spectrum import analyze_spectrum

    graph = load_graph(args.graph)
    d = graph.describe()
    print(render_table(
        ["property", "value"],
        [[key, value] for key, value in d.items()],
        title=f"graph {args.graph}{_key_note(graph.k)}",
    ))
    spectrum = analyze_spectrum(graph)
    degrees = degree_summary(graph)
    print(render_table(
        ["property", "value"],
        [
            ["coverage peak (x)", spectrum.coverage_peak],
            ["error threshold", spectrum.error_threshold],
            ["est. genome size", spectrum.estimated_genome_size],
            ["error vertices", spectrum.n_error_vertices],
            ["junction vertices", degrees.n_junctions],
            ["tip vertices", degrees.n_tips],
            ["simple vertices", degrees.n_simple],
        ],
        title="analysis",
    ))
    if args.reads and args.read_length:
        est = estimate_error_rate(graph, args.reads, args.read_length)
        print(f"\nestimated error rate: lambda = {est.lam:.2f} errors/read "
              f"({est.per_base_rate * 100:.3f}% per base)")
    return 0


def cmd_unitigs(args: argparse.Namespace) -> int:
    from .graph.compact import compact_unitigs, compaction_stats

    graph = load_graph(args.graph)
    cleaned = graph.filter_min_multiplicity(args.min_multiplicity)
    cleaned = cleaned.filter_min_edge_weight(args.min_edge_weight)
    unitigs = compact_unitigs(cleaned)
    records = [
        SequenceRecord(
            name=f"unitig_{i} length={len(u)} mean_mult={u.mean_multiplicity:.1f}",
            sequence=u.to_str(),
        )
        for i, u in enumerate(sorted(unitigs, key=len, reverse=True))
    ]
    write_fasta(args.output, records)
    stats = compaction_stats(unitigs, graph.k)
    print(f"wrote {stats['n_unitigs']:,} unitigs to {args.output} "
          f"(longest {stats['longest']:,} bp, N50 {stats['n50']:,} bp)")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .graph.validate import (
        GraphValidationError,
        check_canonical_vertices,
        check_edge_symmetry,
    )

    graph = load_graph(args.graph)
    checks = [("canonical vertices", check_canonical_vertices)]
    if args.full:
        checks.append(("edge symmetry", check_edge_symmetry))
    failures = 0
    for name, check in checks:
        try:
            check(graph)
            print(f"  ok: {name}")
        except GraphValidationError as exc:
            failures += 1
            print(f"FAIL: {name}: {exc}")
    print(f"{graph.n_vertices:,} vertices checked; "
          f"{'all invariants hold' if not failures else f'{failures} failed'}")
    return 1 if failures else 0


def cmd_partitions(args: argparse.Namespace) -> int:
    from .msp.inspect import deep_scan_partition, inspect_partition_dir

    summary = inspect_partition_dir(args.dir)
    print(f"{summary.n_partitions} partitions, k={summary.k}, "
          f"{summary.total_superkmers:,} superkmers, "
          f"{summary.total_bytes:,} bytes, "
          f"balance CV {summary.balance_cv():.3f}")
    if args.deep:
        rows = [deep_scan_partition(info, summary.k)
                for info in summary.partitions]
        print(render_table(
            ["partition", "files", "superkmers", "kmers", "mean len",
             "left ext", "right ext"],
            [
                [r["partition"], r["n_files"], r["n_superkmers"], r["n_kmers"],
                 f"{r['mean_superkmer_length']:.1f}", r["n_with_left_ext"],
                 r["n_with_right_ext"]]
                for r in rows
            ],
        ))
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    from .core.counter import count_kmers

    reads = load_read_batch(args.input)
    table = count_kmers(reads, args.k)
    solid = table.filter_min_count(args.min_count)
    print(f"{table.n_distinct:,} distinct kmers "
          f"({table.total_instances():,} instances); "
          f"{solid.n_distinct:,} at abundance >= {args.min_count}")
    hist = table.histogram(max_count=args.histogram_max)
    peak = max(1, int(hist[1:].max()))
    width = 40
    print("\nabundance histogram:")
    for m in range(1, args.histogram_max + 1):
        bar = "#" * int(width * int(hist[m]) / peak)
        tail = "+" if m == args.histogram_max else " "
        print(f"  {m:>3}{tail}| {bar} {int(hist[m])}")
    return 0


def cmd_checks(args: argparse.Namespace) -> int:
    """Delegate to the concurrency-checks driver (same as
    ``python -m repro.checks``)."""
    from .checks.cli import main as checks_main

    return checks_main(args.rest)


def cmd_hetsim(args: argparse.Namespace) -> int:
    from .hetsim.trace import render_gantt
    from .hetsim.transfer import memory_cached_disk, spinning_disk
    from .hetsim.workloads import measure_workloads, simulate_parahash

    reads = load_read_batch(args.input)
    config = ParaHashConfig(k=args.k, p=args.p, n_partitions=args.partitions)
    disk = memory_cached_disk() if args.disk == "ram" else spinning_disk()
    workloads = measure_workloads(reads, config)
    report = simulate_parahash(
        reads, config, use_cpu=not args.no_cpu, n_gpus=args.gpus,
        disk=disk, precomputed=workloads,
    )
    print(render_table(
        ["step", "elapsed (s)", "input (s)", "output (s)"],
        [
            ["MSP", f"{report.step1.elapsed_seconds:.4f}",
             f"{report.step1.input_seconds:.4f}",
             f"{report.step1.output_seconds:.4f}"],
            ["hashing", f"{report.step2.elapsed_seconds:.4f}",
             f"{report.step2.input_seconds:.4f}",
             f"{report.step2.output_seconds:.4f}"],
        ],
        title=f"devices={report.devices} disk={report.disk}",
    ))
    shares = report.step2.workload_shares()
    print(render_table(
        ["device", "hashing share"],
        [[name, f"{share:.3f}"] for name, share in sorted(shares.items())],
        title="workload distribution",
    ))
    if args.gantt:
        print("\nhashing schedule:")
        print(render_gantt(report.step2))
    print(f"\ntotal simulated time: {report.total_seconds:.4f} s; "
          f"graph: {report.graph.n_vertices:,} vertices")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # The checks driver owns its whole argument vector (argparse's
    # REMAINDER would refuse a leading optional like `checks --help`).
    if argv[:1] == ["checks"]:
        return cmd_checks(argparse.Namespace(rest=argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
