#!/usr/bin/env python3
"""Co-processing on simulated heterogeneous processors.

Reproduces the paper's co-processing story on one dataset: run the real
MSP and hashing kernels once, then replay the work-stealing pipeline on
different device configurations (CPU only, GPUs only, CPU + GPUs) and
two disks (memory-cached vs spinning), comparing against the §IV
performance model.

    python examples/heterogeneous_pipeline.py
"""

from repro.core.config import ParaHashConfig
from repro.dna.simulate import HUMAN_CHR14_LIKE
from repro.hetsim.model import ideal_coprocessing_time, ideal_workload_shares
from repro.hetsim.trace import render_gantt
from repro.hetsim.transfer import memory_cached_disk, spinning_disk
from repro.hetsim.workloads import measure_workloads, simulate_parahash
from repro.util.tables import print_table


def main() -> None:
    profile = HUMAN_CHR14_LIKE.scaled(0.5)
    reads = profile.generate_reads()
    config = ParaHashConfig(k=27, p=11, n_partitions=32, n_input_pieces=8)
    print(f"dataset: {reads.n_reads:,} reads x {reads.read_length} bp; "
          f"running the real kernels once...")
    workloads = measure_workloads(reads, config)

    configs = [
        ("CPU only", True, 0),
        ("1 GPU", False, 1),
        ("2 GPUs", False, 2),
        ("CPU + 1 GPU", True, 1),
        ("CPU + 2 GPUs", True, 2),
    ]

    # --- compute-bound regime (memory-cached input) ----------------------
    disk = memory_cached_disk()
    reports = {
        label: simulate_parahash(reads, config, use_cpu=u, n_gpus=g,
                                 disk=disk, precomputed=workloads)
        for label, u, g in configs
    }
    t_cpu = reports["CPU only"].total_seconds
    t_gpu = reports["1 GPU"].total_seconds
    rows = []
    for label, use_cpu, n_gpus in configs:
        real = reports[label].total_seconds
        ideal = ideal_coprocessing_time(t_cpu, t_gpu, n_gpus, use_cpu=use_cpu)
        rows.append([label, f"{real:.4f}", f"{ideal:.4f}",
                     f"{t_cpu / real:.2f}x"])
    print_table(
        ["configuration", "simulated (s)", "Eq(2) ideal (s)", "speedup vs CPU"],
        rows,
        title="Compute-bound regime (memory-cached input) — cf. paper Fig 13",
    )

    # --- workload balance (cf. paper Fig 11) -----------------------------
    both = reports["CPU + 2 GPUs"]
    ideal = ideal_workload_shares(
        reports["CPU only"].step2.elapsed_seconds,
        reports["1 GPU"].step2.elapsed_seconds, 2,
    )
    real = both.step2.workload_shares()
    print_table(
        ["device", "real share", "speed-proportional ideal"],
        [[d, f"{real[d]:.3f}", f"{ideal[d]:.3f}"] for d in sorted(real)],
        title="Hashing workload distribution, CPU + 2 GPUs — cf. paper Fig 11",
    )

    # --- the schedule itself ----------------------------------------------
    print("Hashing schedule on CPU + 2 GPUs (each block is one partition):")
    print(render_gantt(both.step2))
    print()

    # --- IO-bound regime (spinning disk) ----------------------------------
    disk = spinning_disk()
    rows = []
    for label, use_cpu, n_gpus in configs:
        report = simulate_parahash(reads, config, use_cpu=use_cpu,
                                   n_gpus=n_gpus, disk=disk,
                                   precomputed=workloads)
        rows.append([
            label, f"{report.total_seconds:.4f}",
            f"{report.step1.input_seconds + report.step2.input_seconds:.4f}",
        ])
    print_table(
        ["configuration", "simulated (s)", "input transfer (s)"],
        rows,
        title="IO-bound regime (spinning disk) — cf. paper Fig 14: adding "
              "processors stops helping once the disk dominates",
    )


if __name__ == "__main__":
    main()
