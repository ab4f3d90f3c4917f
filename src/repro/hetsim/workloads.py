"""Measured workloads: run the real kernels, extract simulator inputs.

The simulator never invents work: every :class:`MspWork` /
:class:`HashWork` item is produced by actually executing the Step 1 /
Step 2 kernels of :mod:`repro.msp` and :mod:`repro.core` on the data
and metering them (bases scanned, hash operations, probe counts, table
sizes, encoded partition bytes).  The device models then price that
work in simulated seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.config import ParaHashConfig
from ..core.hashtable import build_subgraph_table
from ..core.subgraph import SubgraphResult
from ..dna.reads import ReadBatch
from ..graph.dbg import DeBruijnGraph
from ..graph.merge import merge_disjoint
from ..graph.serialize import graph_file_bytes
from ..msp.partitioner import partition_reads
from ..msp.records import SuperkmerBlock, join_blocks
from .device import CpuDevice, Device, HashWork, MspWork, default_cpu, default_gpu
from .pipeline import StepSimulation, simulate_step
from .transfer import DiskModel, memory_cached_disk

#: Approximate fastq bytes per read: header + sequence + '+' + quality.
FASTQ_OVERHEAD_PER_READ = 14


def fastq_bytes(n_reads: int, read_length: int) -> int:
    """Plain-text fastq size of a read batch."""
    return n_reads * (2 * read_length + FASTQ_OVERHEAD_PER_READ)


@dataclass
class Step1Workload:
    """Measured Step 1 work plus the partition blocks it produced."""

    works: list[MspWork]
    blocks: list[SuperkmerBlock]  # accumulated over pieces, one per partition


@dataclass
class Step2Workload:
    """Measured Step 2 work plus the constructed subgraphs."""

    works: list[HashWork]
    results: list[SubgraphResult]


def measure_step1(reads: ReadBatch, config: ParaHashConfig) -> Step1Workload:
    """Run MSP per input piece and meter each piece's work."""
    works: list[MspWork] = []
    piece_blocks: list[list[SuperkmerBlock]] = []
    for piece in reads.split(config.n_input_pieces):
        result = partition_reads(piece, config.k, config.p, config.n_partitions)
        out_bytes = sum(b.byte_size_encoded() for b in result.blocks)
        works.append(
            MspWork(
                n_reads=piece.n_reads,
                n_bases=piece.total_bases,
                n_superkmers=len(result.superkmers),
                in_bytes=fastq_bytes(piece.n_reads, piece.read_length),
                out_bytes=out_bytes,
            )
        )
        piece_blocks.append(result.blocks)
    blocks = [join_blocks(pieces, config.k) for pieces in zip(*piece_blocks)]
    return Step1Workload(works=works, blocks=blocks)


def measure_step2(blocks: list[SuperkmerBlock], config: ParaHashConfig) -> Step2Workload:
    """Build every subgraph through the paper's table and meter the work."""
    works: list[HashWork] = []
    results: list[SubgraphResult] = []
    for block in blocks:
        if block.n_superkmers == 0:
            continue
        result = build_subgraph_table(block, policy=config.sizing)
        results.append(result)
        works.append(
            HashWork.from_stats(
                result.stats,
                n_kmers=result.n_kmers,
                table_bytes=result.table_bytes,
                in_bytes=block.byte_size_encoded(),
                # The subgraph's binary graph file at the run's key width.
                out_bytes=graph_file_bytes(result.graph.n_vertices,
                                           result.graph.planes.shape[0]),
            )
        )
    return Step2Workload(works=works, results=results)


def device_set(use_cpu: bool = True, n_gpus: int = 0,
               cpu: CpuDevice | None = None) -> list[Device]:
    """A named device configuration (the Table III / Fig 13 variants)."""
    devices: list[Device] = []
    if use_cpu:
        devices.append(cpu or default_cpu())
    devices.extend(default_gpu(i) for i in range(n_gpus))
    if not devices:
        raise ValueError("at least one device must be enabled")
    return devices


@dataclass
class HetSimReport:
    """A full simulated ParaHash run (both steps) on one device config."""

    step1: StepSimulation
    step2: StepSimulation
    graph: DeBruijnGraph
    config: ParaHashConfig
    devices: list[str]
    disk: str

    @property
    def total_seconds(self) -> float:
        return self.step1.elapsed_seconds + self.step2.elapsed_seconds


#: Fraction of CPU threads consumed by input parsing / output encoding
#: in Step 1 ("the CPU does more input and output data parsing work,
#: e.g., extracting and encoding reads ... hence it spends less time in
#: the computation", §V-C2).
STEP1_CPU_IO_SHARE = 0.3


def simulate_parahash(
    reads: ReadBatch,
    config: ParaHashConfig | None = None,
    use_cpu: bool = True,
    n_gpus: int = 0,
    disk: DiskModel | None = None,
    cpu: CpuDevice | None = None,
    precomputed: tuple[Step1Workload, Step2Workload] | None = None,
) -> HetSimReport:
    """Run both steps for real, then replay them on simulated devices.

    ``precomputed`` lets callers measure the kernels once and sweep many
    device configurations over the same workload (the kernels are the
    expensive part; the simulation is microseconds).
    """
    config = config or ParaHashConfig()
    disk = disk or memory_cached_disk()
    base_cpu = cpu or default_cpu()
    if precomputed is None:
        step1 = measure_step1(reads, config)
        step2 = measure_step2(step1.blocks, config)
    else:
        step1, step2 = precomputed

    step1_cpu = replace(base_cpu, io_share=STEP1_CPU_IO_SHARE)
    devices1 = device_set(use_cpu, n_gpus, cpu=step1_cpu)
    devices2 = device_set(use_cpu, n_gpus, cpu=replace(base_cpu, io_share=0.0))
    sim1 = simulate_step(step1.works, devices1, disk)
    sim2 = simulate_step(step2.works, devices2, disk)
    graph = merge_disjoint([r.graph for r in step2.results], k=config.k)
    return HetSimReport(
        step1=sim1,
        step2=sim2,
        graph=graph,
        config=config,
        devices=[d.name for d in devices2],
        disk=disk.name,
    )


def measure_workloads(
    reads: ReadBatch, config: ParaHashConfig | None = None
) -> tuple[Step1Workload, Step2Workload]:
    """Measure both steps once (for configuration sweeps)."""
    config = config or ParaHashConfig()
    step1 = measure_step1(reads, config)
    step2 = measure_step2(step1.blocks, config)
    return step1, step2
