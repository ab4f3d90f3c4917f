"""Each entry point loads only the modules it runs.

A fresh interpreter imports what the benchmark child imports and runs
builds, or parses a ``repro build`` command line, and then reports
every loaded module.  The analysis toolkit, the simulator, the job
service and the other off-path modules must not be among them:
package ``__init__``s re-export nothing, and the CLI imports each
subcommand's modules inside that subcommand.  No build loads the
paper's shared hash table or its atomics, and a serial build does not
load ``multiprocessing`` either.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

LIBRARY = """\
import json, sys
import numpy as np
import repro.bigk.serialize
import repro.dna.io
import repro.graph.serialize
from repro.core.config import ParaHashConfig
from repro.core.parahash import ParaHash
from repro.dna.reads import ReadBatch

rng = np.random.default_rng(7)
genome = rng.integers(0, 4, size=3_000, dtype=np.uint8)
starts = rng.integers(0, genome.size - 100, size=300)
reads = ReadBatch(codes=np.stack([genome[s:s + 100] for s in starts]))
for backend in ("serial", "processes"):
    for k, p in ((27, 11), (45, 15)):
        cfg = ParaHashConfig(k=k, p=p, n_partitions=8, backend=backend,
                             n_workers=2)
        assert ParaHash(cfg).build_graph(reads).graph.n_vertices > 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""

SERIAL = """\
import json, sys
import numpy as np
import repro.bigk.serialize
import repro.dna.io
import repro.graph.serialize
from repro.core.config import ParaHashConfig
from repro.core.parahash import ParaHash
from repro.dna.reads import ReadBatch

rng = np.random.default_rng(7)
genome = rng.integers(0, 4, size=3_000, dtype=np.uint8)
starts = rng.integers(0, genome.size - 100, size=300)
reads = ReadBatch(codes=np.stack([genome[s:s + 100] for s in starts]))
for k, p in ((27, 11), (45, 15)):
    cfg = ParaHashConfig(k=k, p=p, n_partitions=8)
    assert ParaHash(cfg).build_graph(reads).graph.n_vertices > 0
print(json.dumps(sorted(sys.modules)))
"""

CLI = """\
import json, sys
from repro.cli import build_parser

args = build_parser().parse_args(
    ["build", "--input", "reads.fastq", "--output", "graph.phdbg"])
assert args.command == "build"
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""

OFF_BUILD_PATH = (
    "repro.analysis",
    "repro.hetsim",
    "repro.service",
    "repro.checks",
    "repro.baselines",
    "repro.dna.simulate",
    "repro.graph.compact",
    "repro.graph.validate",
    "repro.graph.compare",
    "repro.msp.inspect",
    "repro.msp.stats",
    "repro.core.counter",
)

#: What no build runs: the paper's shared table and its atomics.
OFF_EVERY_BUILD = ("repro.core.hashtable", "repro.concurrentsub.atomics")

#: What only the processes backend or the paper's shared table runs.
OFF_SERIAL_BUILD = ("multiprocessing", *OFF_EVERY_BUILD)

OFF_CLI_PARSE = (
    "repro.analysis",
    "repro.hetsim",
    "repro.checks",
    "repro.baselines",
    "repro.service.server",
    "repro.service.pool",
    "repro.service.runner",
    "repro.service.jobstore",
)


def loaded_modules(script: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def under(modules: list[str], packages: tuple[str, ...]) -> list[str]:
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in packages)]


def test_builds_load_no_off_path_module():
    modules = loaded_modules(LIBRARY)
    assert "repro.parallel.backend" in modules  # the processes build ran
    assert under(modules, OFF_BUILD_PATH) == []
    assert under(modules, OFF_EVERY_BUILD) == []


def test_serial_build_loads_no_process_or_table_module():
    modules = loaded_modules(SERIAL)
    assert "repro.core.subgraph" in modules  # the builds ran
    assert under(modules, OFF_SERIAL_BUILD) == []


def test_parsing_build_loads_no_subcommand_module():
    modules = loaded_modules(CLI)
    assert "repro.service.cli" in modules  # its parsers are registered
    assert under(modules, OFF_CLI_PARSE) == []
