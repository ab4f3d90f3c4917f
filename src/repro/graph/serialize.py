"""De Bruijn graph serialization.

Step 2's third pipeline stage "parses each output partition to the
required format and transfers it to the disk" (§III-E; the paper's
Bumblebee output is ~20 GB).  ``repro build`` writes the merged graph,
and a service job one file per partition before the merge.  Two
formats:

* **binary** (``.phdbg``): a 16-byte header (magic, version, k, vertex
  count), then the raw ``(W, n)`` key planes as little-endian uint64
  and the ``(n, 9)`` counter matrix as little-endian uint32 -- ``16 +
  n (8 W + 36)`` bytes.  Magic ``PHDB`` for one-word keys and ``PHB2``
  for two-word keys.  Compact, exact, fast; the format graph outputs
  use.  Version 1 files (uint64 counters) are still read.
* **TSV text**: one vertex per line with its spelled kmer, multiplicity
  and the 8 edge counters — for interoperability and eyeballing.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from ..dna.alphabet import encode
from ..dna.encoding import codes_to_int
from ..dna.kmer import key_width, sort_order, split_int, take_planes
from .dbg import N_SLOTS, DeBruijnGraph, as_counts

#: File magic per key width: one-word graphs are ``PHDB`` files and
#: two-word ones ``PHB2``.  The body is the ``(W, n)`` key planes (plane
#: 0 first) as ``<u8``, then the counter matrix as ``<u4`` (version 2)
#: or ``<u8`` (version 1, read only).
MAGICS = {1: b"PHDB", 2: b"PHB2"}
FORMAT_VERSION = 2
#: Counter dtype on disk per readable format version.
COUNT_FORMATS = {1: np.dtype("<u8"), 2: np.dtype("<u4")}
_HEADER = struct.Struct("<4sBBHQ")


def graph_file_bytes(n_vertices: int, width: int,
                     version: int = FORMAT_VERSION) -> int:
    """Bytes of a binary graph file of ``n_vertices`` ``width``-word
    keys: ``16 + n (8 W + 36)`` at version 2."""
    count_bytes = N_SLOTS * COUNT_FORMATS[version].itemsize
    return _HEADER.size + n_vertices * (8 * width + count_bytes)


class GraphFormatError(ValueError):
    """Raised on a malformed graph file."""


def save_graph(path: str | os.PathLike, graph: DeBruijnGraph) -> int:
    """Write a graph as a binary ``.phdbg`` file; returns bytes written.

    Each array is written from its own buffer: no copy of the graph is
    made on a little-endian host.
    """
    magic = MAGICS[graph.planes.shape[0]]
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(magic, FORMAT_VERSION, graph.k, 0, graph.n_vertices))
        fh.write(np.ascontiguousarray(graph.planes, dtype="<u8").data)
        fh.write(np.ascontiguousarray(graph.counts,
                                      dtype=COUNT_FORMATS[FORMAT_VERSION]).data)
    return os.path.getsize(path)


def load_graph(path: str | os.PathLike) -> DeBruijnGraph:
    """Read a binary graph file back (either magic, version 1 or 2).

    The body is read into one buffer; the planes and, in a version 2
    file, the counters are views of it.  A version 1 file's uint64
    counters are checked and converted once; one that does not fit
    uint32 raises :class:`GraphFormatError`.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise GraphFormatError(f"{path}: truncated header")
        magic, version, k, _reserved, n = _HEADER.unpack(head)
        widths = {m: w for w, m in MAGICS.items()}
        if magic not in widths:
            raise GraphFormatError(f"{path}: bad magic {magic!r}")
        if version not in COUNT_FORMATS:
            raise GraphFormatError(f"{path}: unsupported version {version}")
        width = widths[magic]
        try:
            if key_width(k) != width:
                raise ValueError(f"a {magic!r} file holds {width}-word keys")
        except ValueError as exc:
            raise GraphFormatError(f"{path}: k={k} does not fit: {exc}") from exc
        count_dtype = COUNT_FORMATS[version]
        key_bytes = n * 8 * width
        need = graph_file_bytes(n, width, version)
        size = os.fstat(fh.fileno()).st_size
        if size != need:
            raise GraphFormatError(
                f"{path}: expected {need} bytes for {n} vertices, got {size}"
            )
        body = np.empty(need - _HEADER.size, dtype=np.uint8)
        got = fh.readinto(body)
        if got != body.nbytes:
            raise GraphFormatError(f"{path}: short read ({got} bytes)")
    planes = body[:key_bytes].view("<u8").reshape(width, n)
    counts = body[key_bytes:].view(count_dtype).reshape(n, N_SLOTS)
    try:
        counts = as_counts(counts)
    except OverflowError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc
    return DeBruijnGraph(k=k, vertices=planes.astype(np.uint64, copy=False),
                         counts=counts)


TSV_HEADER = "kmer\tmultiplicity\toutA\toutC\toutG\toutT\tinA\tinC\tinG\tinT"


def export_tsv(path: str | os.PathLike, graph: DeBruijnGraph) -> int:
    """Write the adjacency lists as TSV; returns the number of rows."""
    with open(path, "wt", encoding="ascii") as fh:
        fh.write(f"# k={graph.k}\n")
        fh.write(TSV_HEADER + "\n")
        for i in range(graph.n_vertices):
            row = graph.counts[i]
            out_in = "\t".join(str(int(row[j])) for j in range(8))
            fh.write(f"{graph.vertex_str(i)}\t{int(row[8])}\t{out_in}\n")
    return graph.n_vertices


def import_tsv(path: str | os.PathLike) -> DeBruijnGraph:
    """Read a TSV export back into a graph."""
    with open(path, "rt", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("# k="):
        raise GraphFormatError(f"{path}: missing '# k=' header line")
    try:
        k = int(lines[0].split("=", 1)[1])
    except ValueError as exc:
        raise GraphFormatError(f"{path}: bad k header") from exc
    if len(lines) < 2 or lines[1] != TSV_HEADER:
        raise GraphFormatError(f"{path}: missing column header")
    vertices = []
    counts = []
    for lineno, line in enumerate(lines[2:], 3):
        fields = line.split("\t")
        if len(fields) != 10:
            raise GraphFormatError(f"{path}:{lineno}: expected 10 fields")
        kmer_str, mult, *edges = fields
        if len(kmer_str) != k:
            raise GraphFormatError(
                f"{path}:{lineno}: kmer length {len(kmer_str)} != k={k}"
            )
        vertices.append(codes_to_int(encode(kmer_str)))
        counts.append([int(v) for v in edges] + [int(mult)])
    planes = np.array([split_int(v, k) for v in vertices],
                      dtype=np.uint64).reshape(-1, key_width(k)).T
    order = sort_order(planes, k)
    try:
        counts_arr = as_counts(np.array(counts).reshape(-1, N_SLOTS)[order])
    except OverflowError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc
    return DeBruijnGraph(k=k, vertices=take_planes(planes, order), counts=counts_arr)
