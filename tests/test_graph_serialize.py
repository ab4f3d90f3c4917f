"""Tests for repro.graph.serialize (binary and TSV graph files)."""

import numpy as np
import pytest

from repro.graph.build import build_reference_graph
from repro.graph.serialize import (
    GraphFormatError,
    export_tsv,
    import_tsv,
    load_graph,
    save_graph,
)
from repro.graph.validate import assert_graphs_equal


class TestBinaryFormat:
    def test_roundtrip(self, genomic_batch, tmp_path):
        g = build_reference_graph(genomic_batch, 15)
        path = tmp_path / "g.phdbg"
        n_bytes = save_graph(path, g)
        assert n_bytes == path.stat().st_size
        back = load_graph(path)
        assert_graphs_equal(back, g, "binary-roundtrip")

    def test_empty_graph(self, tmp_path):
        from repro.graph.dbg import empty_graph

        path = tmp_path / "e.phdbg"
        save_graph(path, empty_graph(27))
        back = load_graph(path)
        assert back.n_vertices == 0 and back.k == 27

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "g.phdbg"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(GraphFormatError):
            load_graph(path)

    def test_truncated(self, genomic_batch, tmp_path):
        g = build_reference_graph(genomic_batch, 15)
        path = tmp_path / "g.phdbg"
        save_graph(path, g)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(GraphFormatError):
            load_graph(path)

    def test_trailing_bytes(self, genomic_batch, tmp_path):
        g = build_reference_graph(genomic_batch, 15)
        path = tmp_path / "g.phdbg"
        save_graph(path, g)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(GraphFormatError):
            load_graph(path)

    def test_bad_version(self, genomic_batch, tmp_path):
        g = build_reference_graph(genomic_batch, 15)
        path = tmp_path / "g.phdbg"
        save_graph(path, g)
        data = bytearray(path.read_bytes())
        data[4] = 42
        path.write_bytes(bytes(data))
        with pytest.raises(GraphFormatError):
            load_graph(path)


class TestVersionOneFiles:
    """Version 1 files (uint64 counters) are user output: still read."""

    @pytest.mark.parametrize("k", [15, 45])
    def test_v1_loads_equal_to_v2(self, genomic_batch, tmp_path,
                                  write_v1_graph, k):
        from repro.core.config import ParaHashConfig
        from repro.core.parahash import ParaHash

        cfg = ParaHashConfig(k=k, p=9, n_partitions=4)
        g = ParaHash(cfg).build_graph(genomic_batch).graph
        v1, v2 = tmp_path / "v1.phdbg", tmp_path / "v2.phdbg"
        write_v1_graph(v1, k, g.planes, g.counts)
        save_graph(v2, g)
        assert v1.read_bytes()[:4] == v2.read_bytes()[:4]
        assert v2.read_bytes()[4] == 2
        a, b = load_graph(v1), load_graph(v2)
        assert a.counts.dtype == b.counts.dtype == np.uint32
        assert_graphs_equal(a, b, "v1-vs-v2")
        assert_graphs_equal(a, g, "v1-vs-built")

    @pytest.mark.parametrize("k", [15, 45])
    def test_v1_counter_past_uint32_is_a_format_error(self, tmp_path,
                                                      write_v1_graph, k):
        width = 1 if k < 32 else 2
        counts = np.zeros((1, 9), dtype=np.uint64)
        counts[0, 8] = 2**32
        path = tmp_path / "big.phdbg"
        write_v1_graph(path, k, np.ones((width, 1), dtype=np.uint64), counts)
        with pytest.raises(GraphFormatError, match="big.phdbg"):
            load_graph(path)
        counts[0, 8] = 2**32 - 1
        write_v1_graph(path, k, np.ones((width, 1), dtype=np.uint64), counts)
        assert int(load_graph(path).counts[0, 8]) == 2**32 - 1


class TestTsvFormat:
    def test_roundtrip(self, clean_batch, tmp_path):
        g = build_reference_graph(clean_batch, 15)
        path = tmp_path / "g.tsv"
        rows = export_tsv(path, g)
        assert rows == g.n_vertices
        back = import_tsv(path)
        assert_graphs_equal(back, g, "tsv-roundtrip")

    def test_header_checked(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("no header\n")
        with pytest.raises(GraphFormatError):
            import_tsv(path)

    def test_field_count_checked(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("# k=3\nkmer\tmultiplicity\toutA\toutC\toutG\toutT\tinA\tinC\tinG\tinT\nACG\t1\n")
        with pytest.raises(GraphFormatError):
            import_tsv(path)

    def test_kmer_length_checked(self, tmp_path):
        path = tmp_path / "g.tsv"
        row = "ACGT\t1" + "\t0" * 8
        path.write_text(
            "# k=3\nkmer\tmultiplicity\toutA\toutC\toutG\toutT\tinA\tinC\tinG\tinT\n"
            + row + "\n"
        )
        with pytest.raises(GraphFormatError):
            import_tsv(path)

    @pytest.mark.parametrize("value", [2**32, 2**64, -1])
    def test_counter_outside_uint32_is_a_format_error(self, tmp_path, value):
        path = tmp_path / "g.tsv"
        path.write_text(
            "# k=3\nkmer\tmultiplicity\toutA\toutC\toutG\toutT\tinA\tinC\tinG\tinT\n"
            f"ACG\t1\t{value}" + "\t0" * 7 + "\n"
        )
        with pytest.raises(GraphFormatError, match="g.tsv"):
            import_tsv(path)

    def test_human_readable(self, tmp_path):
        from repro.dna.reads import ReadBatch

        g = build_reference_graph(ReadBatch.from_strs(["AACCT"]), 3)
        path = tmp_path / "g.tsv"
        export_tsv(path, g)
        text = path.read_text()
        assert "# k=3" in text
        assert "AAC" in text  # spelled kmer appears


class TestSubgraphFiles:
    def test_save_load_merge(self, genomic_batch, tmp_path):
        # A service job's Step-2 output: one file per subgraph, merged
        # back into the graph at finalize.
        from repro.core.config import ParaHashConfig
        from repro.core.parahash import ParaHash
        from repro.graph.merge import merge_disjoint

        cfg = ParaHashConfig(k=15, p=7, n_partitions=6)
        result = ParaHash(cfg).build_graph(genomic_batch)
        paths = []
        for i, subgraph in enumerate(result.subgraphs):
            paths.append(tmp_path / f"subgraph_{i:04d}.phdbg")
            save_graph(paths[-1], subgraph)
        merged = merge_disjoint([load_graph(p) for p in paths])
        assert_graphs_equal(merged, result.graph, "subgraph-files")

    def test_file_sizes_sum_to_graph(self, genomic_batch, tmp_path):
        g = build_reference_graph(genomic_batch, 15)
        path = tmp_path / "g.phdbg"
        save_graph(path, g)
        # 16-byte header + 8 bytes of key per word + 36 bytes of uint32
        # counters per vertex.
        width = g.planes.shape[0]
        assert path.stat().st_size == 16 + g.n_vertices * (8 * width + 36)
