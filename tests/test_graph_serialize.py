"""Tests for repro.graph.serialize (binary and TSV graph files)."""

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
        # 16-byte header + 8 bytes/vertex + 72 bytes of counters/vertex.
        assert path.stat().st_size == 16 + g.n_vertices * 80
