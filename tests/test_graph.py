import json
import tracemalloc

import pytest

from noncent import analysis, core, families, graph
from noncent.core import TooLarge, direct_product
from noncent.graph import UnknownFormat, build_graph, export, export_rows
from oracles import degree_sequence, edges, oracle_graph


class TestBuildGraph:
    def test_abelian_edgeless(self):
        g = build_graph(families.cyclic(5))
        assert g.parts == (tuple(range(5)),)
        assert list(edges(g)) == []

    def test_d8_k2222(self):
        g = build_graph(families.dihedral(4))
        assert g.parts == ((0, 2), (1, 3), (4, 6), (5, 7))
        assert len(list(edges(g))) == 24

    def test_q8xc3_18_regular(self):
        prod = direct_product(families.generalized_quaternion(8), families.cyclic(3))
        g = build_graph(prod)
        assert sorted(len(p) for p in g.parts) == [6, 6, 6, 6]
        assert degree_sequence(g) == [18] * 24

    def test_induced_drops_center(self):
        g = build_graph(families.dihedral(4), induced=True)
        assert g.parts == ((1, 3), (4, 6), (5, 7))
        assert g.vertices() == [1, 3, 4, 5, 6, 7]


class TestDegreeSequence:
    def test_d8(self):
        assert degree_sequence(build_graph(families.dihedral(4))) == [6] * 8

    def test_s3(self):
        assert degree_sequence(build_graph(families.dihedral(3))) == [4, 4, 5, 5, 5, 5]

    def test_d8_induced(self):
        assert degree_sequence(build_graph(families.dihedral(4), induced=True)) == [4] * 6

    def test_center_divides_degrees(self, small_corpus):
        for label, g in small_corpus:
            z = g.center().size
            for d in degree_sequence(build_graph(g)):
                assert d % z == 0, label


class TestOracle:
    def test_abelian_empty(self):
        assert oracle_graph(families.cyclic(6)) == set()

    def test_d8_count(self):
        assert len(oracle_graph(families.dihedral(4))) == 24

    def test_s3_count(self):
        assert len(oracle_graph(families.dihedral(3))) == 14

    def test_matches_build_graph(self, small_corpus):
        for label, g in small_corpus:
            if g.order > 64:
                continue
            for induced in (False, True):
                built = set(edges(build_graph(g, induced=induced)))
                assert built == oracle_graph(g, induced=induced), (label, induced)

    def test_cap(self):
        with pytest.raises(TooLarge):
            oracle_graph(families.cyclic(300))


class TestHandshake:
    def test_sum_of_degrees(self, small_corpus):
        for label, g in small_corpus:
            for induced in (False, True):
                gr = build_graph(g, induced=induced)
                degs = degree_sequence(gr)
                edge_count = len(list(edges(gr)))
                assert sum(degs) == 2 * edge_count, label
                n = sum(len(p) for p in gr.parts)
                assert edge_count == (n * n - sum(len(p) ** 2 for p in gr.parts)) // 2, label

    def test_regular_iff_analysis(self, small_corpus):
        for label, g in small_corpus:
            degs = set(degree_sequence(build_graph(g)))
            assert (len(degs) <= 1) == (analysis.is_regular(g) is not None), label
            idegs = set(degree_sequence(build_graph(g, induced=True)))
            assert (len(idegs) <= 1) == (analysis.is_induced_regular(g) is not None), label


class TestExport:
    def test_edge_list_empty(self):
        assert export(build_graph(families.cyclic(4)), "edge-list") == ""

    def test_edge_list_sorted_pairs(self):
        out = export(build_graph(families.dihedral(4)), "edge-list")
        lines = out.strip().splitlines()
        assert len(lines) == 24
        pairs = [tuple(map(int, l.split())) for l in lines]
        assert all(u < v for u, v in pairs)
        assert pairs == sorted(pairs)

    def test_parts_json_d8(self):
        out = export(build_graph(families.dihedral(4)), "parts-json")
        data = json.loads(out)
        assert data == {"parts": [[0, 2], [1, 3], [4, 6], [5, 7]], "induced": False}

    def test_dot_structure(self):
        out = export(build_graph(families.dihedral(4)), "dot")
        assert out.startswith("graph noncentralizer {")
        assert out.count("subgraph cluster_") == 4
        assert out.count(" -- ") == 24

    def test_unknown_format(self):
        with pytest.raises(UnknownFormat):
            export(build_graph(families.cyclic(2)), "gml")

    def test_unknown_format_raises_before_any_row(self):
        with pytest.raises(UnknownFormat):
            export_rows(build_graph(families.cyclic(2)), "gml")  # no next() taken

    @pytest.mark.parametrize("make, text_mb, bound_mib", [
        (lambda: build_graph(families.dihedral(1024)), 14.6, 4.5),
        # parts of two consecutive vertices: kept past their last members,
        # their lists would add up to about 8.6 MiB
        (lambda: graph.NonCentralizerGraph(
            tuple(map(str, range(2048))), tuple((v, v + 1) for v in range(0, 2048, 2)), False),
         18.7, 2),
    ], ids=["dihedral:1024", "consecutive pairs"])
    def test_rows_stream_in_bounded_memory(self, make, text_mb, bound_mib):
        """Draining the edge-list rows never holds the whole text, and each
        part's list of later non-members goes after the part's last member."""
        built, size = make(), 0
        tracemalloc.start()
        try:
            for row in export_rows(built, "edge-list"):
                size += len(row)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert round(size / 1e6, 1) == text_mb
        assert peak < bound_mib * 2**20, peak

    def test_deterministic(self):
        a = export(build_graph(families.modular_M(16)), "dot")
        b = export(build_graph(families.modular_M(16)), "dot")
        assert a == b
