import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import noncent
from noncent import catalog, checks, families, graph
from noncent.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_s8(tmp_path, order):
    path = tmp_path / "s8.cat"
    path.write_text(f"name: S8\nkind: perm\norder: {order}\ndegree: 8\n"
                    "gen: 1 2 3 4 5 6 7 0\ngen: 1 0 2 3 4 5 6 7\n")
    return str(path)


class TestAnalyze:
    def test_dihedral4(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "dihedral:4")
        assert code == 0
        assert "regular:          yes" in out
        assert "regular degree:   6" in out

    def test_kv_output(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--kv", "quaternion:8")
        assert code == 0
        assert "regular_degree=6" in out
        assert "reduced=true" in out

    def test_abelian_degenerate(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--kv", "cyclic:6")
        assert code == 0
        assert "regular_degree=0" in out

    def test_modular_32(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--kv", "M:32")
        assert "regular_degree=24" in out

    def test_product_spec(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--kv", "dihedral:4", "x", "cyclic:3")
        assert code == 0
        assert "order=24" in out
        assert "regular_degree=18" in out

    def test_catalog_source(self, capsys):
        path = catalog.shipped_path("order8.cat")
        code, out, _ = run_cli(capsys, "analyze", "--kv", f"{path}#[8,4]")
        assert code == 0 and "label=[8,4]" in out

    def test_catalog_with_byte_order_mark(self, capsys, tmp_path):
        path = tmp_path / "bom.cat"
        path.write_text("\ufeffname: C2\nkind: table\norder: 2\n0 1\n1 0\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", "--kv", str(path))
        assert (code, err) == (0, "")
        assert "label=C2" in out and "order=2" in out

    def test_unresolvable_source(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "no-such-family:4")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("argv", [("x", "dihedral:4"), ("dihedral:4", "x"),
                                      ("dihedral:4", "x", "x", "cyclic:2")])
    def test_misplaced_product_sign(self, capsys, argv):
        code, out, err = run_cli(capsys, "analyze", *argv)
        assert (code, out, err) == (2, "", "error: misplaced 'x' in group source\n")

    def test_over_table_budget(self, capsys):
        # elem:2:13 passes the family order cap but needs a 512 MiB table
        code, out, err = run_cli(capsys, "analyze", "elem:2:13")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "budget" in err

    def test_multi_entry_file_needs_label(self, capsys):
        code, _, err = run_cli(capsys, "analyze", catalog.shipped_path("order8.cat"))
        assert code == 2 and "#LABEL" in err

    def test_heisenberg(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--kv", "heisenberg:3")
        assert code == 0 and "induced_degree=18" in out


class TestSearch:
    def test_reduced_order8(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--catalog",
                               catalog.shipped_path("order8.cat"), "--reduced")
        assert code == 0
        assert out.splitlines() == ["[8,3]  degree=6", "[8,4]  degree=6"]

    def test_regular_degree12_order16(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--catalog",
                               catalog.shipped_path("order16.cat"),
                               "--regular", "--degree", "12")
        assert code == 0
        assert len(out.splitlines()) == 6  # six 12-regular groups of order 16

    def test_reduced_degree30(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--catalog",
                               catalog.shipped_path("order32.cat"),
                               "--reduced", "--degree", "30")
        assert out.splitlines() == ["[32,49]  degree=30", "[32,50]  degree=30"]

    def test_table1(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--catalog",
                               catalog.shipped_path("order8.cat"), "--table1")
        assert code == 0
        assert out.strip() == "n=6: [8,3], [8,4]  (2 groups)"

    def test_table1_degree_filters_rows(self, capsys):
        cats = ",".join(catalog.shipped_path(n) for n in ("order8.cat", "order16.cat"))
        code, out, _ = run_cli(capsys, "search", "--catalog", cats, "--table1", "--degree", "6")
        assert code == 0
        assert out.strip() == "n=6: [8,3], [8,4]  (2 groups)"

    def test_missing_catalog(self, capsys):
        code, _, err = run_cli(capsys, "search", "--catalog", "nope.cat", "--regular")
        assert code == 2

    def test_label_repeated_across_files(self, capsys):
        path = catalog.shipped_path("order8.cat")
        code, out, err = run_cli(capsys, "search", "--reduced", "--catalog", f"{path},{path}")
        assert code == 2 and out == ""
        assert err.count(f"{path}:") == 2 and "duplicate label" in err

    @pytest.mark.parametrize("mode", ["--table1", "--regular"])
    def test_catalog_without_entries(self, capsys, tmp_path, mode):
        empty = tmp_path / "empty.cat"
        empty.write_text("# comments only\n")
        code, out, err = run_cli(capsys, "search", "--catalog", str(empty), mode)
        assert code == 2 and err.startswith("error: ") and out == ""


class TestVerify:
    def test_single_check_order8(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--catalog",
                               catalog.shipped_path("order8.cat"),
                               "--checks", "creg,be0")
        assert code == 0
        assert "0 failures" in out

    def test_repeated_check_ids_run_once(self, capsys):
        path = catalog.shipped_path("order8.cat")
        _, once, _ = run_cli(capsys, "verify", "--catalog", path, "--checks", "be0")
        for argv in (["--checks", "be0", "--checks", "be0"], ["--checks", "be0,be0"]):
            code, out, _ = run_cli(capsys, "verify", "--catalog", path, *argv)
            assert code == 0 and out == once
        assert "-- 5 results," in once

    @pytest.mark.parametrize("check_id, code, summary", [
        ("lg", 1, "1 failures"), ("tconj", 0, "0 failures")])
    def test_exit_code_follows_printed_failures(self, capsys, monkeypatch, check_id, code, summary):
        failed = checks.CheckResult(check_id, "[8,3]", True, False)
        monkeypatch.setattr(checks, "run_suite", lambda pairs, ids: [failed])
        got, out, _ = run_cli(capsys, "verify", "--catalog", catalog.shipped_path("order8.cat"))
        assert got == code and summary in out

    def test_kv_mode(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--kv", "--catalog",
                               catalog.shipped_path("order8.cat"),
                               "--checks", "bound")
        assert code == 0
        assert "check=bound group=[8,3] applicable=true passed=true" in out

    def test_label_repeated_across_files(self, capsys):
        path = catalog.shipped_path("order8.cat")
        code, out, err = run_cli(capsys, "verify", "--catalog", path, "--catalog", path,
                                 "--checks", "creg")
        assert code == 2 and out == "" and "duplicate label" in err

    def test_corrupt_catalog(self, capsys, tmp_path):
        bad = tmp_path / "bad.cat"
        bad.write_text("name: x\nkind: table\norder: 3\n0 1\n1 0\n")
        code, _, err = run_cli(capsys, "verify", "--catalog", str(bad))
        assert code == 2

    def test_non_integer_degree(self, capsys, tmp_path):
        bad = tmp_path / "bad.cat"
        bad.write_text("\nname: x\nkind: perm\norder: 2\ndegree: two\ngen: 1 0\n")
        code, out, err = run_cli(capsys, "verify", "--catalog", str(bad))
        assert code == 2 and out == ""
        assert err == "error: line 2: bad degree: 'two'\n"

    @pytest.mark.parametrize("order", [40320, 8])
    def test_permutation_group_over_table_budget(self, capsys, tmp_path, order):
        # S8: its declared order is refused before the closure starts, and a
        # wrong declared order lets the closure run until it passes the budget;
        # either way the error names the entry and rounds its MiB up
        path = write_s8(tmp_path, order)
        size = {40320: "order 40320 needs a 12404", 8: "order 5793 needs a 257"}[order]
        for argv in (["verify", "--catalog", path], ["analyze", f"{path}#S8"]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == ""
            assert err == f"error: S8: {size} MiB table, over the 256 MiB budget\n"

    def test_long_power_relator_over_table_budget(self, capsys, tmp_path):
        # 20000 cosets fit under the coset cap, and the table build stops at
        # the budget; each coset closes a^20000 by one walk around its loop
        path = tmp_path / "c8.cat"
        path.write_text("name: C8\nkind: presentation\norder: 8\npres: < a | a^20000 >\n")
        for argv in (["verify", "--catalog", str(path)], ["analyze", str(path)]):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, *argv)
            assert time.perf_counter() - start < 5
            assert code == 2 and out == ""
            assert err == "error: C8: order 5793 needs a 257 MiB table, over the 256 MiB budget\n"

    def test_unknown_check_id(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--catalog",
                               catalog.shipped_path("order8.cat"),
                               "--checks", "nonsense")
        assert code == 2 and err == "error: unknown check id: 'nonsense'\n"

    def test_directory_as_catalog(self, capsys, tmp_path):
        for argv in (["verify", "--catalog", str(tmp_path)], ["analyze", str(tmp_path)]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_empty_check_selection(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--checks", ",", "--catalog",
                                 catalog.shipped_path("order8.cat"))
        assert code == 2 and err.startswith("error: ") and out == ""

    def test_catalog_without_entries(self, capsys, tmp_path):
        empty = tmp_path / "empty.cat"
        empty.write_text("# comments only\n")
        code, out, err = run_cli(capsys, "verify", "--catalog", str(empty))
        assert code == 2 and err.startswith("error: ") and out == ""


class TestGraph:
    def test_parts_json(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "dihedral:4", "--format", "parts-json")
        assert code == 0
        assert out.strip() == \
            '{"parts": [[0, 2], [1, 3], [4, 6], [5, 7]], "induced": false}'

    def test_induced_edge_list(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "quaternion:8", "--induced",
                               "--format", "edge-list")
        assert code == 0
        assert len(out.strip().splitlines()) == 12  # K_{2,2,2}

    def test_edgeless(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "cyclic:4", "--format", "edge-list")
        assert code == 0 and out == ""

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "graph", "M:16", "--format", "dot")
        _, out2, _ = run_cli(capsys, "graph", "M:16", "--format", "dot")
        assert out1 == out2

    def test_rows_are_written_as_they_are_made(self, monkeypatch):
        class Recorder(io.StringIO):
            def write(self, s):
                writes.append(s)
                return super().write(s)

        writes = []
        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(["graph", "dihedral:512"]) == 0
        assert len(writes) > 1
        for w in writes:  # one row: the edges of a single vertex
            assert len({line.split()[0] for line in w.splitlines()}) == 1, w[:80]
        expected = graph.export(graph.build_graph(families.dihedral(512)), "edge-list")
        assert "".join(writes) == expected

    def test_reader_closing_the_pipe_ends_quietly(self):
        proc = subprocess.Popen([sys.executable, "-m", "noncent.cli", "graph", "dihedral:512"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=child_env())
        assert proc.stdout.readline() == b"0 1\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_reader_gone_before_the_final_flush_ends_quietly(self):
        # the whole output fits stdout's buffer: only the flush meets the closed pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = subprocess.run([sys.executable, "-m", "noncent.cli", "graph", "dihedral:4"],
                              stdout=write_end, stderr=subprocess.PIPE, env=child_env())
        os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, b"")


class TestEnvCap:
    def test_coset_cap_respected(self, capsys, monkeypatch, tmp_path):
        cat = tmp_path / "one.cat"
        cat.write_text("name: C9\nkind: presentation\norder: 9\npres: < a | a^9 >\n")
        monkeypatch.setenv("NONCENT_MAX_COSETS", "3")
        code, _, err = run_cli(capsys, "analyze", str(cat))
        assert code == 2
        assert "coset" in err


def child_env():
    """os.environ for a child that imports the same noncent as this process,
    also when pytest put src/ on sys.path itself (pythonpath in pyproject.toml)."""
    src = str(Path(noncent.__file__).parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_console_script_end_to_end():
    proc = subprocess.run([sys.executable, "-m", "noncent.cli", "analyze",
                           "--kv", "dihedral:4"], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0
    assert "regular_degree=6" in proc.stdout
