import os
import subprocess
import sys
from pathlib import Path

import pytest

import noncent
from noncent import catalog
from noncent.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_unresolvable_source(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "no-such-family:4")
        assert code == 2 and "error" in err

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

    def test_unknown_check_id(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--catalog",
                               catalog.shipped_path("order8.cat"),
                               "--checks", "nonsense")
        assert code == 2

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


class TestEnvCap:
    def test_coset_cap_respected(self, capsys, monkeypatch, tmp_path):
        cat = tmp_path / "one.cat"
        cat.write_text("name: C9\nkind: presentation\norder: 9\npres: < a | a^9 >\n")
        monkeypatch.setenv("NONCENT_MAX_COSETS", "3")
        code, _, err = run_cli(capsys, "analyze", str(cat))
        assert code == 2
        assert "coset" in err


def test_console_script_end_to_end():
    # the child imports the same noncent as this process, also when pytest
    # put src/ on sys.path itself (pythonpath in pyproject.toml)
    src = str(Path(noncent.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "noncent.cli", "analyze",
                           "--kv", "dihedral:4"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "regular_degree=6" in proc.stdout
