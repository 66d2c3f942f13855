import textwrap

import pytest

from noncent import catalog, core, families
from noncent.catalog import (DuplicateLabel, FormatError, OrderMismatch,
                             label_sort_key, load, table1_search)
from noncent.core import fingerprint


def write(tmp_path, text, name="test.cat"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(p)


class TestLoad:
    def test_single_table_entry(self, tmp_path):
        path = write(tmp_path, """\
            # a comment
            name: C2
            kind: table
            order: 2
            0 1
            1 0
        """)
        entries = load(path)
        assert len(entries) == 1
        assert entries[0].label == "C2"
        assert entries[0].group().order == 2

    def test_perm_entry(self, tmp_path):
        path = write(tmp_path, """\
            name: D8
            kind: perm
            order: 8
            degree: 4
            gen: 1 2 3 0
            gen: 2 1 0 3
        """)
        g = load(path)[0].group()
        assert core.is_isomorphic(g, families.dihedral(4))

    def test_presentation_entry(self, tmp_path):
        path = write(tmp_path, """\
            name: Q8
            kind: presentation
            order: 8
            pres: < a,b | a^4, a^2 = b^2, b*a*b^-1 = a^-1 >
        """)
        g = load(path)[0].group()
        assert core.is_isomorphic(g, families.generalized_quaternion(8))

    def test_comment_does_not_split_entries(self, tmp_path):
        path = write(tmp_path, """\
            name: C2
            # interior comment
            kind: table
            order: 2
            0 1
            1 0
        """)
        assert len(load(path)) == 1

    def test_duplicate_label(self, tmp_path):
        path = write(tmp_path, """\
            name: X
            kind: table
            order: 1
            0

            name: X
            kind: table
            order: 1
            0
        """)
        with pytest.raises(DuplicateLabel):
            load(path)

    def test_duplicate_label_across_files(self, tmp_path):
        entry = """\
            name: X
            kind: table
            order: 1
            0
        """
        first, second = write(tmp_path, entry, "a.cat"), write(tmp_path, "\n" + entry, "b.cat")
        with pytest.raises(DuplicateLabel) as exc:
            catalog.load_many([first, second])
        assert f"{second}:2" in str(exc.value) and f"{first}:1" in str(exc.value)

    def test_order_mismatch_table(self, tmp_path):
        path = write(tmp_path, """\
            name: bad
            kind: table
            order: 8
            0 1
            1 0
        """)
        with pytest.raises(OrderMismatch) as exc:
            load(path)
        assert exc.value.declared == 8

    def test_order_mismatch_presentation_lazy(self, tmp_path):
        path = write(tmp_path, """\
            name: bad
            kind: presentation
            order: 6
            pres: < a | a^5 >
        """)
        entries = load(path)  # lazy: parses fine
        with pytest.raises(OrderMismatch):
            entries[0].group()

    def test_declared_order_over_budget_builds_nothing(self, tmp_path, monkeypatch):
        # S8 (order 40320) by its Coxeter presentation on (1 2) and (1 2 ... 8)
        path = write(tmp_path, """\
            name: S8
            kind: presentation
            order: 40320
            pres: < a,b | a^2, b^8, (a*b)^7, (a*b^-1*a*b)^3, (a*b^-2*a*b^2)^2, (a*b^-3*a*b^3)^2, (a*b^-4*a*b^4)^2 >
        """)
        calls = []
        monkeypatch.setattr(catalog, "enumerate_presentation", lambda *a: calls.append(a))
        entry = load(path)[0]
        with pytest.raises(core.TooLarge, match="budget"):
            entry.group()
        assert calls == [] and entry._group is None

    def test_closure_over_budget_names_the_entry(self, tmp_path):
        # S8 declared with the wrong order: the closure stops past the budget
        path = write(tmp_path, """\
            name: S8
            kind: perm
            order: 8
            degree: 8
            gen: 1 2 3 4 5 6 7 0
            gen: 1 0 2 3 4 5 6 7
        """)
        entry = load(path)[0]
        with pytest.raises(core.TooLarge) as info:
            entry.group()
        assert str(info.value) == "S8: order 5793 needs a 257 MiB table, over the 256 MiB budget"
        assert entry._group is None

    def test_missing_header(self, tmp_path):
        path = write(tmp_path, """\
            kind: table
            order: 1
            0
        """)
        with pytest.raises(FormatError, match="name"):
            load(path)

    def test_unknown_kind(self, tmp_path):
        path = write(tmp_path, """\
            name: X
            kind: magma
            order: 1
            0
        """)
        with pytest.raises(FormatError, match="kind"):
            load(path)

    def test_bad_line(self, tmp_path):
        path = write(tmp_path, """\
            name: X
            kind: table
            order: 1
            zero
        """)
        with pytest.raises(FormatError):
            load(path)

    def test_perm_degree_mismatch(self, tmp_path):
        path = write(tmp_path, """\
            name: X
            kind: perm
            order: 2
            degree: 3
            gen: 1 0
        """)
        with pytest.raises(FormatError):
            load(path)


    def test_non_integer_degree(self, tmp_path):
        path = write(tmp_path, """\
            # perm entry with a bad degree
            name: X
            kind: perm
            order: 2
            degree: two
            gen: 1 0
        """)
        with pytest.raises(FormatError) as exc:
            load(path)
        assert exc.value.line == 2
        assert str(exc.value) == "line 2: bad degree: 'two'"


    def test_lines_break_at_newline_only(self, tmp_path):
        # open() turns "\r\n" and "\r" into "\n"; a form feed or "\x85" is
        # whitespace inside a line, not a line break
        path = write(tmp_path, "name: C2\nkind: table\norder: 2\n"
                               "# a comment\x0cwith a form feed\n0 1\n1 0\n")
        assert load(path)[0].group().order == 2
        path = write(tmp_path, "name: X\r\nkind: table\rorder: 1\x85\nzero\n")
        with pytest.raises(FormatError) as exc:
            load(path)
        assert str(exc.value) == "line 4: unrecognized line: 'zero'"

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        text = "name: C2\nkind: table\norder: 2\n0 1\n1 0\n"
        path = write(tmp_path, "\ufeff" + text)
        entries = load(path)
        assert [e.label for e in entries] == ["C2"]
        assert entries[0].group().order == 2
        # only a leading one: a byte-order mark further in is not part of a header
        path = write(tmp_path, text + "\n\ufeff" + text)
        with pytest.raises(FormatError) as exc:
            load(path)
        assert str(exc.value) == "line 7: unrecognized line: '\\ufeffname: C2'"


class TestFingerprint:
    def test_d8_vs_q8(self):
        assert fingerprint(families.dihedral(4)) != \
            fingerprint(families.generalized_quaternion(8))

    def test_same_group_different_construction(self, order8_entries):
        by_label = {e.label: e for e in order8_entries}
        assert fingerprint(by_label["[8,3]"].group()) == \
            fingerprint(families.dihedral(4))

    def test_c4_vs_klein(self):
        assert fingerprint(families.cyclic(4)) != \
            fingerprint(families.elementary_abelian(2, 2))


class TestShippedCatalogs:
    def test_counts(self, order8_entries, order16_entries, order32_entries,
                    order64_entries):
        assert len(order8_entries) == 5
        assert len(order16_entries) == 14
        assert len(order32_entries) == 51
        assert len(order64_entries) == 45

    def test_all_materialize_with_declared_order(self, order8_entries,
                                                 order16_entries,
                                                 order32_entries,
                                                 order64_entries):
        for entries in (order8_entries, order16_entries, order32_entries,
                        order64_entries):
            for e in entries:
                assert e.group().order == e.order

    def test_table1_order8(self, order8_entries):
        assert table1_search(order8_entries) == [(6, ["[8,3]", "[8,4]"])]

    def test_table1_order16(self, order16_entries):
        assert table1_search(order16_entries) == \
            [(12, ["[16,3]", "[16,4]", "[16,6]", "[16,13]"])]

    def test_controls_present(self, order64_entries):
        labels = {e.label for e in order64_entries}
        assert {"D8xC8", "M16xC4", "M32xC2", "Q8xC2xC2xC2", "ES32+xC2"} <= labels


class TestLabelSort:
    def test_numeric_bracket_order(self):
        labels = ["[32,12]", "[32,4]", "[8,3]", "D8xC8"]
        assert sorted(labels, key=label_sort_key) == \
            ["[8,3]", "[32,4]", "[32,12]", "D8xC8"]
