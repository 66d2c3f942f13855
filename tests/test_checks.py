import dataclasses
import inspect

import pytest

from noncent import checks, core, families
from noncent.checks import CHECK_IDS, CheckResult, run_check, run_suite
from noncent.core import direct_product
from noncent.presentation import enumerate_presentation, parse


def c4xc4_semidirect_c2():
    """(C4 x C4) : C2 with inverting action: G/Z = C2^3 but not regular."""
    return enumerate_presentation(parse(
        "< a,b,c | a^4, b^4, a*b = b*a, c^2, c*a*c = a^-1, c*b*c = b^-1 >"))


class TestBasics:
    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_check("nope", families.dihedral(4))

    def test_pass_has_empty_witness(self):
        r = run_check("be0", families.dihedral(4), "D8")
        assert r.applicable and r.passed and r.witness == ()

    def test_not_applicable_reason(self):
        r = run_check("be0", families.cyclic(4), "C4")
        assert not r.applicable and r.passed and r.reason == "abelian"

    def test_check_result_is_a_plain_record(self):
        fields = dataclasses.fields(CheckResult)
        assert [f.name for f in fields] == ["check_id", "group_label", "applicable", "passed",
                                            "witness", "details", "reason"]
        assert [f.default for f in fields[4:] if f.name != "details"] == [(), ""]
        assert fields[5].default_factory is dict
        r = CheckResult("be0", "D8", True, True)
        assert r == CheckResult("be0", "D8", True, True, (), {}, "")
        assert r.details == {} and r.details is not CheckResult("be0", "D8", True, True).details
        failed = dataclasses.replace(r, passed=False, witness=(("cent_count", 3),))
        assert (r.passed, r.witness) == (True, ())
        assert failed == CheckResult("be0", "D8", True, False, (("cent_count", 3),))
        for name, other in (("check_id", "be"), ("group_label", "Q8"), ("applicable", False),
                            ("details", {"p": 2}), ("reason", "abelian")):
            assert dataclasses.replace(r, **{name: other}) != r, name
        assert repr(failed) == ("CheckResult(check_id='be0', group_label='D8', applicable=True, "
                                "passed=False, witness=(('cent_count', 3),), details={}, "
                                "reason='')")
        with pytest.raises(TypeError):
            hash(r)

    def test_all_check_ids_runnable(self):
        for label, g in (("D8", families.dihedral(4)), ("C4", families.cyclic(4))):
            for cid, fn in CHECK_IDS.items():
                r = run_check(cid, g, label)
                assert (r.check_id, r.group_label) == (cid, label)
                assert fn.__name__ in (f"check_{cid}", f"scan_conjecture_{cid}")
                assert str(inspect.signature(fn)) == "(g, label='G')"
                direct = getattr(checks, fn.__name__)
                assert direct is fn and direct(g, label) == r


class TestSpecificResults:
    def test_creg_d8(self):
        assert run_check("creg", families.dihedral(4)).passed

    def test_ccreg_c2c2_m16(self):
        r = run_check("ccreg_c2c2", families.modular_M(16))
        assert r.applicable and r.passed

    def test_be_h125(self):
        r = run_check("be", families.heisenberg(5))
        assert r.applicable and r.details["expected"] == 7

    def test_ba_d16_second_branch(self):
        r = run_check("ba", families.dihedral(8))
        assert r.applicable and r.passed
        assert r.details["expected"] == 6  # p^2 + 2 with p = 2

    def test_ba_first_branch(self, order64_entries):
        by_label = {e.label: e for e in order64_entries}
        g = by_label["[64,73]"].group()
        r = run_check("ba", g)
        assert r.applicable and r.passed
        assert r.details["expected"] == 8  # p^2 + p + 2: all indices 4

    def test_bound_d8(self):
        r = run_check("bound", families.dihedral(4))
        assert r.passed and r.details == {"degree": 6, "order": 8}

    def test_big_decomposition(self):
        g = direct_product(families.dihedral(4), families.cyclic(3))
        r = run_check("big", g)
        assert r.passed
        assert r.details["sylow2_order"] == 8
        assert r.details["abelian_order"] == 3

    def test_big_confirms_split_above_order_128(self):
        g = direct_product(families.dihedral(4), families.cyclic(17))
        r = run_check("big", g)
        assert g.order == 136 and r.passed
        assert r.details == {"sylow2_order": 8, "abelian_order": 17, "sylow2_degree": 6}

    def test_big1_odd_product(self):
        g = direct_product(families.heisenberg(3), families.cyclic(5))
        r = run_check("big1", g)
        assert r.passed
        assert r.details["p"] == 3
        assert r.details["p_part_order"] == 27
        assert r.details["abelian_order"] == 5

    def test_ncen_d8(self):
        assert run_check("ncen", families.dihedral(4)).passed

    def test_preg_degrees_not_prime_powers(self):
        for g in (families.dihedral(4), families.modular_M(32)):
            assert run_check("preg", g).passed


class TestBiconditionalSides:
    """Each biconditional check must be exercised with both truth values."""

    def test_ereg_true_side(self):
        for cid in ("ereg1", "ereg2"):
            r = run_check(cid, families.dihedral(4))
            assert r.applicable and r.passed and r.details.get("regular", True)

    def test_ereg_false_side(self):
        for cid in ("ereg1", "ereg2"):
            r = run_check(cid, families.dihedral(8))
            assert r.applicable and r.passed

    def test_ccreg_c2cubed_false_false(self):
        g = c4xc4_semidirect_c2()
        r = run_check("ccreg_c2cubed", g)
        assert r.applicable and r.passed
        assert not r.details["regular"]
        assert r.details["indices"] != (4,)

    def test_ccreg_c2cubed_true_true(self, order64_entries):
        by_label = {e.label: e for e in order64_entries}
        r = run_check("ccreg_c2cubed", by_label["[64,75]"].group())
        assert r.applicable and r.passed
        assert r.details["regular"] and r.details["indices"] == (4,)


class TestInducedChecks:
    def test_lg_corpus(self, small_corpus):
        for label, g in small_corpus:
            if not g.is_abelian:
                assert run_check("lg", g, label).passed, label

    def test_lg1_applicable_on_extraspecial(self, order32_entries):
        by_label = {e.label: e for e in order32_entries}
        r = run_check("lg1", by_label["[32,49]"].group())
        assert r.applicable and r.passed and r.details["witnesses"]

    def test_lg1_vacuous_on_d8(self):
        r = run_check("lg1", families.dihedral(4))
        assert not r.applicable

    def test_lg2_vacuous_on_2_groups(self):
        r = run_check("lg2", families.generalized_quaternion(8))
        assert not r.applicable

    def test_mg_heisenberg(self):
        r = run_check("mg", families.heisenberg(3))
        assert r.passed and r.details["p"] == 3

    def test_pq_index_heisenberg(self):
        r = run_check("pq_index", families.heisenberg(5))
        assert r.applicable and r.passed
        assert r.details["expected_class_size"] == 20

    def test_cmg_vacuous_on_heisenberg(self):
        # every centralizer equals beta u Z there
        assert not run_check("cmg", families.heisenberg(3)).applicable

    def test_pp_heisenberg(self):
        r = run_check("pp", families.heisenberg(3))
        assert r.applicable and r.passed


class TestConjectureScans:
    def test_tconj_degrees(self, small_corpus):
        for label, g in small_corpus:
            r = run_check("tconj", g, label)
            assert r.passed, label

    def test_lco_status_reported(self):
        r = run_check("lco", families.heisenberg(3))
        assert r.applicable and r.passed
        assert r.details["status"] == "consistent"
        assert r.details["elementary_p"] == 3


class TestRunSuite:
    def test_sorted_output(self):
        pairs = [("Q8", families.generalized_quaternion(8)),
                 ("D8", families.dihedral(4)),
                 ("C2", families.cyclic(2))]
        res = run_suite(pairs, ["be0", "lg"])
        keys = [(r.group_label, r.check_id) for r in res]
        assert keys == [("C2", "be0"), ("C2", "lg"),
                        ("D8", "be0"), ("D8", "lg"),
                        ("Q8", "be0"), ("Q8", "lg")]

    def test_repeated_ids_run_once_in_first_order(self, monkeypatch):
        ran = []
        monkeypatch.setitem(CHECK_IDS, "lg", lambda g, label: ran.append("lg") or
                            CheckResult("lg", label, False, False))
        monkeypatch.setitem(CHECK_IDS, "be0", lambda g, label: ran.append("be0") or
                            CheckResult("be0", label, False, False))
        res = run_suite([("D8", families.dihedral(4))], ["lg", "be0", "lg", "be0"])
        assert ran == ["lg", "be0"]
        assert [r.check_id for r in res] == ["be0", "lg"]

    def test_shared_label_sorts_each_result_by_its_own_group_order(self, monkeypatch):
        for cid in ("be0", "bound"):
            monkeypatch.setitem(CHECK_IDS, cid, lambda g, label, cid=cid:
                                CheckResult(cid, label, True, True, reason=f"order {g.order}"))
        res = run_suite([("G", families.dihedral(4)), ("G", families.cyclic(3))],
                        ["be0", "bound"])
        assert [(r.reason, r.check_id) for r in res] == [
            ("order 3", "be0"), ("order 3", "bound"), ("order 8", "be0"), ("order 8", "bound")]

    def test_unknown_check_rejected(self):
        with pytest.raises(KeyError):
            run_suite([("D8", families.dihedral(4))], ["be0", "bogus"])

    def test_failures_skip_passes_inapplicable_and_conjectures(self):
        res = [CheckResult("be0", "A", True, True), CheckResult("be0", "B", False, False),
               CheckResult("tconj", "C", True, False), CheckResult("lg", "D", True, False)]
        assert checks.failures(res) == [res[3]]
        summary = "4 results, 3 applicable, 1 failures\n   witness lg on D"
        assert summary in checks.format_results(res)

    def test_format_contains_summary(self):
        res = run_suite([("D8", families.dihedral(4))], ["be0"])
        out = checks.format_results(res)
        assert "0 failures" in out
        kv = checks.results_to_kv(res)
        assert "check=be0 group=D8 applicable=true passed=true" in kv
