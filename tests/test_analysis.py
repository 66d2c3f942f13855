from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from noncent import analysis, catalog, core, families
from noncent.analysis import (AbelianGroup, NotMaximal,
                              beta_partition, build_report, h_subgroup,
                              is_induced_regular, is_reduced_regular,
                              is_regular, maximal_centralizers)
from noncent.core import TooLarge, direct_product
from oracles import brute_force_abelian_factor
from test_acceptance import _family_instances, _with_cyclic_products
from test_fast_paths import relabeled

class TestBetaPartition:
    def test_abelian_single_class(self):
        classes = beta_partition(families.cyclic(6))
        assert classes == (tuple(range(6)),)

    def test_d8_classes(self):
        classes = beta_partition(families.dihedral(4))
        assert classes == ((0, 2), (1, 3), (4, 6), (5, 7))

    def test_s3_sizes(self):
        classes = beta_partition(families.dihedral(3))
        assert sorted(map(len, classes)) == [1, 1, 1, 1, 2]

    def test_partition_invariants(self, small_corpus):
        for label, g in small_corpus:
            classes = beta_partition(g)
            seen = [x for c in classes for x in c]
            assert sorted(seen) == list(range(g.order)), label
            # class 0 is the center
            assert classes[0] == g.center().members, label
            # membership matches centralizer equality
            for cid, members in enumerate(classes):
                c0 = set(g.centralizer(members[0]).members)
                for x in members:
                    assert set(g.centralizer(x).members) == c0, label
            assert [g.beta_class_ids()[x] for c in classes for x in c] == \
                [cid for cid, c in enumerate(classes) for _ in c], label

    def test_classes_are_unions_of_center_cosets(self, small_corpus):
        for label, g in small_corpus:
            z = g.center()
            cosets = set(z.cosets())
            for members in beta_partition(g):
                mset = set(members)
                covering = [c for c in cosets if set(c) <= mset]
                assert sum(len(c) for c in covering) == len(members), label

    def test_center_size_divides_class_sizes(self, small_corpus):
        for label, g in small_corpus:
            z = g.center().size
            for s in map(len, beta_partition(g)):
                assert s % z == 0, label


class TestCentCount:
    def test_abelian(self):
        assert len(families.cyclic(8).beta_classes()) == 1

    def test_q8(self):
        assert len(families.generalized_quaternion(8).beta_classes()) == 4

    def test_h125(self):
        assert len(families.heisenberg(5).beta_classes()) == 7

    def test_at_most_index(self, small_corpus):
        for label, g in small_corpus:
            assert len(g.beta_classes()) <= g.order // g.center().size, label


class TestRegular:
    def test_d8(self):
        assert is_regular(families.dihedral(4)) == 6

    def test_m32(self):
        assert is_regular(families.modular_M(32)) == 24

    def test_s3_not_regular(self):
        assert is_regular(families.dihedral(3)) is None

    def test_abelian_degenerate(self):
        assert is_regular(families.cyclic(12)) == 0

    def test_equivalent_to_cent_count_condition(self, small_corpus):
        for label, g in small_corpus:
            if g.is_abelian:
                continue
            lhs = is_regular(g) is not None
            rhs = len(g.beta_classes()) == g.order // g.center().size
            assert lhs == rhs, label


class TestInducedRegular:
    def test_d8(self):
        assert is_induced_regular(families.dihedral(4)) == 4

    def test_heisenberg(self):
        g = families.heisenberg(3)
        assert is_induced_regular(g) == 18  # 24 non-central, class size 6

    def test_regular_implies_induced(self, small_corpus):
        for label, g in small_corpus:
            if not g.is_abelian and is_regular(g) is not None:
                assert is_induced_regular(g) is not None, label

    def test_d16_not_induced_regular(self):
        assert is_induced_regular(families.dihedral(8)) is None

    def test_abelian_vacuous(self):
        assert is_induced_regular(families.cyclic(4)) == 0


class TestMaximalCentralizers:
    def test_d8_all_maximal(self):
        assert len(maximal_centralizers(families.dihedral(4))) == 3

    def test_s3_all_maximal(self):
        assert len(maximal_centralizers(families.dihedral(3))) == 4

    def test_q8_abelian_centralizer(self):
        g = families.generalized_quaternion(8)
        for cid, cent in maximal_centralizers(g):
            assert cent.size == 4
            assert cent.as_group().is_abelian

    def test_d16_rotation_dominates(self):
        # C(r) has order 16/2... the rotation centralizer <r> strictly
        # contains no reflection centralizer, so all remain incomparable
        # except reflections inside <r>? reflections centralize only
        # {e, r^4, s, r^4 s}, not inside <r>; so maximal count = 5
        g = families.dihedral(8)
        assert len(maximal_centralizers(g)) == 5

    def test_abelian_raises(self):
        with pytest.raises(AbelianGroup):
            maximal_centralizers(families.cyclic(4))


class TestHSubgroup:
    def test_d8_rotation_class(self):
        g = families.dihedral(4)
        cid = g.beta_class_ids()[1]  # class of r
        assert h_subgroup(g, cid).members == (0, 1, 2, 3)

    def test_q8(self):
        g = families.generalized_quaternion(8)
        cid = g.beta_class_ids()[1]
        assert h_subgroup(g, cid).members == (0, 1, 2, 3)

    def test_s3_three_cycle(self):
        g = families.dihedral(3)
        cid = g.beta_class_ids()[1]  # rotation of order 3
        assert h_subgroup(g, cid).size == 3

    def test_not_maximal(self):
        g = families.dihedral(4)
        with pytest.raises(NotMaximal):
            h_subgroup(g, 0)

    def test_holds_on_corpus(self, small_corpus):
        for label, g in small_corpus:
            if g.is_abelian:
                continue
            classes = beta_partition(g)
            for cid, _ in maximal_centralizers(g):
                sub = h_subgroup(g, cid)
                zsize = g.center().size
                assert sub.size == len(classes[cid]) + zsize, label


class TestReducedRegular:
    def test_d8_q8_reduced(self):
        assert is_reduced_regular(families.dihedral(4))
        assert is_reduced_regular(families.generalized_quaternion(8))

    def test_product_with_c2_not_reduced(self):
        g = direct_product(families.dihedral(4), families.cyclic(2))
        assert not is_reduced_regular(g)

    def test_product_with_c4_not_reduced(self):
        # the hard case: no central involution splits off, but C4 does
        g = direct_product(families.dihedral(4), families.cyclic(4))
        assert not is_reduced_regular(g)

    def test_central_product_d8_c8_reduced(self, d8_central_product_c8):
        g = d8_central_product_c8
        assert is_regular(g) == 24
        assert is_reduced_regular(g)

    def test_rejects_non_regular(self):
        # off its domain the test has no verdict
        assert is_reduced_regular(families.dihedral(8)) is None

    def test_rejects_abelian_and_odd(self):
        assert is_reduced_regular(families.cyclic(8)) is None
        assert is_reduced_regular(families.heisenberg(3)) is None


class TestBruteForceFactor:
    def test_d8_none(self):
        assert brute_force_abelian_factor(families.dihedral(4)) is None

    def test_d8xc2_found(self):
        g = direct_product(families.dihedral(4), families.cyclic(2))
        found = brute_force_abelian_factor(g)
        assert found is not None
        h, a = found
        assert a.size == 2 and h.size == 8
        assert set(a.members) <= set(g.center().members)
        assert len(set(h.members) & set(a.members)) == 1

    def test_d8xc4_found(self):
        g = direct_product(families.dihedral(4), families.cyclic(4))
        found = brute_force_abelian_factor(g)
        assert found is not None
        h, a = found
        assert h.size * a.size == 32

    def test_elementary_abelian_decomposes(self):
        assert brute_force_abelian_factor(families.elementary_abelian(2, 3)) is not None

    def test_too_large(self):
        with pytest.raises(TooLarge):
            brute_force_abelian_factor(families.cyclic(128))

    def test_agrees_with_reduced_test(self, small_corpus):
        for label, g in small_corpus:
            if g.is_abelian or g.is_p_group() != 2 or is_regular(g) is None:
                continue
            assert is_reduced_regular(g) == (brute_force_abelian_factor(g) is None), label


class TestReport:
    def test_d8_kv_golden(self):
        rep = build_report(families.dihedral(4), "D8")
        assert rep.to_kv() == "\n".join([
            "label=D8",
            "order=8",
            "center_size=2",
            "cent_count=4",
            "index=4",
            "degree_sequence=6,6,6,6,6,6,6,6",
            "regular=true",
            "regular_degree=6",
            "induced_regular=true",
            "induced_degree=4",
            "reduced=true",
            "class_sizes=2,2,2,2",
        ])

    def test_s3_text(self):
        text = build_report(families.dihedral(3), "S3").to_text()
        assert "regular:          no" in text
        assert "reduced:          -" in text
        assert "degree sequence:  [4x2, 5x4]" in text

    def test_invariants(self, small_corpus):
        for label, g in small_corpus:
            rep = build_report(g, label)
            classes = beta_partition(g)
            assert rep.cent_count == len(classes), label
            degs = [g.order - len(classes[g.beta_class_ids()[x]])
                    for x in range(g.order)]
            assert rep.degree_sequence == tuple(sorted(degs)), label


class TestParentParity:
    """The regularity verdicts read from beta_class_sizes(), and
    is_reduced_regular with its domain test, against their earlier bodies
    (oracles.parent_*)."""

    @pytest.fixture(scope="class")
    def corpus(self, order8_entries, order16_entries, order32_entries, order64_entries,
               split_corpus):
        """The shipped catalogs, split_corpus and the acceptance-5 groups,
        with a seeded relabeled copy of each."""
        entries = [*order8_entries, *order16_entries, *order32_entries, *order64_entries]
        base = ([(e.label, e.group()) for e in entries] + split_corpus
                + _with_cyclic_products(_family_instances()))
        rng = np.random.default_rng(22)
        return base + [(label + "~r", core.from_table(relabeled(g, rng))) for label, g in base]

    def test_degrees_and_reduced_verdicts(self, corpus):
        outcomes = set()
        for label, g in corpus:
            assert is_regular(g) == oracles.parent_is_regular(g), label
            assert is_induced_regular(g) == oracles.parent_is_induced_regular(g), label
            try:
                expected = oracles.parent_is_reduced_regular(g)
            except oracles.NotRegular2Group:
                expected = None
            assert is_reduced_regular(g) is expected, label
            outcomes.add((is_regular(g) is None, expected))
        # regular and not, reduced and not, and off the domain
        assert outcomes >= {(True, None), (False, None), (False, True), (False, False)}

    def test_table1_search(self, corpus, order8_entries, order16_entries, order32_entries,
                           order64_entries):
        shipped = [*order8_entries, *order16_entries, *order32_entries, *order64_entries]
        assert catalog.table1_search(shipped) == oracles.parent_table1_search(shipped)
        entries = [SimpleNamespace(label=label, group=lambda g=g: g) for label, g in corpus]
        rows = catalog.table1_search(entries)
        assert rows == oracles.parent_table1_search(entries)
        assert [n for n, _ in rows] == [6, 12, 24, 30, 48, 56, 60]
