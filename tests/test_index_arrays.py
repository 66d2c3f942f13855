"""The theorem suite's two cached index arrays, against oracles that read
only the class ids or the table: FiniteGroup.beta_class_members(), the stable
argsort of the beta class ids with each class's start offset, and
FiniteGroup.center_coset_least(), the least member of every element's center
coset.  The suite reads these in place of the class tuples and the center
subgroup, so it gives the same results with those made to raise, and so
does the Table 1 search, whose reducedness test reads the center's ids."""

import numpy as np
import pytest

from noncent import catalog, checks, core, families
from noncent.core import FiniteGroup, direct_product, from_permutations, from_table
from test_acceptance import _family_instances, _with_cyclic_products
from test_check_passes import with_classes
from test_fast_paths import relabeled


def classes_of(ids):
    """The members of each class id 0..max, ascending, one compare per id."""
    return [np.flatnonzero(ids == c).tolist() for c in range(int(ids.max()) + 1)]


def center_cosets(g):
    """Each coset xZ as a frozenset, Z read as the all-True rows of the
    commuting matrix."""
    z = np.flatnonzero(g.commuting_matrix().all(axis=1))
    return {frozenset(g.table[x, z].tolist()) for x in range(g.order)}


def abelian_groups():
    c = families.cyclic
    return [("C1", c(1)), ("C12", c(12)), ("E8", families.elementary_abelian(2, 3)),
            ("C4xC6", direct_product(c(4), c(6))), ("E27xC5", direct_product(
                families.elementary_abelian(3, 3), c(5)))]


def centerless_groups():
    """S4, S6 and D6: |Z| = 1, so every center coset is one element."""
    return [("S4", from_permutations(4, [(1, 2, 3, 0), (1, 0, 2, 3)])),
            ("S6", from_permutations(6, [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)])),
            ("D6", families.dihedral(3))]


def shuffled_ids(g, rng):
    """with_classes: g with its classes' ids injected in a seeded order that
    keeps the center at 0 and numbers the rest not by their least members.
    The injected class tuples are dropped, so beta_classes() is split again
    from the members of the injected ids."""
    classes = classes_of(g.beta_class_ids())
    rest = classes[1:]
    order = rng.permutation(len(rest))
    if len(rest) > 1 and (order == np.arange(len(rest))).all():
        order = order[::-1]
    h = with_classes(g, [classes[0], *(rest[i] for i in order)])
    del h._cache["beta_classes"]
    return h


@pytest.fixture(scope="module")
def shipped(order8_entries, order16_entries, order32_entries, order64_entries):
    return [(e.label, e.group()) for entries in (order8_entries, order16_entries,
                                                 order32_entries, order64_entries)
            for e in entries]


@pytest.fixture(scope="module")
def array_corpus(shipped):
    """The shipped catalogs, a seeded relabeled copy of each, the acceptance-5
    families with their products with C2..C5, abelian and centerless groups,
    and non-abelian groups whose class ids are injected out of order."""
    rng = np.random.default_rng(33)
    copies = [(label + "~r", from_table(relabeled(g, rng))) for label, g in shipped]
    corpus = (shipped + copies + _with_cyclic_products(_family_instances())
              + abelian_groups() + centerless_groups())
    injected = [(label + "~ids", shuffled_ids(g, rng)) for label, g in corpus[::7]
                if len(g.beta_class_sizes()) > 2]
    return corpus + injected


def test_corpus_covers_out_of_order_ids(array_corpus):
    injected = [g for label, g in array_corpus if label.endswith("~ids")]
    assert len(injected) > 20
    out_of_order = 0
    for g in injected:
        members, start = g.beta_class_members()
        least = members[start]
        out_of_order += bool((np.diff(least) < 0).any())
    assert out_of_order == len(injected)


def test_class_members_equal_the_classes_of_the_ids(array_corpus):
    for label, g in array_corpus:
        expected = classes_of(g.beta_class_ids())
        members, start = g.beta_class_members()
        sizes = g.beta_class_sizes().tolist()
        assert start.tolist() == np.cumsum([0] + sizes[:-1]).tolist(), label
        assert [members[s:s + k].tolist() for s, k in zip(start, sizes)] == expected, label
        assert members[start].tolist() == [c[0] for c in expected], label
        assert g.beta_classes() == tuple(map(tuple, expected)), label
        for size in set(sizes):  # one slice-gather per class size
            same = [c for c, k in enumerate(sizes) if k == size]
            block = members[start[same][:, None] + np.arange(size)]
            assert block.tolist() == [expected[c] for c in same], label


def test_center_coset_least_partitions_as_the_center_cosets(array_corpus):
    for label, g in array_corpus:
        least = g.center_coset_least()
        cosets = g.center().cosets()
        assert np.unique(least).size == len(cosets), label
        for coset in cosets:
            assert (least[list(coset)] == coset[0]).all(), label
        assert {frozenset(np.flatnonzero(least == v).tolist())
                for v in np.unique(least).tolist()} == center_cosets(g), label


def test_abelian_groups_form_no_center_coset_array():
    for label, g in abelian_groups():
        h = FiniteGroup(g.table, g.labels)
        checks.run_suite([(label, h)])
        h.commutator_subgroup()
        assert "center_coset_least" not in h._cache, label
    g = families.dihedral(4)
    checks.run_check("ereg1", g)  # D8, Z = {0, 2}: ereg1 reads the array
    assert g._cache["center_coset_least"].tolist() == [0, 1, 0, 1, 4, 5, 4, 5]


def test_suite_reads_no_class_tuples_and_no_center_subgroup(monkeypatch, shipped):
    pairs = shipped + _family_instances()

    def fresh():
        return [(label, FiniteGroup(g.table, g.labels)) for label, g in pairs]

    def table1():  # fresh entries, so every group is built and searched again
        return catalog.table1_search(e for name in catalog.SHIPPED
                                     for e in catalog.load(catalog.shipped_path(name)))

    expected, expected_rows = checks.run_suite(fresh()), table1()

    def refuse(*args):
        raise AssertionError("a check read the class tuples, the center subgroup or a split")

    for owner, name in ((FiniteGroup, "beta_classes"), (FiniteGroup, "center"),
                        (core, "_split_by_id")):
        monkeypatch.setattr(owner, name, refuse)
    assert checks.run_suite(fresh()) == expected
    assert table1() == expected_rows
