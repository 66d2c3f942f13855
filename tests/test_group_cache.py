"""The centralizer structure is computed once per group and cached on it
without a reference back to the group, as read-only arrays, tuples and bools."""

import gc
import weakref

import numpy as np
import pytest

from noncent import analysis, checks, core, families, graph
from noncent.core import from_table


def test_beta_classes_keyed_once_per_group(monkeypatch):
    keyed = []
    row_classes = core.row_classes

    def counting(m):
        keyed.append(m)
        return row_classes(m)

    monkeypatch.setattr(core, "row_classes", counting)
    g = families.dihedral(8)  # regular non-abelian 2-group: build_report runs is_reduced_regular
    perm = np.concatenate([[0], 1 + np.random.default_rng(5).permutation(g.order - 1)])
    relabeled = np.empty_like(g.table)
    relabeled[np.ix_(perm, perm)] = perm[g.table]
    h = from_table(relabeled)
    analysis.beta_partition(g)
    analysis.beta_partition(g)
    analysis.is_regular(g)
    analysis.is_induced_regular(g)
    analysis.build_report(g, "D16")
    core.fingerprint(g)
    analysis.maximal_centralizers(g)
    maximal = g.maximal_class_ids()
    for check in (checks.check_lg, checks.check_lg1, checks.check_lg2):
        check(g, "D16")
    assert g.maximal_class_ids() is maximal
    assert core.is_isomorphic(g, h)
    assert len(keyed) == 2
    assert {id(m) for m in keyed} == {id(g.commuting_matrix()), id(h.commuting_matrix())}


def test_cached_structure_holds_no_reference_cycle():
    gc.disable()
    try:
        g = families.dihedral(6)
        table = weakref.ref(g.table)
        analysis.beta_partition(g)
        analysis.build_report(g, "D12")
        checks.run_suite([("D12", g)])
        graph.build_graph(g)
        analysis.maximal_centralizers(g)
        g.maximal_class_ids()
        core.fingerprint(g)
        # D12/Z = S3
        assert checks._center_histogram(g) == ((1, 1), (2, 3), (3, 2))
        del g
        assert table() is None
    finally:
        gc.enable()


def test_cache_holds_read_only_arrays_and_no_group():
    for g in (families.dihedral(6), families.heisenberg(3),
              core.direct_product(families.generalized_quaternion(8), families.cyclic(3))):
        checks.run_suite([("G", g)])
        analysis.build_report(g, "G")
        core.fingerprint(g)
        assert {"inverses", "beta_class_sizes", "center_coset_orders", "conjugacy_classes",
                "fingerprint"} <= set(g._cache)
        for key, value in g._cache.items():
            assert not isinstance(value, core.FiniteGroup), key
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, key


def test_cached_values_cannot_be_changed_in_place():
    g = families.dihedral(6)
    with pytest.raises(ValueError):
        g.inverses()[1] = 0
    with pytest.raises(ValueError):
        g.center_coset_orders()[1] = 5
    sizes = g.beta_class_sizes()
    with pytest.raises(ValueError):
        sizes[0] = 1
    assert g.beta_class_sizes() is sizes and sizes.tolist() == [2, 4, 2, 2, 2]
    classes = g.conjugacy_classes()
    assert isinstance(classes, tuple) and all(isinstance(c, tuple) for c in classes)
    assert g.conjugacy_classes() is classes
