"""The centralizer structure and the theorem suite's per-group quantities
are computed once per group and cached on it without a reference back to the
group, as read-only arrays, tuples, ints, bools and None."""

import gc
import inspect
import weakref

import numpy as np
import pytest

from noncent import analysis, checks, core, families, graph
from noncent.core import from_table
from test_acceptance import _family_instances, _with_cyclic_products


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


def leaves(value):
    """value itself, or every item of a tuple value, at any depth."""
    if isinstance(value, tuple):
        for item in value:
            yield from leaves(item)
    else:
        yield value


def test_cache_holds_read_only_arrays_and_no_group():
    suite = {"is_regular", "is_induced_regular", "_quotient_exponent"}
    induced_suite = suite | {"_centralizer_rows", "_center_histogram"}
    for g, entries in (
            (families.dihedral(6), suite),  # D12 is not induced regular
            (families.heisenberg(3), induced_suite | {("_p_part_decomposition", 3)}),
            (core.direct_product(families.generalized_quaternion(8), families.cyclic(3)),
             induced_suite | {("_p_part_decomposition", 2)})):  # asked by big and big1
        checks.run_suite([("G", g)])
        assert entries <= set(g._cache)
        analysis.build_report(g, "G")
        core.fingerprint(g)
        assert core.is_isomorphic(g, g)
        assert {"inverses", "beta_class_sizes", "center_coset_orders", "conjugacy_classes",
                "fingerprint", "_key_classes"} <= set(g._cache)
        for key, value in g._cache.items():
            for leaf in leaves(value):
                assert not isinstance(leaf, core.FiniteGroup), key
                if isinstance(leaf, np.ndarray):
                    assert not leaf.flags.writeable, key


def cache_keys():
    """The cache key name of every _cached function in core, analysis and
    checks, FiniteGroup's methods and properties included, each function
    once: they all run the code of _cached's wrapper."""
    wrapper = core._cached(lambda g: None).__code__
    keys = {}
    for owner in (core, analysis, checks, core.FiniteGroup):
        for value in vars(owner).values():
            fn = value.fget if isinstance(value, property) else value
            if getattr(fn, "__code__", None) is wrapper:
                keys[fn] = inspect.getclosurevars(fn).nonlocals["name"]
    return list(keys.values())


def test_cache_keys_are_distinct():
    keys = cache_keys()
    assert len(set(keys)) == len(keys), sorted(keys)
    assert {"fingerprint", "_key_classes", "is_abelian", "maximal_class_ids", "is_regular",
            "is_induced_regular", "_quotient_exponent", "_p_part_decomposition",
            "_exceeds_beta_z"} <= set(keys)


def test_verdicts_do_not_depend_on_cache_state_or_check_order(
        order8_entries, order16_entries, order32_entries, order64_entries):
    entries = [*order8_entries, *order16_entries, *order32_entries, *order64_entries]
    pairs = [(e.label, e.group()) for e in entries]
    pairs += _with_cyclic_products(_family_instances())

    def fresh():
        return [(label, core.FiniteGroup(g.table, g.labels)) for label, g in pairs]

    ids = list(checks.CHECK_IDS)
    warmed = fresh()
    in_order = checks.run_suite(warmed, ids)
    assert all("is_regular" in g._cache for _, g in warmed)
    assert checks.run_suite(fresh(), ids[::-1]) == in_order
    assert checks.run_suite(warmed, ids) == in_order
    assert len(in_order) == len(pairs) * len(ids)


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
