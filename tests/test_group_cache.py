"""The centralizer structure is computed once per group and cached on it
without a reference back to the group."""

import gc
import weakref

import numpy as np

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
        core.fingerprint(g)
        assert g.central_quotient()[0].order == 6
        del g
        assert table() is None
    finally:
        gc.enable()
