"""Acceptance criteria, one test per criterion.

Each test prints a PASS line so `pytest -s tests/test_acceptance.py` doubles
as the acceptance report.  Tolerances are exact; runtime budgets follow the
stated limits.
"""

import time

import pytest

from noncent import analysis, catalog, checks, core, families, graph
from noncent.analysis import is_induced_regular, is_reduced_regular, is_regular
from noncent.catalog import label_sort_key
from noncent.cli import resolve_source
from noncent.core import direct_product, is_isomorphic
from oracles import (brute_force_abelian_factor, edges, frattini_by_maximal_subgroups,
                     oracle_graph)

TABLE1_ROWS = {
    6: ["[8,3]", "[8,4]"],
    12: ["[16,3]", "[16,4]", "[16,6]", "[16,13]"],
    24: ["[32,2]", "[32,4]", "[32,5]", "[32,12]", "[32,17]", "[32,24]", "[32,38]"],
    30: ["[32,49]", "[32,50]"],
    48: ["[64,3]", "[64,17]", "[64,27]", "[64,29]", "[64,44]", "[64,51]",
         "[64,57]", "[64,86]", "[64,112]", "[64,185]"],
    56: [f"[64,{i}]" for i in range(73, 83)],
    60: (["[64,199]", "[64,200]", "[64,201]"]
         + [f"[64,{i}]" for i in range(226, 241)] + ["[64,249]", "[64,266]"]),
}


@pytest.fixture(scope="module")
def small_order_groups(order8_entries):
    """Every group of order <= 13 expressible via catalogs plus families."""
    groups = [(e.label, e.group()) for e in order8_entries]
    for n in range(1, 14):
        groups.append((f"C{n}", families.cyclic(n)))
    for m in range(2, 7):
        groups.append((f"D{2 * m}", families.dihedral(m)))
    groups += [
        ("C2xC2", families.elementary_abelian(2, 2)),
        ("C2xC2xC2", families.elementary_abelian(2, 3)),
        ("C3xC3", families.elementary_abelian(3, 2)),
        ("C2xC4", direct_product(families.cyclic(2), families.cyclic(4))),
        ("C2xC6", direct_product(families.cyclic(2), families.cyclic(6))),
        ("C3xC4", direct_product(families.cyclic(3), families.cyclic(4))),
        ("Q8", families.generalized_quaternion(8)),
    ]
    return [(l, g) for l, g in groups if g.order <= 13]


def test_criterion_1_d8_q8_characterization(small_order_groups):
    start = time.time()
    _, d8 = resolve_source("dihedral:4")
    _, q8 = resolve_source("quaternion:8")
    assert analysis.build_report(d8, "D8").regular_degree == 6
    assert analysis.build_report(q8, "Q8").regular_degree == 6
    six_regular = [(label, g) for label, g in small_order_groups
                   if not g.is_abelian and is_regular(g) == 6]
    # the corpus lists D8 and Q8 under both catalog and family names; nothing
    # else of order <= 13 may be 6-regular
    catalog_hits = sorted(l for l, _ in six_regular if l.startswith("["))
    assert catalog_hits == ["[8,3]", "[8,4]"]
    for label, g in six_regular:
        assert is_isomorphic(g, d8) or is_isomorphic(g, q8), label
    assert not any(is_regular(g) == 6 for label, g in small_order_groups
                   if g.is_abelian)
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: 6-regular groups at order <= 13 are exactly "
          f"D8 and Q8 ({elapsed:.2f}s)")


def test_criterion_2_modular_degree_formula():
    start = time.time()
    for k in range(3, 7):
        g = families.modular_M(2 ** k)
        assert is_regular(g) == 3 * 2 ** (k - 2), k
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 PASS: M(2^k) is 3*2^(k-2)-regular for k=3..6 "
          f"({elapsed:.2f}s)")


def test_criterion_3_table1_small_orders(order8_entries, order16_entries,
                                         order32_entries):
    start = time.time()
    entries = list(order8_entries) + list(order16_entries) + list(order32_entries)
    rows = dict(catalog.table1_search(entries))
    assert set(rows) == {6, 12, 24, 30}
    for n in (6, 12, 24, 30):
        expected = sorted(TABLE1_ROWS[n], key=label_sort_key)
        assert rows[n] == expected, f"row {n}"
    assert [len(rows[n]) for n in (6, 12, 24, 30)] == [2, 4, 7, 2]
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 3 PASS: table rows n=6,12,24,30 reproduced exactly "
          f"({elapsed:.2f}s)")


def test_criterion_4_table1_order64(order64_entries):
    start = time.time()
    rows = dict(catalog.table1_search(order64_entries))
    assert set(rows) == {48, 56, 60}
    for n in (48, 56, 60):
        expected = sorted(TABLE1_ROWS[n], key=label_sort_key)
        assert rows[n] == expected, f"row {n}"
    assert [len(rows[n]) for n in (48, 56, 60)] == [10, 10, 20]
    # every listed group individually verified reduced regular
    listed = {label for n in (48, 56, 60) for label in TABLE1_ROWS[n]}
    for e in order64_entries:
        if e.label in listed:
            g = e.group()
            assert is_regular(g) is not None and is_reduced_regular(g), e.label
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 4 PASS: order-64 rows n=48 (10), n=56 (10), n=60 (20) "
          f"reproduced and verified reduced regular ({elapsed:.2f}s)")


def _family_instances():
    pairs = []
    for m in range(2, 17):
        pairs.append((f"D{2 * m}", families.dihedral(m)))
    for n in (8, 16, 32):
        pairs.append((f"Q{n}", families.generalized_quaternion(n)))
    for k in range(3, 7):
        pairs.append((f"M{2 ** k}", families.modular_M(2 ** k)))
    for p in (3, 5):
        pairs.append((f"H{p ** 3}", families.heisenberg(p)))
    return pairs


def _with_cyclic_products(pairs):
    out = list(pairs)
    for label, g in pairs:
        for m in range(2, 6):
            out.append((f"{label}xC{m}", direct_product(g, families.cyclic(m))))
    return out


NON_CONJECTURE_CHECKS = [cid for cid in checks.CHECK_IDS
                         if cid not in checks.CONJECTURE_IDS]


def test_criterion_5_theorem_suite_green(order8_entries, order16_entries,
                                         order32_entries, order64_entries):
    start = time.time()
    pairs = [(e.label, e.group()) for e in
             list(order8_entries) + list(order16_entries)
             + list(order32_entries) + list(order64_entries)]
    pairs += _with_cyclic_products(_family_instances())
    results = checks.run_suite(pairs, NON_CONJECTURE_CHECKS)
    failures = [r for r in results if r.applicable and not r.passed]
    assert failures == [], [
        (r.check_id, r.group_label, r.witness) for r in failures]
    applicable = sum(1 for r in results if r.applicable)
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 5 PASS: theorem suite green over {len(pairs)} groups, "
          f"{applicable} applicable results, 0 failures ({elapsed:.2f}s)")


def test_criterion_6_no_prime_power_regular(order8_entries, order16_entries,
                                            order32_entries, order64_entries,
                                            small_order_groups):
    start = time.time()
    entries = (list(order8_entries) + list(order16_entries)
               + list(order32_entries) + list(order64_entries))
    for e in entries:
        g = e.group()
        if g.is_abelian:
            continue
        deg = is_regular(g)
        if deg is not None:
            assert core.is_prime_power(deg) is None, e.label
    # 10-regular impossibility: the degree bound forces 12 <= |G| <= 13 and
    # 8 | |G|, which no order satisfies
    assert [n for n in (12, 13) if n % 8 == 0] == []
    candidates = [(l, g) for l, g in small_order_groups if g.order in (11, 12, 13)]
    assert candidates
    for label, g in candidates:
        assert is_regular(g) != 10, label
    elapsed = time.time() - start
    print(f"\nACCEPTANCE 6 PASS: no prime-power-regular group in shipped "
          f"catalogs; 10-regular impossibility confirmed ({elapsed:.2f}s)")


def test_criterion_7_negative_controls(order32_entries):
    start = time.time()
    c2cubed = families.elementary_abelian(2, 3)
    by_label = {e.label: e for e in order32_entries}
    for i in range(27, 36):
        g = by_label[f"[32,{i}]"].group()
        quo = g.quotient(g.center())
        assert is_isomorphic(quo, c2cubed), f"[32,{i}]"
        assert is_regular(g) is None, f"[32,{i}]"
    elapsed = time.time() - start
    print(f"\nACCEPTANCE 7 PASS: [32,27]..[32,35] all have G/Z = C2^3 and "
          f"none is regular ({elapsed:.2f}s)")


FAMILY_PRESENTATION_LABELS = {
    "[8,1]": lambda: families.cyclic(8),
    "[8,3]": lambda: families.dihedral(4),
    "[8,4]": lambda: families.generalized_quaternion(8),
    "[16,1]": lambda: families.cyclic(16),
    "[16,6]": lambda: families.modular_M(16),
    "[16,7]": lambda: families.dihedral(8),
    "[16,9]": lambda: families.generalized_quaternion(16),
    "[32,1]": lambda: families.cyclic(32),
    "[32,17]": lambda: families.modular_M(32),
    "[32,18]": lambda: families.dihedral(16),
    "[32,20]": lambda: families.generalized_quaternion(32),
    "[64,51]": lambda: families.modular_M(64),
}


def test_criterion_8_oracle_equivalences(order8_entries, order16_entries,
                                         order32_entries, order64_entries):
    start = time.time()
    all_entries = (list(order8_entries) + list(order16_entries)
                   + list(order32_entries) + list(order64_entries))

    # graph builder against the quadratic oracle, full and induced
    for e in all_entries:
        g = e.group()
        if g.order > 64:
            continue
        for induced in (False, True):
            assert set(edges(graph.build_graph(g, induced=induced))) == \
                oracle_graph(g, induced=induced), (e.label, induced)

    # reduced-regularity against brute-force decomposition (order <= 32)
    reduced_checked = 0
    for e in all_entries:
        g = e.group()
        if g.order > 32 or g.is_abelian or g.is_p_group() != 2:
            continue
        if is_regular(g) is None:
            continue
        assert is_reduced_regular(g) == (brute_force_abelian_factor(g) is None), e.label
        reduced_checked += 1
    assert reduced_checked >= 25

    # coset enumeration against the direct family constructions
    by_label = {e.label: e for e in all_entries}
    for label, ctor in FAMILY_PRESENTATION_LABELS.items():
        entry = by_label[label]
        assert entry.kind == "presentation"
        assert is_isomorphic(entry.group(), ctor()), label

    # Frattini: squares-and-commutators against maximal-subgroup intersection
    frattini_corpus = [e.group() for e in list(order8_entries) + list(order16_entries)]
    frattini_corpus += [by_label[l].group() for l in
                        ("[32,17]", "[32,27]", "[32,49]", "[32,51]",
                         "[64,51]", "[64,73]", "D8xC8")]
    for g in frattini_corpus:
        assert g.frattini().members == frattini_by_maximal_subgroups(g).members
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 8 PASS: graph, reduced, enumeration, and Frattini "
          f"oracles agree ({elapsed:.2f}s)")


def test_criterion_9_heisenberg(order8_entries):
    start = time.time()
    for p in (3, 5):
        g = families.heisenberg(p)
        classes = analysis.beta_partition(g)
        z = g.center().size
        assert z == p
        assert set(map(len, classes[1:])) == {(p - 1) * z}, p
        assert is_induced_regular(g) == (g.order - z) - (p - 1) * z
        assert len(classes) == p + 2
    elapsed = time.time() - start
    print(f"\nACCEPTANCE 9 PASS: heisenberg(3), heisenberg(5) induced regular "
          f"with class size (p-1)|Z| and |Cent| = p+2 ({elapsed:.2f}s)")
