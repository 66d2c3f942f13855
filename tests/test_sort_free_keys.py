"""Keys numbered without a sort, each checked against its defining formula:
coset ids against Python sets of cosets numbered by their least member,
histograms against collections.Counter, ereg1's witness against the cosets
its classes meet, and run_suite's output order against a stable sort of its
evaluation-order results."""

import inspect
import random
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from noncent import analysis, catalog, checks, core, families
from noncent.core import from_permutations, from_table
from test_acceptance import _family_instances
from test_check_passes import extraspecial_3_1_4, with_classes
from test_fast_paths import action_table, relabeled

S4 = ((1, 2, 3, 0), (1, 0, 2, 3))
S6 = ((1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5))


@pytest.fixture(scope="module")
def shipped():
    return [(e.label, e.group()) for name in catalog.SHIPPED
            for e in catalog.load(catalog.shipped_path(name))]


@pytest.fixture(scope="module")
def key_corpus(shipped):
    """The shipped catalogs, a seeded relabeled copy of each, S4, S6 and 3^{1+4}."""
    rng = np.random.default_rng(31)
    copies = [(label + "~r", from_table(relabeled(g, rng))) for label, g in shipped]
    return shipped + copies + [("S4", from_permutations(4, S4)),
                               ("S6", from_permutations(6, S6)),
                               ("3^(1+4)", extraspecial_3_1_4())]


def numbered_by_least_member(blocks, n):
    """Id of every element 0..n-1 when the blocks (sets partitioning them)
    are numbered in order of their least members."""
    ids = [None] * n
    for i, block in enumerate(sorted(blocks, key=min)):
        for x in block:
            ids[x] = i
    return ids


def left_cosets(g, members):
    return {frozenset(int(g.table[x, h]) for h in members) for x in range(g.order)}


def test_dense_ids_number_distinct_keys_ascending():
    keys = np.array([7, 3, 3, 9, 0, 7, 9])
    ids = core._dense_ids(keys, 10)
    assert ids.tolist() == [2, 1, 1, 3, 0, 2, 3] and ids.dtype == np.intp


def test_coset_ids_match_sets_of_cosets(key_corpus):
    not_normal = 0
    for label, g in key_corpus:
        cyclic = g.generated_subgroup([g.generators()[-1]])
        not_normal += not g.is_normal(cyclic)
        for sub in (g.center(), g.commutator_subgroup(), cyclic):
            idx = sub.coset_index()
            expected = numbered_by_least_member(left_cosets(g, sub.members), g.order)
            assert idx.dtype == np.intp and idx.tolist() == expected, (label, sub.size)
    assert not_normal > 100  # left cosets that are not right cosets too


def order_modulo(g, x, inside):
    """Least k >= 1 with x^k in the set inside, by repeated multiplication."""
    k, y = 1, x
    while y not in inside:
        y, k = int(g.table[y, x]), k + 1
    return k


def test_order_histogram_matches_counter(key_corpus):
    for label, g in key_corpus:
        expected = sorted(Counter(order_modulo(g, x, {0}) for x in range(g.order)).items())
        hist = g.order_histogram()
        assert hist == tuple(expected), label
        assert all(type(v) is int for pair in hist for v in pair), label


def test_quotient_histogram_counts_cosets(key_corpus):
    for label, g in key_corpus:
        for sub in (g.center(), g.commutator_subgroup()):
            inside = set(sub.members)
            reps = [min(c) for c in left_cosets(g, sub.members)]
            expected = sorted(Counter(order_modulo(g, r, inside) for r in reps).items())
            hist = checks._quotient_histogram(g.orders_modulo(sub.mask), sub.size)
            assert hist == tuple(expected), (label, sub.size)
            assert all(type(v) is int for pair in hist for v in pair), label
        assert checks._center_histogram(g) == checks._quotient_histogram(
            g.orders_modulo(g.center().mask), g.center().size), label


# --- ereg1 ------------------------------------------------------------------------

def test_ereg1_witness_is_least_class_meeting_two_cosets(shipped):
    rng = random.Random(31)
    tried = 0
    for label, g in shipped:
        classes = [list(c) for c in g.beta_classes()]
        if g.is_abelian or len(classes) < 4 or analysis.is_regular(g) is None:
            continue
        # in a regular group every class is one center coset: swap a member
        # of class i with one of class j, sizes kept, and i and j each meet
        # two cosets while no other class does
        i, j = sorted(rng.sample(range(1, len(classes)), 2))
        a, b = rng.choice(classes[i]), rng.choice(classes[j])
        classes[i][classes[i].index(a)], classes[j][classes[j].index(b)] = b, a
        h = with_classes(g, classes)
        coset_of = {x: frozenset(int(g.table[x, z]) for z in classes[0]) for x in range(g.order)}
        meets_two = [c for c, members in enumerate(classes)
                     if len({coset_of[x] for x in members}) > 1]
        result = checks.check_ereg1(h, label)
        assert meets_two == [i, j], label
        assert analysis.is_regular(h) is not None and not result.passed, label
        assert dict(result.witness)["first_non_coset_class"] == i, label
        assert dict(result.witness)["all_classes_are_cosets"] is False, label
        tried += 1
    assert tried > 50


# --- run_suite's order ------------------------------------------------------------

def test_run_suite_evaluates_in_input_order_and_sorts_stably(monkeypatch):
    d8, q8, d16 = families.dihedral(4), families.generalized_quaternion(8), families.dihedral(8)
    groups = [("X", d8), ("Y", d16), ("X", q8), ("A", families.cyclic(8)), ("Y", q8),
              ("X", families.elementary_abelian(2, 3)), ("B", d16), ("A", families.heisenberg(3))]
    random.Random(31).shuffle(groups)
    ids = ["lg", "be0", "lg", "ereg1", "creg", "be0", "ba"]
    log = []

    def logged(cid, fn):
        def run(g, label="G"):
            result = fn(g, label)
            log.append((g, label, cid, g.order, result))
            return result
        return run

    for cid in set(ids):
        monkeypatch.setitem(checks.CHECK_IDS, cid, logged(cid, checks.CHECK_IDS[cid]))
    out = checks.run_suite(iter(groups), ids)

    unique_ids = list(dict.fromkeys(ids))
    assert [(g, label, cid) for g, label, cid, _, _ in log] == [
        (g, label, cid) for label, g in groups for cid in unique_ids]
    expected = sorted(log, key=lambda e: (e[3], e[1], e[2]))
    assert [id(r) for r in out] == [id(e[4]) for e in expected]
    assert len(out) == len(groups) * len(unique_ids)


# --- no sorts on a verify pass -----------------------------------------------------

def test_verify_pass_calls_unique_only_from_row_classes(monkeypatch, shipped):
    groups = [(label, from_table(np.asarray(g.table))) for label, g in shipped]
    groups += [(label, from_table(np.asarray(g.table))) for label, g in _family_instances()]
    c, d8 = families.cyclic, families.dihedral(4)
    groups += [("D8xC2", core.direct_product(d8, c(2))), ("D8xC3", core.direct_product(d8, c(3))),
               ("H27xC4", core.direct_product(families.heisenberg(3), c(4))),
               ("S4", from_permutations(4, S4)), ("3^(1+4)", extraspecial_3_1_4())]
    callers, unique = Counter(), np.unique

    def counting(*args, **kwargs):
        callers[sys._getframe(1).f_code.co_name] += 1
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    results = checks.run_suite(groups)
    assert len(results) == len(groups) * len(checks.CHECK_IDS)
    assert set(callers) == {"row_classes"}
    assert callers["row_classes"] <= len(groups)


def test_first_letter_that_is_not_a_permutation_is_named():
    rows = np.array(families.dihedral(4).table, dtype=np.int64)[:, 1:]
    rows[3, 2], rows[1, 5] = rows[5, 2], rows[2, 5]  # letters 2 and 5 break
    with pytest.raises(core.NotAGroup, match="letter 2 does not act as a permutation of 0..7"):
        action_table(rows)


# --- README's table of check ids ------------------------------------------------------

def readme_check_rows():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("## Verification suite", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        m = re.match(r"\| `(\w+)` \|(.*)\|\s*$", line)
        if m:
            cells = [c.strip().replace("\\|", "|") for c in re.split(r"(?<!\\)\|", m.group(2))]
            assert m.group(1) not in rows, m.group(1)
            rows[m.group(1)] = cells
    return rows


def test_readme_table_names_every_check_id_with_its_statement():
    rows = readme_check_rows()
    assert list(rows) == list(checks.CHECK_IDS)
    for cid, (hypothesis, statement) in rows.items():
        first = " ".join(inspect.getdoc(checks.CHECK_IDS[cid]).split("\n\n")[0].split())
        assert hypothesis and statement == first, cid
