"""The whole-group passes of ncen, lg, lg1, lg2, cmg and the p-part split,
and big and big1, which read H's regularity from G's, cross-checked against
their earlier bodies (oracles.parent_*): the same CheckResult, field for
field, on valid groups, under forced hypotheses, and with cache entries
overwritten so that each failure branch fires."""

import dataclasses
import itertools
from collections import Counter, defaultdict

import numpy as np
import pytest

import oracles
from noncent import analysis, checks, core, families
from noncent.core import FiniteGroup, Subgroup, from_permutations, from_table
from test_acceptance import _family_instances, _with_cyclic_products
from test_fast_paths import relabeled


def paired(witness):
    """A parent split witness, ("p_elements_not_closed",) or ("sizes", |H|,
    |A|), as the (name, value) pairs that every check returns."""
    if witness == ("p_elements_not_closed",):
        return (("p_elements_closed", False),)
    if witness[:1] == ("sizes",):
        return (("sizes", witness[1:]),)
    return witness


def with_paired_witness(parent):
    def check(g, label="G"):
        result = parent(g, label)
        return dataclasses.replace(result, witness=paired(result.witness))
    return check


PARENT = {
    "ncen": oracles.parent_check_ncen,
    "lg": oracles.parent_check_lg,
    "lg1": oracles.parent_check_lg1,
    "lg2": oracles.parent_check_lg2,
    "cmg": oracles.parent_check_cmg,
    "big": with_paired_witness(oracles.parent_check_big),
    "big1": with_paired_witness(oracles.parent_check_big1),
}


def extraspecial_3_1_4():
    """3^{1+4} of exponent 3 (order 243): the triples (a, b, c), a and b in
    F3^2 and c in F3, with (a, b, c)(a', b', c') = (a + a', b + b',
    c + c' + a.b').  Its center is the c axis and G/Z = C3^4; every C(x) has
    index 3 and exceeds beta(x) u Z, so lg2 and cmg apply."""
    e = np.array(list(itertools.product(range(3), repeat=5)))  # (a1, a2, b1, b2, c)
    a, b, c = e[:, :2], e[:, 2:4], e[:, 4]
    prod = np.concatenate([(a[:, None] + a[None]) % 3, (b[:, None] + b[None]) % 3,
                           ((c[:, None] + c[None] + a @ b.T) % 3)[..., None]], axis=2)
    return from_table(prod @ 3 ** np.arange(4, -1, -1))


@pytest.fixture(scope="module")
def parity_corpus(split_corpus):
    """split_corpus and 3^{1+4}, a seeded relabeled copy of each of them, and
    the acceptance-5 family groups with their products with C2..C5."""
    rng = np.random.default_rng(18)
    base = split_corpus + [("3^(1+4)", extraspecial_3_1_4())]
    copies = [(label + "~r", from_table(relabeled(g, rng))) for label, g in base]
    return base + copies + _with_cyclic_products(_family_instances())


def affine_f9_q8():
    """F9 : Q8, Q8 in GL(2, 3) acting on the translations of F3^2 (order 72).
    Its translation subgroup N is normal and is C(t) for every translation
    t != 0, but G/N = Q8 is not abelian, so N does not contain G'."""
    def affine(m, t):
        images = [((m[0][0] * a + m[0][1] * b + t[0]) % 3, (m[1][0] * a + m[1][1] * b + t[1]) % 3)
                  for a in range(3) for b in range(3)]
        return tuple(3 * a + b for a, b in images)
    one = ((1, 0), (0, 1))
    return from_permutations(9, [affine(one, (1, 0)), affine(((0, 2), (1, 0)), (0, 0)),
                                 affine(((1, 1), (1, 2)), (0, 0))])


def with_cache(g, **entries):
    """A fresh copy of g, with an empty cache but for the given entries."""
    h = FiniteGroup(g.table, g.labels)
    h._cache.update(entries)
    return h


def with_classes(g, classes):
    """with_cache, with the beta classes overwritten: class ids in the order
    given, class 0 first."""
    ids = np.empty(g.order, dtype=np.int64)
    for cid, members in enumerate(classes):
        ids[list(members)] = cid
    return with_cache(g, beta_class_ids=ids,
                      beta_classes=tuple(tuple(sorted(c)) for c in classes))


def check_both(cid, g):
    """The check and its parent body on g; asserts they agree."""
    result = checks.CHECK_IDS[cid](g, "G")
    assert result == PARENT[cid](g, "G")
    return result


class TestParentParity:
    def test_valid_groups(self, parity_corpus):
        outcomes, applied = Counter(), defaultdict(set)
        for label, g in parity_corpus:
            for cid, parent in PARENT.items():
                result = checks.CHECK_IDS[cid](g, label)
                assert result == parent(g, label), (cid, label)
                outcomes[cid, result.applicable, result.passed] += 1
                if result.applicable:
                    applied[cid].add(label)
        assert not [key for key in outcomes if key[1] and not key[2]], outcomes
        for cid in ("ncen", "lg", "lg1", "big", "big1"):
            assert outcomes[cid, True, True] > 30, (cid, outcomes)
        for cid in ("lg2", "cmg"):
            assert applied[cid] == {"3^(1+4)", "3^(1+4)~r"}, (cid, applied[cid])

    def test_forced_hypotheses(self, parity_corpus, monkeypatch):
        # every non-abelian group passes the hypotheses, so classes fail too;
        # S4, A4, S3 x S3 and H27 x S3 have odd-prime coset-order witnesses
        monkeypatch.setattr(analysis, "is_regular", lambda g: g.order)
        monkeypatch.setattr(analysis, "is_induced_regular", lambda g: g.order)
        s3, h27 = families.dihedral(3), families.heisenberg(3)
        corpus = [(label, g) for label, g in parity_corpus if g.order <= 128] + [
            ("S4", from_permutations(4, [(1, 2, 3, 0), (1, 0, 2, 3)])),
            ("A4", from_permutations(4, [(1, 2, 0, 3), (0, 2, 3, 1)])),
            ("S3xS3", core.direct_product(s3, s3)), ("H27xS3", core.direct_product(h27, s3)),
            ("F9:Q8", affine_f9_q8())]
        witnesses = Counter()
        for label, g in corpus:
            for cid, parent in PARENT.items():
                result = checks.CHECK_IDS[cid](g, label)
                assert result == parent(g, label), (cid, label)
                if result.applicable and not result.passed:
                    witnesses[cid, list(dict(result.witness))[-1]] += 1  # (name, value) pairs
        for kind in ("normal", "quotient_abelian", "quotient_histogram"):
            assert witnesses["ncen", kind], witnesses
        assert witnesses["lg2", "hx_quotient_histogram"], witnesses
        for kind in ("p_elements_closed", "sizes"):
            assert witnesses["big", kind], witnesses

    def test_p_part_decomposition(self, parity_corpus):
        outcomes = Counter()
        for label, g in parity_corpus:
            for p in core._prime_factors(g.order):
                orders, witness = checks._p_part_decomposition(g, p)
                parent, parent_witness = oracles.parent_p_part_decomposition(g, p)
                assert witness == paired(parent_witness), (label, p)
                assert orders == (parent and (parent[0].size, parent[1].size)), (label, p)
                outcomes[tuple(dict(witness))] += 1
        assert set(outcomes) == {(), ("p_elements_closed",), ("sizes",)}, outcomes


class TestFaultInjection:
    """Cache entries overwritten so that each failure branch fires; the
    witness is the parent body's."""

    def test_ncen_normal(self):
        s3 = families.dihedral(3)
        reflection = int(np.flatnonzero(s3.element_orders() == 2)[0])
        # singleton classes make S3 look regular
        g = with_classes(s3, [(0,), (reflection,)]
                         + [(x,) for x in range(1, 6) if x != reflection])
        assert check_both("ncen", g).witness == (("class", 1), ("normal", False))

    def test_ncen_quotient_abelian(self):
        f9q8 = affine_f9_q8()
        assert f9q8.order == 72
        translation = 1  # the first letter, x -> x + (1, 0)
        g = with_classes(f9q8, [(0,), (translation,)]
                         + [(x,) for x in range(1, 72) if x != translation])
        assert check_both("ncen", g).witness == (("class", 1), ("quotient_abelian", False))

    def test_ncen_quotient_histogram(self):
        s3 = families.dihedral(3)
        rotation = int(np.flatnonzero(s3.element_orders() == 3)[0])
        g = with_classes(s3, [(0,), (rotation,)] + [(x,) for x in range(1, 6) if x != rotation])
        assert check_both("ncen", g).witness == (
            ("class", 1), ("quotient_histogram", ((1, 1), (2, 1))))

    def test_lg_closure(self):
        d8 = families.dihedral(4)
        classes = list(d8.beta_classes())
        # a merged pair of classes is still a union of center cosets
        g = with_classes(d8, [classes[0], classes[1] + classes[2], *classes[3:]])
        result = check_both("lg", g)
        assert not result.passed and result.witness[0] == ("class", 1)
        assert "not closed under product" in dict(result.witness)["error"]

    def test_lg2_closure(self, monkeypatch):
        monkeypatch.setattr(analysis, "is_induced_regular", lambda g: g.order)
        s3xs3 = core.direct_product(families.dihedral(3), families.dihedral(3))
        classes = list(s3xs3.beta_classes())
        g = with_classes(s3xs3, [classes[0], classes[1] + classes[2], *classes[3:]])
        result = check_both("lg2", g)
        assert not result.passed and result.witness[0] == ("class", 1)
        assert "not closed under product" in dict(result.witness)["error"]

    def test_lg1_no_witness(self, order32_entries):
        e32 = {e.label: e for e in order32_entries}["[32,49]"].group()
        ids = e32.beta_class_ids()
        g = with_cache(e32, center_coset_orders=np.where(ids == 0, 1, 4))  # no prime orders
        result = check_both("lg1", g)
        assert not result.passed and [kind for kind, _ in result.witness] == ["class"]

    def test_regularity_verdict_flipped(self, parity_corpus, monkeypatch):
        # ereg1, ereg2 and ccreg_c2cubed decide their right-hand sides without
        # is_regular: flipped, every applicable result fails, and its witness
        # still reads the true verdict
        truth = {label: analysis.is_regular(g) is not None for label, g in parity_corpus}
        is_regular = analysis.is_regular
        monkeypatch.setattr(analysis, "is_regular",
                            lambda g: None if is_regular(g) is not None else g.order)
        rhs = {"ereg1": lambda w: w["all_classes_are_cosets"],
               "ereg2": lambda w: w["cent_count"] == w["index"],
               "ccreg_c2cubed": lambda w: w["indices"] == (4,)}
        failed = Counter()
        for label, g in parity_corpus:
            for cid, read in rhs.items():
                result = checks.CHECK_IDS[cid](g, label)
                if result.applicable:
                    witness = dict(result.witness)
                    assert not result.passed and witness["regular"] != truth[label], (cid, label)
                    assert read(witness) == truth[label], (cid, label)
                    failed[cid, truth[label]] += 1
        assert all(failed[cid, flag] for cid in rhs for flag in (True, False)), failed

    def test_p_elements_not_closed(self):
        d8xc3 = core.direct_product(families.dihedral(4), families.cyclic(3))
        orders = d8xc3.element_orders().copy()
        x = int(np.flatnonzero(orders == 12)[0])  # (r, c), not central
        orders[x] = 4
        g = with_cache(d8xc3, element_orders=orders)
        parent_split, parent_witness = oracles.parent_p_part_decomposition(g, 2)
        assert parent_split is None and parent_witness == ("p_elements_not_closed",)
        assert checks._p_part_decomposition(g, 2) == (None, paired(parent_witness))
        assert dict(checks.check_big(g).witness) == {"p_elements_closed": False}


def test_suite_builds_no_subgroup_and_no_orders_modulo(monkeypatch, order8_entries,
                                                      order16_entries, order32_entries,
                                                      order64_entries):
    entries = [*order8_entries, *order16_entries, *order32_entries, *order64_entries]
    groups = [(e.label, e.group()) for e in entries]
    expected = checks.run_suite(groups)  # fills the caches the checks read

    def refuse(*args):
        raise AssertionError("a check built a subgroup or group or read orders modulo C(x)")

    for owner, name in ((FiniteGroup, "subgroup"), (FiniteGroup, "generated_subgroup"),
                        (FiniteGroup, "orders_modulo"), (analysis, "h_subgroup"),
                        (Subgroup, "as_group")):
        monkeypatch.setattr(owner, name, refuse)
    assert checks.run_suite(groups) == expected
