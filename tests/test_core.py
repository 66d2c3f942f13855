import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from noncent import core, families, presentation
from noncent.core import (TRIVIAL, NotAGroup, NotNormal,
                          TooLarge, all_subgroups,
                          direct_product, from_permutations, from_table,
                          is_isomorphic)
import oracles
from oracles import frattini_by_maximal_subgroups, is_elementary_p, power


# smallest non-associative loop: (1*1)*2 = 2 but 1*(1*2) = 4
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 3, 4, 0, 1],
         [3, 4, 1, 2, 0],
         [4, 2, 0, 1, 3]]


def brute_closure(degree, gens):
    """Independent permutation-closure oracle (set fixpoint, no BFS order)."""
    elems = {tuple(range(degree))}
    changed = True
    while changed:
        changed = False
        for a, b in itertools.product(list(elems), list(elems) + [tuple(g) for g in gens]):
            c = tuple(a[b[i]] for i in range(degree))
            if c not in elems:
                elems.add(c)
                changed = True
    return elems


class TestFromTable:
    def test_trivial_group(self):
        g = from_table([[0]])
        assert g.order == 1

    def test_c2(self):
        g = from_table([[0, 1], [1, 0]])
        assert g.order == 2
        assert g.element_orders()[1] == 2

    def test_row_not_permutation(self):
        with pytest.raises(NotAGroup, match="row 1"):
            from_table([[0, 1], [1, 1]])

    def test_not_square(self):
        with pytest.raises(NotAGroup):
            from_table([[0, 1]])

    def test_out_of_range(self):
        with pytest.raises(NotAGroup):
            from_table([[0, 2], [2, 0]])

    @pytest.mark.parametrize("big", [2 ** 31, 2 ** 32 + 1])
    def test_entries_past_int32_do_not_wrap(self, big):
        # narrowed to int32, 2**31 would read -2**31 and 2**32 + 1 would read
        # 1, which makes this C2
        rows = [[0, 1], [big, 0]]
        for table in (rows, np.array(rows, dtype=np.int64)):
            with pytest.raises(NotAGroup, match="^table entries out of range$"):
                from_table(table)

    def test_negative_int32_entry(self):
        with pytest.raises(NotAGroup, match="^table entries out of range$"):
            from_table(np.array([[0, 1], [1, -1]], dtype=np.int32))

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_caller_array_stays_its_own(self, dtype):
        c4 = families.cyclic(4).table
        rows = np.array(c4, dtype=dtype)
        g = from_table(rows)
        assert rows.flags.writeable
        rows[:] = 0
        assert (g.table == c4).all()
        assert g.table.dtype == np.int32 and not g.table.flags.writeable

    def test_no_identity(self):
        # Latin square whose only identity-like row fails on the column side
        with pytest.raises(NotAGroup, match="identity"):
            from_table([[0, 1, 2], [2, 0, 1], [1, 2, 0]])

    def test_identity_relocated(self):
        # C3 with the identity moved to index 2 via the relabeling 0<->2
        c3 = families.cyclic(3).table
        perm = [2, 1, 0]
        shuffled = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                shuffled[perm[i]][perm[j]] = perm[c3[i, j]]
        g = from_table(shuffled)
        assert (g.table[0] == np.arange(3)).all()
        assert is_isomorphic(g, families.cyclic(3))

    def test_associativity_failure(self):
        with pytest.raises(NotAGroup, match="associativity"):
            from_table(LOOP5)

    def test_relocation_matches_out_of_place_relabeling(self):
        # the identity moved to a random index e, in tables that are accepted
        # or rejected: the table, labels or message of the parent's relabeling
        rng = np.random.default_rng(21)
        s4 = from_permutations(4, [(1, 2, 3, 0), (1, 0, 2, 3)])
        loop = np.array(LOOP5)
        kinds = Counter()
        for t0 in [g.table for g in (families.dihedral(4), families.generalized_quaternion(16),
                                     families.heisenberg(3), families.cyclic(12), s4)] + [loop]:
            n = len(t0)
            for _ in range(4):
                e = int(rng.integers(1, n - 1))
                table = np.empty((n, n), dtype=np.int64)
                perm = np.concatenate([[e], rng.permutation(np.delete(np.arange(n), e))])
                table[np.ix_(perm, perm)] = perm[t0]
                c1, c2 = rng.choice(np.delete(np.arange(n), e), size=2, replace=False)
                one, swapped, two_rows = table.copy(), table.copy(), table.copy()
                one[c1, c2] = (one[c1, c2] + 1) % n             # row c1 repeats an entry
                swapped[e - 1, [c1, c2]] = table[e - 1, [c2, c1]]  # columns c1 and c2 do
                two_rows[[0, -1], c1] = (table[[0, -1], c1] + 1) % n
                for case in (table, one, swapped, two_rows):
                    labels = [f"x{i}" for i in range(n)]
                    try:
                        want = oracles.parent_adopt_table(case.astype(np.int32), labels)
                    except NotAGroup as exc:
                        with pytest.raises(NotAGroup) as got:
                            from_table(case, labels)
                        assert str(got.value) == str(exc), (n, e)
                        kinds[str(exc).split()[0]] += 1
                    else:
                        g = from_table(case, labels)
                        assert (g.table == want.table).all() and g.labels == want.labels, (n, e)
                        kinds["accepted"] += 1
        assert set(kinds) == {"accepted", "row", "column", "associativity"}, kinds

    def test_validation_peak_memory(self):
        # the int32 copy and Light's test's blocked scratch, but no n x n
        # boolean beside them and no relabeled copy when the identity moves
        c = families.cyclic(1024)
        moved = np.empty((1024, 1024), dtype=np.int64)
        perm = np.arange(1024)
        perm[[0, 5]] = perm[[5, 0]]
        moved[np.ix_(perm, perm)] = perm[c.table]
        for name, table in (("identity at 0", c.table), ("identity at 5", moved)):
            tracemalloc.start()
            try:
                g = from_table(table)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (g.table == c.table).all(), name
            assert peak < c.table.nbytes * 5 // 4, (name, peak)
        fresh = families.cyclic(1024)
        tracemalloc.start()
        try:
            inv = fresh.inverses()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (inv == -np.arange(1024) % 1024).all()
        assert peak < c.table.nbytes // 8, peak


class TestFromPermutations:
    def test_dihedral_from_generators(self):
        g = from_permutations(4, [(1, 2, 3, 0), (2, 1, 0, 3)])
        assert g.order == 8
        assert is_isomorphic(g, families.dihedral(4))

    def test_cyclic(self):
        g = from_permutations(3, [(1, 2, 0)])
        assert g.order == 3

    def test_s3_closure(self):
        gens = [(1, 0, 2), (1, 2, 0)]
        g = from_permutations(3, gens)
        assert g.order == len(brute_closure(3, gens)) == 6

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            from_permutations(3, [(0, 0, 1)])

    def test_closure_cap(self):
        # the table budget is the only size limit: S8 (order 40320) passes
        # order 5792 during the closure and raises there
        with pytest.raises(TooLarge, match="budget"):
            from_permutations(8, [(1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7)])

    def test_deterministic(self):
        a = from_permutations(4, [(1, 2, 3, 0), (2, 1, 0, 3)])
        b = from_permutations(4, [(1, 2, 3, 0), (2, 1, 0, 3)])
        assert (a.table == b.table).all()
        assert a.labels == b.labels


class TestElementOrder:
    def test_identity(self):
        assert families.dihedral(4).element_orders()[0] == 1

    def test_d8_rotation(self):
        assert families.dihedral(4).element_orders()[1] == 4

    def test_elementary_abelian(self):
        g = families.elementary_abelian(2, 3)
        assert (g.element_orders()[1:] == 2).all()

    def test_divides_group_order(self, small_corpus):
        for label, g in small_corpus:
            if g.order > 128:
                continue
            orders = g.element_orders()
            assert all(g.order % int(o) == 0 for o in orders), label

    def test_power_matches_repeated_products(self, small_corpus):
        # the oracle that test_fast_paths seeds Frattini subgroups with
        for label, g in small_corpus:
            for x in range(g.order):
                acc, inv = 0, int(g.inverses()[x])
                for k in range(0, -8, -1):  # x^0 .. x^-7
                    assert power(g, x, k) == acc, (label, x, k)
                    acc = int(g.table[acc, inv])
                acc = 0
                for k in range(41):
                    assert power(g, x, k) == acc, (label, x, k)
                    acc = int(g.table[acc, x])

    def test_huge_exponent_reduced_by_the_order(self):
        g = families.cyclic(7)
        # 10**12 = 142857142857 * 7 + 1, in at most 6 products
        assert power(g, 3, 10 ** 12) == 3 and power(g, 3, -10 ** 12) == 4


class TestCentralizerCenter:
    def test_centralizer_of_identity(self):
        g = families.dihedral(4)
        assert g.centralizer(0).members == tuple(range(8))

    def test_d8_reflection(self):
        # s is element 4; C(s) = {e, r^2, s, s r^2}
        assert families.dihedral(4).centralizer(4).members == (0, 2, 4, 6)

    def test_abelian(self):
        g = families.cyclic(6)
        assert g.centralizer(3).members == tuple(range(6))

    def test_center_q8(self):
        assert families.generalized_quaternion(8).center().members == (0, 2)

    def test_center_s3_trivial(self):
        assert families.dihedral(3).center().members == (0,)

    def test_center_is_intersection_of_centralizers(self, small_corpus):
        for label, g in small_corpus:
            if g.order > 128:
                continue
            inter = set(range(g.order))
            for x in range(g.order):
                inter &= set(g.centralizer(x).members)
            assert set(g.center().members) == inter, label

    def test_center_inside_every_centralizer(self, small_corpus):
        for label, g in small_corpus:
            z = set(g.center().members)
            for x in range(g.order):
                cx = set(g.centralizer(x).members)
                assert z <= cx and x in cx, label


class TestGeneratedSubgroup:
    def test_empty_seeds(self):
        assert families.dihedral(4).generated_subgroup([]).members == (0,)

    def test_d8_rotation_subgroup(self):
        assert families.dihedral(4).generated_subgroup([1]).members == (0, 1, 2, 3)

    def test_all_elements(self):
        g = families.dihedral(3)
        assert g.generated_subgroup(range(6)).members == tuple(range(6))

    def test_seeds_out_of_range(self):
        # -1 must not wrap around to the last element
        g = families.dihedral(4)
        for seeds in ([-1], [8], [1, 100], [-8, 2]):
            with pytest.raises(ValueError):
                g.generated_subgroup(seeds)


class TestNormalityQuotient:
    def test_center_normal(self, small_corpus):
        for label, g in small_corpus:
            assert g.is_normal(g.center()), label

    def test_index_two_normal(self):
        g = families.dihedral(4)
        assert g.is_normal(g.subgroup([0, 1, 2, 3]))

    def test_s3_reflection_not_normal(self):
        g = families.dihedral(3)
        assert not g.is_normal(g.subgroup([0, 3]))

    def test_quotient_by_whole_group(self):
        g = families.dihedral(4)
        assert g.quotient(g.subgroup(range(8))).order == 1

    def test_d8_mod_center_is_klein(self):
        g = families.dihedral(4)
        q = g.quotient(g.center())
        assert q.order == 4
        assert q.order_histogram() == ((1, 1), (2, 3))

    def test_quotient_by_trivial(self):
        g = families.dihedral(3)
        q = g.quotient(g.subgroup([0]))
        assert is_isomorphic(q, g)

    def test_not_normal_raises(self):
        g = families.dihedral(3)
        with pytest.raises(NotNormal):
            g.quotient(g.subgroup([0, 3]))

    def test_quotient_order_product(self, small_corpus):
        for label, g in small_corpus:
            z = g.center()
            if not g.is_normal(z):
                continue
            assert g.quotient(z).order * z.size == g.order, label


class TestDirectProduct:
    def test_with_trivial(self):
        g = families.dihedral(4)
        assert is_isomorphic(direct_product(g, families.cyclic(1)), g)

    def test_klein(self):
        g = direct_product(families.cyclic(2), families.cyclic(2))
        assert g.order_histogram() == ((1, 1), (2, 3))

    def test_d8_c3(self):
        g = direct_product(families.dihedral(4), families.cyclic(3))
        assert g.order == 24
        assert g.center().size == 6

    def test_folds_from_the_left(self):
        c2, d8 = families.cyclic(2), families.dihedral(4)
        assert direct_product(d8) is d8
        for factors in ((c2, d8, families.cyclic(3)), (d8, c2, c2, c2)):
            nested = factors[0]
            for b in factors[1:]:
                nested = direct_product(nested, b)
            folded = direct_product(*factors)
            assert np.array_equal(folded.table, nested.table)
            assert folded.labels == nested.labels
        with pytest.raises(TypeError):
            direct_product()

    def test_center_multiplies(self, small_corpus):
        a = families.dihedral(4)
        for label, b in small_corpus:
            if b.order > 20:
                continue
            prod = direct_product(a, b)
            assert prod.center().size == a.center().size * b.center().size, label


class TestTableBudget:
    N = 1024  # an 8 MiB table; the budget below admits order 362 at most

    @pytest.fixture
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(core, "TABLE_BYTE_BUDGET", 1 << 20)

    def test_boundary(self, small_budget):
        core.check_table_budget(362)
        with pytest.raises(TooLarge, match="budget"):
            core.check_table_budget(363)

    def test_default_admits_the_largest_input_in_use(self):
        core.check_table_budget(2048)
        with pytest.raises(TooLarge):
            core.check_table_budget(2 ** 13)

    def test_raises_before_any_table_is_allocated(self, small_budget):
        n = self.N
        c32 = families.cyclic(32)
        narrow = np.zeros((n, n), dtype=np.int32)  # from_table would copy it to validate
        pres = presentation.parse(f"< a | a^{n} >")
        sites = {
            "from_permutations": lambda: from_permutations(6, [(1, 2, 3, 4, 5, 0),
                                                               (1, 0, 2, 3, 4, 5)]),
            "cyclic": lambda: families.cyclic(n),
            "elementary_abelian": lambda: families.elementary_abelian(2, 10),
            "dihedral": lambda: families.dihedral(n // 2),
            "generalized_quaternion": lambda: families.generalized_quaternion(n),
            "modular_M": lambda: families.modular_M(n),
            "heisenberg": lambda: families.heisenberg(11),
            "direct_product": lambda: direct_product(c32, c32),
            "from_table": lambda: from_table(narrow),
            "presentation": lambda: presentation.enumerate_presentation(pres),
        }
        for name, build in sites.items():
            tracemalloc.start()
            try:
                with pytest.raises(TooLarge):
                    build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < n * n * 8 // 16, (name, peak)


class TestIsomorphism:
    def test_d8_not_q8(self):
        assert not is_isomorphic(families.dihedral(4),
                                 families.generalized_quaternion(8))

    def test_shuffled_relabeling(self):
        rng = np.random.default_rng(7)
        for label, g in [("D8", families.dihedral(4)),
                         ("Q16", families.generalized_quaternion(16)),
                         ("H27", families.heisenberg(3))]:
            perm = np.concatenate([[0], 1 + rng.permutation(g.order - 1)])
            table = np.empty_like(np.asarray(g.table))
            for i in range(g.order):
                for j in range(g.order):
                    table[perm[i], perm[j]] = perm[g.table[i, j]]
            assert is_isomorphic(core.from_table(table), g), label

    def test_c4_not_klein(self):
        assert not is_isomorphic(families.cyclic(4),
                                 families.elementary_abelian(2, 2))

    def test_symmetric(self, small_corpus):
        groups = [g for _, g in small_corpus if g.order <= 32]
        for a, b in itertools.combinations(groups, 2):
            assert is_isomorphic(a, b) == is_isomorphic(b, a)

    def test_too_large(self):
        g = families.cyclic(600)
        with pytest.raises(TooLarge):
            is_isomorphic(g, g)


class TestPGroupPredicates:
    def test_is_p_group(self):
        assert families.dihedral(4).is_p_group() == 2
        assert families.cyclic(12).is_p_group() is None
        assert families.heisenberg(3).is_p_group() == 3
        assert families.cyclic(1).is_p_group() == TRIVIAL

    def test_prime_and_prime_power_by_trial_division(self):
        for n in range(-3, 1100):
            divisors = [d for d in range(2, n + 1) if n % d == 0]
            p = divisors[0] if divisors else None
            assert core.is_prime(n) == (divisors == [n]), n
            k = next((k for k in range(1, 11) if p ** k == n), None) if p else None
            assert core.is_prime_power(n) == (None if k is None else (p, k)), n

    def test_elementary_p(self):
        # the oracle the checks' G/Z exponent is compared with
        assert is_elementary_p(families.elementary_abelian(2, 3)) == 2
        assert is_elementary_p(families.cyclic(4)) is None
        h = families.heisenberg(3)
        assert is_elementary_p(h) == 3 and not h.is_abelian
        assert is_elementary_p(families.cyclic(1)) is None


class TestFrattini:
    def test_elementary_abelian(self):
        assert families.elementary_abelian(2, 3).frattini().members == (0,)

    def test_c4(self):
        assert families.cyclic(4).frattini().size == 2

    def test_d8(self):
        g = families.dihedral(4)
        assert g.frattini().members == g.center().members == (0, 2)

    def test_agrees_with_maximal_subgroup_oracle(self, small_corpus):
        for label, g in small_corpus:
            if g.order > 32:
                continue
            if label == "S3":  # the one group here that is not nilpotent
                with pytest.raises(ValueError, match="nilpotent"):
                    g.frattini()
                continue
            assert g.frattini().members == frattini_by_maximal_subgroups(g).members, label

    def test_nilpotent_product(self):
        g = direct_product(families.dihedral(4), families.cyclic(9))
        # Phi(D8 x C9) = Phi(D8) x Phi(C9) = C2 x C3
        assert g.frattini().size == 6


class TestAllSubgroups:
    def test_d8_has_ten(self):
        subs = all_subgroups(families.dihedral(4))
        assert len(subs) == 10
        assert subs[0].members == (0,)
        assert subs[-1].size == 8

    def test_lagrange(self):
        g = families.generalized_quaternion(16)
        for s in all_subgroups(g):
            assert g.order % s.size == 0

    def test_cap_raises_too_large(self, monkeypatch):
        monkeypatch.setattr(core, "SUBGROUP_CAP", 9)  # D8 has 10
        with pytest.raises(TooLarge, match="subgroup enumeration exceeded 9 subgroups"):
            all_subgroups(families.dihedral(4))


class TestSubgroupType:
    def test_validation(self):
        g = families.dihedral(4)
        with pytest.raises(ValueError):
            g.subgroup([0, 1])  # not closed: r generates order 4
        with pytest.raises(ValueError):
            g.subgroup([1, 2])  # missing identity

    def test_validation_out_of_range(self):
        g = families.dihedral(4)
        for members in ([0, 8], [0, 100], [-1, 0], [-8, 0, 2]):
            with pytest.raises(ValueError):
                g.subgroup(members)

    def test_membership_outside_parent_range(self):
        z = families.dihedral(4).center()
        assert z.members == (0, 2)
        for x in (-8, -6, -1, 8, 100):
            assert x not in z

    def test_as_group_roundtrip(self):
        g = families.dihedral(4)
        h = g.subgroup([0, 1, 2, 3]).as_group()
        assert is_isomorphic(h, families.cyclic(4))

    def test_whole_group_as_group_is_parent(self):
        g = families.dihedral(4)
        assert g.subgroup(range(8)).as_group() is g

    def test_cosets(self):
        g = families.dihedral(4)
        cosets = g.subgroup([0, 2]).cosets()
        assert cosets == ((0, 2), (1, 3), (4, 6), (5, 7))
