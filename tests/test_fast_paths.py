"""Array kernels cross-checked against the slow reference implementations
they replaced, which are kept here as test-only oracles."""

import re
from collections import Counter

import numpy as np
import pytest

from noncent import analysis, checks, core, families, presentation
from noncent.core import NotAGroup, from_permutations, from_table
from noncent.presentation import enumerate_presentation, parse


# --- oracles -----------------------------------------------------------------

def slow_associativity_failure(table):
    """First (i, j, k) with (ij)k != i(jk), scanning every k; None if associative."""
    table = np.asarray(table)
    for k in range(table.shape[0]):
        left = table[table, k]
        right = table[:, table[:, k]]
        if not (left == right).all():
            i, j = np.argwhere(left != right)[0]
            return int(i), int(j), k
    return None


def slow_from_permutations(degree, gens):
    """Table and labels by BFS closure plus a double loop over element pairs."""
    gens = [tuple(g) for g in gens]
    ident = tuple(range(degree))
    elems, index, queue = [ident], {ident: 0}, [ident]
    while queue:
        cur = queue.pop(0)
        for g in gens:
            nxt = tuple(cur[g[i]] for i in range(degree))
            if nxt not in index:
                index[nxt] = len(elems)
                elems.append(nxt)
                queue.append(nxt)
    n = len(elems)
    table = np.empty((n, n), dtype=np.int64)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            table[i, j] = index[tuple(a[b[k]] for k in range(degree))]
    labels = ["".join(str(x) if degree <= 10 else f"{x}," for x in el) for el in elems]
    return table, labels


def slow_coset_table(ct, pres):
    """Table and labels from a coset table by tracing every word from every coset."""
    start = ct.rep(0)
    order, number, words = [start], {start: 0}, [[]]
    qi = 0
    while qi < len(order):
        cur = order[qi]
        qi += 1
        for x in range(ct.width):
            nxt = ct.rep(ct.rows[cur][x])
            if nxt not in number:
                number[nxt] = len(order)
                order.append(nxt)
                words.append(words[qi - 1] + [x])
    n = len(order)
    table = np.empty((n, n), dtype=np.int64)
    for j in range(n):
        for i in range(n):
            coset = order[i]
            for x in words[j]:
                coset = ct.rep(ct.rows[coset][x])
            table[i, j] = number[coset]
    labels = ["*".join(pres.generators[x // 2] + ("" if x % 2 == 0 else "^-1")
                       for x in w) or "e" for w in words]
    return table, labels


def slow_dihedral(m):
    n = 2 * m
    table = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        fa, ia = divmod(a, m)
        for b in range(n):
            fb, ib = divmod(b, m)
            if fa == 0:
                table[a, b] = fb * m + ((ib - ia) % m if fb else (ia + ib) % m)
            else:
                table[a, b] = (1 - fb) * m + ((ia + ib) % m if fb == 0 else (ib - ia) % m)
    return table


def slow_quaternion(order):
    m = order // 2
    half = m // 2
    table = np.empty((order, order), dtype=np.int64)
    for a in range(order):
        fa, ia = divmod(a, m)
        for b in range(order):
            fb, ib = divmod(b, m)
            if fa == 0 and fb == 0:
                table[a, b] = (ia + ib) % m
            elif fa == 0:
                table[a, b] = m + (ib - ia) % m
            elif fb == 0:
                table[a, b] = m + (ia + ib) % m
            else:
                table[a, b] = (half + ib - ia) % m
    return table


def slow_modular(order):
    m = order // 2
    t = m // 2 + 1
    table = np.empty((order, order), dtype=np.int64)
    for a in range(order):
        fa, ia = divmod(a, m)
        for b in range(order):
            fb, ib = divmod(b, m)
            if fb == 0:
                table[a, b] = fa * m + (ia + ib) % m
            else:
                table[a, b] = (1 - fa) * m + (ia * t + ib) % m
    return table


def slow_heisenberg(p):
    n = p ** 3
    table = np.empty((n, n), dtype=np.int64)
    for x in range(n):
        a1, r = divmod(x, p * p)
        b1, c1 = divmod(r, p)
        for y in range(n):
            a2, r = divmod(y, p * p)
            b2, c2 = divmod(r, p)
            c = (c1 + c2 + a1 * b2) % p
            table[x, y] = ((a1 + a2) % p) * p * p + ((b1 + b2) % p) * p + c
    return table


def slow_beta_classes(g):
    """Elements grouped by the frozenset of their centralizer, center first,
    then by smallest member."""
    comm = g.commuting_matrix()
    buckets = {}
    for x in range(g.order):
        buckets.setdefault(frozenset(np.flatnonzero(comm[x]).tolist()), []).append(x)
    center = [c for c in buckets.values() if c[0] == 0]
    rest = sorted((c for c in buckets.values() if c[0] != 0), key=lambda c: c[0])
    return tuple(tuple(c) for c in center + rest)


def slow_generated_subgroup(g, seeds):
    """Sorted members of <seeds> by a two-sided BFS closure over element pairs."""
    members = {0}
    frontier = [0]
    for s in seeds:
        if s not in members:
            members.add(s)
            frontier.append(s)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(members):
                for c in (int(g.table[a, b]), int(g.table[b, a])):
                    if c not in members:
                        members.add(c)
                        nxt.append(c)
        frontier = nxt
    return tuple(sorted(members))


def slow_is_normal(g, h):
    """g*H*g^-1 inside H, one conjugating element at a time."""
    inv = g.inverses()
    mset = set(h.members)
    for x in range(g.order):
        if any(int(g.table[int(g.table[x, m]), int(inv[x])]) not in mset for m in h.members):
            return False
    return True


def slow_cosets(h):
    """(representative, members) of each left coset, scanning x upward."""
    g = h.parent
    seen, out = set(), []
    for x in range(g.order):
        if x in seen:
            continue
        members = tuple(sorted(int(g.table[x, m]) for m in h.members))
        seen.update(members)
        out.append((members[0], members))
    return out


def slow_quotient(g, n_sub):
    """G/N from a dict coset map, validated by from_table."""
    cosets = slow_cosets(n_sub)
    coset_of = {m: i for i, (_, members) in enumerate(cosets) for m in members}
    rows = [[coset_of[int(g.table[r, s])] for s, _ in cosets] for r, _ in cosets]
    return from_table(rows, [f"[{g.labels[r]}]" for r, _ in cosets])


def slow_as_group(h):
    """The subgroup's own table from a dict position map, validated by from_table."""
    g = h.parent
    pos = {m: i for i, m in enumerate(h.members)}
    rows = [[pos[int(g.table[a, b])] for b in h.members] for a in h.members]
    return from_table(rows, [g.labels[m] for m in h.members])


def slow_cyclic_homs(ab, m):
    """Yield every homomorphism from the abelian group ab to Z/m as a dict,
    by extending a partial map along products of already-mapped elements."""
    orders = ab.element_orders()
    gens = core.greedy_generators(ab.table)

    def extend(fmap, gen, val):
        fmap = dict(fmap)
        fmap[gen] = val
        frontier = [gen]
        while frontier:
            nxt = []
            for x in frontier:
                for y in list(fmap):
                    p = int(ab.table[x, y])
                    q = (fmap[x] + fmap[y]) % m
                    if p in fmap:
                        if fmap[p] != q:
                            return None
                    else:
                        fmap[p] = q
                        nxt.append(p)
            frontier = nxt
        return fmap

    def rec(i, fmap):
        if i == len(gens):
            yield fmap
            return
        gen = gens[i]
        if gen in fmap:
            yield from rec(i + 1, fmap)
            return
        step = m // np.gcd(m, int(orders[gen]))
        for val in range(0, m, int(step)):
            ext = extend(fmap, gen, val)
            if ext is not None:
                yield from rec(i + 1, ext)

    yield from rec(0, {0: 0})


def slow_central_cyclic_splits(g, z):
    """True iff <z> (z central) is a direct factor of g: some homomorphism
    g -> Z/o(z) sends z to a generator, and its kernel is then a complement.
    Homomorphisms factor through the abelianization."""
    comm_sub = g.commutator_subgroup()
    ab = g.quotient(comm_sub)
    zbar = int(comm_sub.coset_index()[z])
    m = g.element_order(z)
    if ab.element_order(zbar) != m:
        return False
    return any(np.gcd(fmap[zbar], m) == 1 for fmap in slow_cyclic_homs(ab, m))


def is_power_of(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def slow_greedy_generators(g):
    gens, covered = [], {0}
    while len(covered) < g.order:
        gens.append(next(i for i in range(g.order) if i not in covered))
        covered = set(slow_generated_subgroup(g, gens))
    return gens


def slow_commutators(g):
    inv = g.inverses()
    return {int(g.table[int(inv[int(g.table[b, a])]), int(g.table[a, b])])
            for a in range(g.order) for b in range(g.order)}


def slow_embeds(a, b_subgroups):
    """Whether abelian group a is isomorphic to one of the given subgroups."""
    return any(s.size == a.order and core.is_isomorphic(s.as_group(), a)
               for s in b_subgroups)


def slow_ncen(g):
    """check_ncen's verdict through subgroup enumeration of the center: every
    non-central centralizer C is normal, G/C is abelian and isomorphic to a
    subgroup of Z(G)."""
    z_subs = core.all_subgroups(g.center().as_group())
    part = analysis.beta_partition(g)
    for cid in range(1, part.cent_count):
        cent = part.centralizer_of_class(cid)
        if not slow_is_normal(g, cent):
            return False
        quo = g.quotient(cent)
        if not quo.is_abelian or not slow_embeds(quo, z_subs):
            return False
    return True


def slow_element_orders(g):
    """Order of every element by walking its powers one product at a time."""
    orders = np.empty(g.order, dtype=np.int32)
    for x in range(g.order):
        k, acc = 1, x
        while acc != 0:
            acc = int(g.table[acc, x])
            k += 1
        orders[x] = k
    return orders


def slow_compress_multiset(values):
    """Report text of a multiset by scanning runs of equal sorted values."""
    out = []
    i = 0
    vals = sorted(values)
    while i < len(vals):
        j = i
        while j < len(vals) and vals[j] == vals[i]:
            j += 1
        out.append(f"{vals[i]}" if j - i == 1 else f"{vals[i]}x{j - i}")
        i = j
    return "[" + ", ".join(out) + "]"


def slow_strong_fp(g):
    """Isomorphism invariant that orders catalog labels, by per-element loops."""
    part = analysis.beta_partition(g)
    orders = g.element_orders()
    cent = g.commuting_matrix().sum(axis=1)
    csize = np.empty(g.order, dtype=np.int64)
    for c in g.conjugacy_classes():
        for x in c:
            csize[x] = len(c)
    profile = tuple(sorted(
        (int(orders[x]), int(orders[int(g.table[x, x])]), int(cent[x]), int(csize[x]))
        for x in range(g.order)))
    class_prof = tuple(sorted(
        (len(members), int(cent[members[0]]),
         tuple(sorted(int(orders[x]) for x in members)),
         tuple(sorted(int(orders[int(g.table[x, x])]) for x in members)))
        for members in part.classes))
    sq_of_class = tuple(sorted(
        tuple(sorted({int(part.class_of[int(g.table[x, x])]) == 0 for x in members}))
        for members in part.classes))
    center_hist = tuple(sorted(int(orders[z]) for z in part.classes[0]))
    return (
        g.order, g.is_abelian, g.order_histogram(), center_hist,
        tuple(sorted(part.class_sizes())), tuple(sorted(int(x) for x in csize)),
        profile, class_prof, sq_of_class,
    )


def slow_element_fingerprints(g):
    """Per element: (order, |C(x)|, class size, order of x^2, |beta(x)|, square roots)."""
    orders = g.element_orders()
    cent = g.commuting_matrix().sum(axis=1)
    beta_ids = g.beta_class_ids()
    beta_count = np.bincount(beta_ids)
    class_size = np.empty(g.order, dtype=np.int64)
    for c in g.conjugacy_classes():
        for x in c:
            class_size[x] = len(c)
    squares = g.table[np.arange(g.order), np.arange(g.order)]
    sqrt_count = np.bincount(squares, minlength=g.order)
    return [(int(orders[x]), int(cent[x]), int(class_size[x]),
             int(orders[int(squares[x])]), int(beta_count[beta_ids[x]]),
             int(sqrt_count[x]))
            for x in range(g.order)]


def slow_generating_sequence(g, rarity):
    """Rarest fingerprint outside <gens> first, ties by index; closure rebuilt each step."""
    gens = []
    current = np.arange(g.order) == 0
    fps = slow_element_fingerprints(g)
    while not current.all():
        gens.append(min(np.flatnonzero(~current).tolist(), key=lambda x: (rarity[fps[x]], x)))
        current = g.generated_subgroup(gens).mask
    return gens


def slow_invariant_vector(g):
    """The invariant tuple slow_is_isomorphic compares before any search."""
    orders = g.element_orders()
    beta_sizes = tuple(sorted(np.bincount(g.beta_class_ids()).tolist()))
    return (
        g.order, g.is_abelian, g.order_histogram(),
        tuple(sorted(int(orders[z]) for z in g.beta_classes()[0])),
        len(beta_sizes), beta_sizes,
        tuple(sorted(len(c) for c in g.conjugacy_classes())),
        tuple(sorted(g.commuting_matrix().sum(axis=1).tolist())),
    )


def slow_is_isomorphic(a, b):
    """Isomorphism by an invariant vector, element fingerprints and backtracking
    over slow_generating_sequence."""
    if a.order != b.order or slow_invariant_vector(a) != slow_invariant_vector(b):
        return False
    if a.order == 1 or a.is_abelian:
        return True
    fps_a, fps_b = slow_element_fingerprints(a), slow_element_fingerprints(b)
    if sorted(fps_a) != sorted(fps_b):
        return False
    gens = slow_generating_sequence(a, Counter(fps_b))
    buckets = {}
    for x, f in enumerate(fps_b):
        buckets.setdefault(f, []).append(x)

    def search(i, fmap, used):
        if i == len(gens):
            return len(fmap) == a.order
        if gens[i] in fmap:
            return search(i + 1, fmap, used)
        for cand in buckets.get(fps_a[gens[i]], ()):
            ext = core._extend_map(a, b, fmap, used, gens[i], cand)
            if ext is not None and search(i + 1, *ext):
                return True
        return False

    return search(0, {0: 0}, {0})


def abelian_groups(max_order):
    """One abelian group per isomorphism type up to max_order, as direct
    products of cyclic groups of prime-power order; keyed by the sorted tuple
    of those cyclic orders."""
    out = {(): families.cyclic(1)}
    changed = True
    while changed:
        changed = False
        for key, g in list(out.items()):
            for q in range(2, max_order // g.order + 1):
                if core.is_prime_power(q) is None:
                    continue
                new = tuple(sorted(key + (q,)))
                if new not in out:
                    out[new] = core.direct_product(g, families.cyclic(q))
                    changed = True
    return out


def random_latin_square(n, rng):
    """Latin square with identity row and column 0.

    Rows after the first are random perfect matchings of columns to symbols
    still free in them (one exists by Hall's theorem); sorting the rows by
    their first entry then makes column 0 the identity column.
    """
    rows = [list(range(n))]
    used = [{j} for j in range(n)]
    for _ in range(1, n):
        owner = {}  # symbol -> column

        def augment(col, seen):
            for s in rng.permutation(n).tolist():
                if s in used[col] or s in seen:
                    continue
                seen.add(s)
                if s not in owner or augment(owner[s], seen):
                    owner[s] = col
                    return True
            return False

        for col in rng.permutation(n).tolist():
            assert augment(col, set())
        row = [0] * n
        for s, col in owner.items():
            row[col] = s
            used[col].add(s)
        rows.append(row)
    rows.sort(key=lambda r: r[0])
    return np.array(rows, dtype=np.int64)


def relabeled(g, rng):
    """g's table under a random relabeling that keeps the identity at 0."""
    perm = np.concatenate([[0], 1 + rng.permutation(g.order - 1)])
    out = np.empty((g.order, g.order), dtype=np.int64)
    out[np.ix_(perm, perm)] = perm[g.table]
    return out


def named_triple(exc):
    x, y, g = map(int, re.search(r"\((\d+),(\d+),(\d+)\)", str(exc)).groups())
    return x, y, g


def assert_triple_fails(table, triple):
    x, y, g = triple
    assert table[table[x, y], g] != table[x, table[y, g]]


# --- associativity -------------------------------------------------------------

class TestLightAssociativity:
    def test_matches_full_loop_on_random_latin_squares(self):
        rng = np.random.default_rng(20181221)
        verdicts = set()
        for n in range(1, 13):
            for _ in range(15):
                table = random_latin_square(n, rng)
                expected = slow_associativity_failure(table)
                try:
                    from_table(table)
                except NotAGroup as exc:
                    assert expected is not None, (n, table.tolist())
                    assert "associativity" in str(exc)
                    assert_triple_fails(table, named_triple(exc))
                    verdicts.add(False)
                else:
                    assert expected is None, (n, table.tolist())
                    verdicts.add(True)
        assert verdicts == {True, False}

    def test_matches_full_loop_on_relabeled_groups(self):
        rng = np.random.default_rng(7)
        for g in (families.cyclic(12), families.dihedral(6),
                  families.generalized_quaternion(8),
                  core.direct_product(families.cyclic(2), families.dihedral(3))):
            table = relabeled(g, rng)
            assert slow_associativity_failure(table) is None
            assert (from_table(table).table == table).all()

    def test_intercalate_swap_at_order_512(self):
        # Z/512 has the intercalate rows {1, 257} x columns {2, 258}; swapping
        # it keeps a Latin square with identity but breaks associativity
        table = np.array(families.cyclic(512).table, dtype=np.int64)
        r, c = np.ix_([1, 257], [2, 258])
        table[r, c] = table[r, c][:, ::-1]
        assert (table[0] == np.arange(512)).all() and (table[:, 0] == np.arange(512)).all()
        with pytest.raises(NotAGroup, match="associativity") as info:
            from_table(table)
        assert_triple_fails(table, named_triple(info.value))

    def test_failure_only_at_a_later_generator(self):
        # E8 with the intercalate on rows and columns {2, 3} swapped: right
        # multiplication by the first generator still associates
        table = np.array(families.elementary_abelian(2, 3).table, dtype=np.int64)
        r, c = np.ix_([2, 3], [2, 3])
        table[r, c] = table[r, c][:, ::-1]
        first = core.greedy_generators(table)[0]
        assert (table[table, first] == table[:, table[:, first]]).all()
        with pytest.raises(NotAGroup, match="associativity") as info:
            from_table(table)
        assert_triple_fails(table, named_triple(info.value))

    def test_greedy_generators_match_subgroup_closure(self, small_corpus):
        for label, g in small_corpus:
            assert core.greedy_generators(g.table) == slow_greedy_generators(g), label


# --- table builders -------------------------------------------------------------

class TestTableBuilders:
    @pytest.mark.parametrize("degree, gens", [
        (3, []),
        (4, [(1, 2, 3, 0), (2, 1, 0, 3)]),
        (5, [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]),
        (5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]),
        (7, [(1, 2, 3, 4, 5, 6, 0)]),
    ])
    def test_from_permutations_matches_double_loop(self, degree, gens):
        g = from_permutations(degree, gens)
        table, labels = slow_from_permutations(degree, gens)
        assert (g.table == table).all()
        assert g.labels == tuple(labels)

    def test_from_permutations_random_generators(self):
        rng = np.random.default_rng(5)
        for degree in (4, 5, 5, 6):
            gens = [tuple(rng.permutation(degree).tolist()) for _ in range(2)]
            g = from_permutations(degree, gens)
            table, labels = slow_from_permutations(degree, gens)
            assert (g.table == table).all(), gens
            assert g.labels == tuple(labels)

    @pytest.mark.parametrize("text", [
        "< a | a^1 >",
        "< a | a^16 >",
        "< a,b | a^4, b^2, b*a*b^-1 = a^-1 >",
        "< a,b | a^8, b^2 = a^4, b*a*b^-1 = a^-1 >",
        "< a,b | a^3, b^2, (a*b)^2 >",
        "< a,b,c | a^2, b^2, c^2, a*b = b*a, a*c = c*a, b*c = c*b >",
        "< r,s | r^32, s^2, s*r*s^-1 = r^-1 >",
    ])
    def test_coset_table_matches_word_tracing(self, text, monkeypatch):
        seen = {}
        fast = presentation._table_to_group

        def spy(ct, pres):
            seen["slow"] = slow_coset_table(ct, pres)
            return fast(ct, pres)

        monkeypatch.setattr(presentation, "_table_to_group", spy)
        g = enumerate_presentation(parse(text))
        table, labels = seen["slow"]
        assert (g.table == table).all()
        assert g.labels == tuple(labels)

    @pytest.mark.parametrize("ctor, oracle, args", [
        (families.dihedral, slow_dihedral, (2, 3, 5, 8, 13)),
        (families.generalized_quaternion, slow_quaternion, (8, 16, 64)),
        (families.modular_M, slow_modular, (8, 16, 64)),
        (families.heisenberg, slow_heisenberg, (3, 5)),
    ])
    def test_family_tables_match_double_loop(self, ctor, oracle, args):
        for a in args:
            assert (ctor(a).table == oracle(a)).all(), a


class TestEdgeCases:
    def test_permutations_without_generators(self):
        g = from_permutations(3, [])
        assert g.order == 1
        assert g.table.tolist() == [[0]]
        assert g.labels == ("012",)

    def test_one_generator_trivial_presentation(self):
        g = enumerate_presentation(parse("< a | a^1 >"))
        assert g.order == 1
        assert g.table.tolist() == [[0]]
        assert g.labels == ("e",)


# --- centralizer classes and commutators -----------------------------------------

class TestRowKeys:
    @pytest.mark.parametrize("make", [
        lambda: families.dihedral(256),
        lambda: families.modular_M(512),
        lambda: core.direct_product(families.dihedral(64), families.cyclic(5)),
        lambda: from_permutations(6, [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)]),
        lambda: families.heisenberg(11),
    ])
    def test_beta_partition_matches_frozenset_grouping(self, make):
        g = make()
        assert g.order >= 512
        part = analysis.beta_partition(g)
        assert part.classes == slow_beta_classes(g)
        assert all(part.class_of[x] == cid
                   for cid, c in enumerate(part.classes) for x in c)

    def test_row_classes_match_unique_rows(self, small_corpus):
        for label, g in small_corpus:
            comm = g.commuting_matrix()
            _, ids = np.unique(comm, axis=0, return_inverse=True)
            fast = core.row_classes(comm)
            same = ids[:, None] == ids[None, :]
            assert (same == (fast[:, None] == fast[None, :])).all(), label


class TestCommutators:
    def test_one_gather_matches_pair_loop(self, small_corpus):
        for label, g in small_corpus:
            assert set(g._commutators().tolist()) == slow_commutators(g), label
            assert g.commutator_subgroup() == g.generated_subgroup(slow_commutators(g))

    def test_p_group_frattini_matches_powers_and_commutators(self, small_corpus):
        for label, g in small_corpus:
            p = g.is_p_group()
            if not isinstance(p, int):
                continue
            seeds = {g.power(x, p) for x in range(g.order)} | slow_commutators(g)
            assert g._frattini_p_group(p) == g.generated_subgroup(seeds), label


# --- subgroups on membership masks ----------------------------------------------

@pytest.fixture(scope="module")
def subgroup_corpus(small_corpus, order16_entries, order32_entries):
    """small_corpus, every order-16 and order-32 catalog entry, and small_corpus
    under a random relabeling."""
    rng = np.random.default_rng(11)
    out = list(small_corpus)
    out += [(e.label, e.group()) for e in list(order16_entries) + list(order32_entries)]
    out += [(label + "~", from_table(relabeled(g, rng))) for label, g in small_corpus]
    return out


def same_group(a, b):
    return (a.table.dtype == b.table.dtype and (a.table == b.table).all()
            and a.labels == b.labels)


class TestMaskSubgroups:
    def test_closure_matches_bfs_on_random_seeds(self, subgroup_corpus):
        rng = np.random.default_rng(1)
        for label, g in subgroup_corpus:
            for _ in range(8):
                seeds = rng.integers(0, g.order, size=int(rng.integers(0, 5))).tolist()
                assert g.generated_subgroup(seeds).members == \
                    slow_generated_subgroup(g, seeds), (label, seeds)

    def test_subgroup_validation_matches_closure(self, subgroup_corpus):
        rng = np.random.default_rng(2)
        verdicts = set()
        for label, g in subgroup_corpus:
            seed_sets = [rng.integers(0, g.order, size=k).tolist() for k in (1, 1, 2, 3, 3, 3)]
            candidates = [slow_generated_subgroup(g, seeds) for seeds in seed_sets[:3]]
            candidates += [tuple(sorted({0, *seeds})) for seeds in seed_sets[3:]]
            for cand in candidates:
                closed = slow_generated_subgroup(g, cand) == cand
                try:
                    accepted = g.subgroup(cand).members == cand
                except ValueError:
                    accepted = False
                assert accepted == closed, (label, cand)
                verdicts.add(closed)
        assert verdicts == {True, False}

    def test_normality_cosets_and_tables_match_loops(self, subgroup_corpus):
        verdicts = set()
        for label, g in subgroup_corpus:
            for h in core.all_subgroups(g):
                normal = g.is_normal(h)
                assert normal == slow_is_normal(g, h), (label, h.members)
                verdicts.add(normal)
                cosets = slow_cosets(h)
                assert [(c.representative, c.members) for c in h.cosets()] == cosets
                idx = h.coset_index()
                assert all(idx[x] == i for i, (_, members) in enumerate(cosets)
                           for x in members), (label, h.members)
                assert same_group(h.as_group(), slow_as_group(h)), (label, h.members)
                if normal:
                    assert same_group(g.quotient(h), slow_quotient(g, h)), (label, h.members)
        assert verdicts == {True, False}

    def test_p_element_mask_matches_order_loop(self, subgroup_corpus):
        for label, g in subgroup_corpus:
            orders = g.element_orders()
            for p in (2, 3, 5, 7):
                expected = [x for x in range(g.order) if is_power_of(int(orders[x]), p)]
                assert np.flatnonzero(g.p_element_mask(p)).tolist() == expected, (label, p)

    def test_maximal_centralizers_match_set_inclusion(self, subgroup_corpus):
        for label, g in subgroup_corpus:
            if g.is_abelian:
                continue
            part = analysis.beta_partition(g)
            cents = [(cid, part.centralizer_of_class(cid)) for cid in range(1, part.cent_count)]
            expected = [cid for cid, c in cents
                        if not any(c.member_set() < d.member_set() for _, d in cents)]
            assert [cid for cid, _ in analysis.maximal_centralizers(g)] == expected, label


# --- centralizer structure in the checks -------------------------------------------

class TestCentralizerChecks:
    def test_abelian_embedding_matches_subgroup_enumeration(self):
        groups = abelian_groups(36)
        verdicts = []
        for b_key, b in groups.items():
            b_subs = core.all_subgroups(b)
            for a_key, a in groups.items():
                if a.order == 1 or b.order % a.order:
                    continue
                fast = checks._abelian_embeds(a.element_orders(), b.element_orders())
                assert fast == slow_embeds(a, b_subs), (a_key, b_key)
                verdicts.append(fast)
        assert set(verdicts) == {True, False}
        assert len(verdicts) > 300

    def test_omega_counts_alone_do_not_decide(self):
        c4 = families.cyclic(4)
        k4 = families.elementary_abelian(2, 2)
        assert not checks._abelian_embeds(c4.element_orders(), k4.element_orders())
        assert not checks._abelian_embeds(k4.element_orders(), c4.element_orders())
        c2 = families.cyclic(2)
        assert checks._abelian_embeds(c2.element_orders(), k4.element_orders())

    def test_ncen_matches_center_subgroup_enumeration(self, subgroup_corpus):
        checked = 0
        for label, g in subgroup_corpus:
            if g.is_abelian or analysis.is_regular(g) is None:
                continue
            assert checks.check_ncen(g, label).passed == slow_ncen(g), label
            checked += 1
        assert checked > 20

    def test_centralizer_indices_match_subgroup_sizes(self, subgroup_corpus):
        for label, g in subgroup_corpus:
            part = analysis.beta_partition(g)
            expected = sorted({g.order // part.centralizer_of_class(cid).size
                               for cid in range(1, part.cent_count)})
            assert checks._centralizer_indices(g) == expected, label


# --- element orders, report text and the big/big1 split confirmation ---------------

class TestElementOrders:
    def test_gathers_match_power_walk(self, subgroup_corpus):
        corpus = subgroup_corpus + [("C1024", families.cyclic(1024))]
        for label, g in corpus:
            orders = g.element_orders()
            assert orders.dtype == np.int32 and not orders.flags.writeable, label
            assert np.array_equal(orders, slow_element_orders(g)), label


class TestReportText:
    def test_multiset_runs_match_scan(self, subgroup_corpus):
        rng = np.random.default_rng(5)
        samples = [(), (3,), (2, 2), tuple(rng.integers(0, 6, size=40).tolist())]
        for label, g in subgroup_corpus:
            report = analysis.build_report(g, label)
            samples += [report.degree_sequence, report.class_sizes]
        for values in samples:
            assert analysis._compress_multiset(values) == slow_compress_multiset(values)


@pytest.fixture(scope="module")
def split_corpus(small_corpus, order16_entries, order32_entries, order64_entries):
    entries = list(order16_entries) + list(order32_entries) + list(order64_entries)
    return list(small_corpus) + [(e.label, e.group()) for e in entries]


def product_subgroups(g, h_seeds, a_seeds):
    """H = <h_seeds> and A = <a_seeds> in g with direct_product(H, A)."""
    h, a = g.generated_subgroup(h_seeds), g.generated_subgroup(a_seeds)
    return h, a, core.direct_product(h.as_group(), a.as_group())


class TestProductMapConfirmation:
    def test_matches_isomorphism_search_where_big_and_big1_confirm(
            self, split_corpus, monkeypatch):
        fast = checks._product_map_is_isomorphism
        seen = []

        def compare(g, h, a, rebuilt):
            verdict = fast(g, h, a, rebuilt)
            assert verdict == core.is_isomorphic(rebuilt, g)
            seen.append(verdict)
            return verdict

        monkeypatch.setattr(checks, "_product_map_is_isomorphism", compare)
        reached = {}
        for label, g in split_corpus:
            for cid in ("big", "big1"):
                before = len(seen)
                r = checks.run_check(cid, g, label)
                if len(seen) > before:
                    assert r.details["isomorphism_confirmed"] is seen[-1], (cid, label)
                    reached[cid] = reached.get(cid, 0) + 1
        assert all(seen)
        assert reached["big"] > 60 and reached["big1"] > 60

    def test_bijective_but_not_multiplicative(self):
        s3 = families.dihedral(3)
        rotation = next(x for x in range(6) if s3.element_order(x) == 3)
        reflection = next(x for x in range(6) if s3.element_order(x) == 2)
        h, a, rebuilt = product_subgroups(s3, [reflection], [rotation])
        phi = s3.table[np.ix_(h.members, a.members)].ravel()
        assert sorted(phi.tolist()) == list(range(6))
        assert not checks._product_map_is_isomorphism(s3, h, a, rebuilt)
        assert not core.is_isomorphic(rebuilt, s3)

    def test_not_bijective(self):
        c4 = families.cyclic(4)
        h, a, rebuilt = product_subgroups(c4, [2], [2])
        assert rebuilt.order == c4.order
        assert not checks._product_map_is_isomorphism(c4, h, a, rebuilt)
        assert not core.is_isomorphic(rebuilt, c4)


# --- reduced regularity by purity in G/G' -------------------------------------

@pytest.fixture(scope="module")
def regular_2groups(order8_entries, order16_entries, order32_entries, order64_entries,
                    d8_central_product_c8):
    entries = (list(order8_entries) + list(order16_entries) + list(order32_entries)
               + list(order64_entries))
    corpus = [(e.label, e.group()) for e in entries]
    corpus = [(label, g) for label, g in corpus if not g.is_abelian
              and g.is_p_group() == 2 and analysis.is_regular(g) is not None]
    d8 = families.dihedral(4)
    corpus += [(f"D8xC{n}", core.direct_product(d8, families.cyclic(n)))
               for n in (2, 4, 8, 16)]
    return corpus + [("D8oC8", d8_central_product_c8)]


def pure_cyclic(a, xs):
    """_pure_cyclic on elements of the abelian group a, each at its own order."""
    x = np.array(xs)
    return analysis._pure_cyclic(a, x, a.element_orders()[x]).tolist()


class TestPurity:
    def test_central_splits_match_homomorphism_search(self, regular_2groups):
        order_only = 0
        for label, g in regular_2groups:
            comm_sub = g.commutator_subgroup()
            ab = g.quotient(comm_sub)
            z = np.asarray(g.center().members[1:])
            zbar, m = comm_sub.coset_index()[z], g.element_orders()[z]
            fast = analysis._pure_cyclic(ab, zbar, m).tolist()
            slow = [slow_central_cyclic_splits(g, int(x)) for x in z]
            assert fast == slow, label
            assert analysis.is_reduced_regular(g) == (not any(slow)), label
            order_only += int(((ab.element_orders()[zbar] == m) & ~np.array(slow)).sum())
        assert len(regular_2groups) == 75
        assert order_only > 100  # the height test decides these

    def test_z8_x_z2(self):
        a = core.direct_product(families.cyclic(8), families.cyclic(2))

        def elt(i, j):  # (i, j) in Z/8 x Z/2
            return 2 * i + j

        assert a.table[elt(2, 1), elt(2, 1)] == elt(4, 0)
        # (2,1) has order 4 and height 0, but 2*(2,1) = (4,0) = 4*(1,0)
        assert pure_cyclic(a, [elt(2, 1), elt(1, 0), elt(0, 1), elt(2, 0)]) == \
            [False, True, True, False]
        x = np.full(4, elt(1, 0))
        assert analysis._pure_cyclic(a, x, np.array([1, 4, 8, 16])).tolist() == \
            [False, False, True, False]
        assert pure_cyclic(a, [0]) == [False]

    def test_elementary_abelian_all_pure(self):
        for rank in (1, 2, 3, 4):
            e = families.elementary_abelian(2, rank)
            assert all(pure_cyclic(e, range(1, e.order)))


# --- one fingerprint and one element key per group ---------------------------

@pytest.fixture(scope="module")
def shipped_groups(order8_entries, order16_entries, order32_entries, order64_entries):
    """(label, group) for every shipped catalog entry."""
    entries = [*order8_entries, *order16_entries, *order32_entries, *order64_entries]
    return [(e.label, e.group()) for e in entries]


@pytest.fixture(scope="module")
def iso_corpus(shipped_groups, small_corpus):
    """(label, group, relabeled copy) for shipped_groups and small_corpus;
    each group is built once."""
    rng = np.random.default_rng(17)
    return [(label, g, from_table(relabeled(g, rng)))
            for label, g in [*shipped_groups, *small_corpus]]


class TestFingerprints:
    def test_fingerprint_matches_strong_fp(self, iso_corpus):
        for label, g, h in iso_corpus:
            assert core.fingerprint(g) == slow_strong_fp(g), label
            assert core.fingerprint(h) == slow_strong_fp(h) == core.fingerprint(g), label

    def test_element_keys_are_permuted_fingerprints(self, iso_corpus):
        for label, g, h in iso_corpus:
            for x in (g, h):
                keys = x.element_keys()
                assert keys.shape == (x.order, 6) and not keys.flags.writeable
                assert keys[:, [0, 2, 3, 1, 4, 5]].tolist() == \
                    [list(f) for f in slow_element_fingerprints(x)], label

    def test_isomorphism_uses_the_rarity_generating_sequence(self, iso_corpus, monkeypatch):
        class Stop(Exception):
            pass

        fast = core.greedy_generators
        used = []

        def record(table, rank=None):
            used.append(fast(table, rank))
            raise Stop  # the sequence is all this test needs, not the search

        monkeypatch.setattr(core, "greedy_generators", record)
        checked = 0
        for label, g, h in iso_corpus:
            if g.is_abelian:
                continue
            used.clear()
            with pytest.raises(Stop):
                core.is_isomorphic(g, h)
            assert used == [slow_generating_sequence(g, Counter(slow_element_fingerprints(h)))], label
            checked += 1
        assert checked == 111

    def test_verdicts_match_parent_engine(self, shipped_groups, iso_corpus):
        # relabeled copies up to order 32: at order 64 the search that confirms
        # a copy takes about 50 ms per engine
        copies = [(g, h) for _, g, h in iso_corpus if g.order <= 32]
        distinct = [(a, b) for i, (_, a) in enumerate(shipped_groups)
                    for _, b in shipped_groups[i + 1:] if a.order == b.order]
        pairs = copies + distinct
        verdicts = [core.is_isomorphic(a, b) for a, b in pairs]
        assert verdicts == [slow_is_isomorphic(a, b) for a, b in pairs]
        assert verdicts == [True] * len(copies) + [False] * len(distinct)
        assert len(distinct) == 2366
