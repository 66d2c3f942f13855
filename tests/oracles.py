"""Slow reference implementations that the tests cross-check the library
against, each computed closer to the definitions than the code it checks.

None of this is library API: nothing in src/, tools/ or perfbench/ imports
it.  Tests import it as `oracles` (pytest puts tests/ on sys.path).
"""

from itertools import islice
from typing import Optional

import numpy as np

from noncent import analysis
from noncent.catalog import label_sort_key
from noncent.checks import (CheckResult, _center_histogram, _centralizer_rows, _index, _na,
                            _quotient_exponent, _quotient_histogram, _result)
from noncent.core import (ISO_ORDER_CAP, FiniteGroup, NotAGroup, Subgroup, TooLarge,
                          _check_associativity, _find_identity, _inverses, _greedy_sequence,
                          _prime_factors, all_subgroups, check_table_budget, fingerprint,
                          from_table, greedy_generators, is_prime, is_prime_power)

BRUTE_FACTOR_CAP = 64
ORACLE_CAP = 256


def brute_force_abelian_factor(
        g: FiniteGroup) -> Optional[tuple[Subgroup, Subgroup]]:
    """Search for an internal direct decomposition G = H x A, A central
    non-trivial; independent oracle for is_reduced_regular.

    For each candidate central subgroup A the complement H is sought by
    lifting generators of G/A in every possible way.  Deterministic: first
    hit in (|A|, members, lift order) wins.  None when G is directly
    indecomposable over its center.
    """
    if g.order > BRUTE_FACTOR_CAP:
        raise TooLarge(f"brute-force factor search capped at order {BRUTE_FACTOR_CAP}")
    z = g.center()
    z_subs = [s for s in all_subgroups(z.as_group()) if 1 < s.size]
    for a_small in sorted(z_subs, key=lambda s: (s.size, s.members)):
        a_members = tuple(sorted(z.members[i] for i in a_small.members))
        a_sub = g.subgroup(a_members)
        res = _find_complement(g, a_sub)
        if res is not None:
            return res, a_sub
    return None


def _find_complement(g: FiniteGroup, a_sub: Subgroup) -> Optional[Subgroup]:
    target = g.order // a_sub.size
    quo = g.quotient(a_sub)
    cosets = a_sub.cosets()
    lift_choices = [cosets[q] for q in greedy_generators(quo.table)]
    a_set = frozenset(a_sub.members)

    def rec(i: int, picked: list[int]) -> Optional[Subgroup]:
        if i == len(lift_choices):
            h = g.generated_subgroup(picked)
            if h.size == target and len(frozenset(h.members) & a_set) == 1:
                return h
            return None
        for x in lift_choices[i]:
            found = rec(i + 1, picked + [x])
            if found is not None:
                return found
        return None

    return rec(0, [])


def oracle_graph(g: FiniteGroup, induced: bool = False) -> set[tuple[int, int]]:
    """Edge set built the slow way: compare centralizer member-sets pairwise.

    Independent of the partition machinery; used to cross-check build_graph.
    """
    if g.order > ORACLE_CAP:
        raise TooLarge(f"oracle capped at order {ORACLE_CAP}")
    comm = g.commuting_matrix()
    cents = [frozenset(int(i) for i in comm[x].nonzero()[0]) for x in range(g.order)]
    if induced:
        verts = [x for x in range(g.order) if len(cents[x]) != g.order]
    else:
        verts = list(range(g.order))
    edges = set()
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            if cents[u] != cents[v]:
                edges.add((u, v))
    return edges


def part_of(graph) -> dict[int, int]:
    """The index of each vertex's part in a NonCentralizerGraph."""
    return {v: i for i, p in enumerate(graph.parts) for v in p}


def edges(graph):
    """Yield the edges (u, v) of a NonCentralizerGraph, u < v ascending,
    pair by pair: the reference for graph.export."""
    part = part_of(graph)
    verts = graph.vertices()
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            if part[u] != part[v]:
                yield (u, v)


def degree_sequence(graph) -> list[int]:
    """Sorted degree multiset of a NonCentralizerGraph, from part sizes alone."""
    n = sum(len(p) for p in graph.parts)
    return sorted(n - len(p) for p in graph.parts for _ in p)


def frattini_by_maximal_subgroups(g: FiniteGroup) -> Subgroup:
    """Frattini subgroup straight from the definition: the intersection of
    the maximal subgroups, found among all subgroups by set inclusion."""
    subs = [frozenset(s.members) for s in all_subgroups(g) if s.size < g.order]
    members = frozenset(range(g.order))
    for h in subs:
        if not any(h < k for k in subs):
            members &= h
    return Subgroup(g, tuple(sorted(members)))


def product_map_is_isomorphism(g: FiniteGroup, h: Subgroup, a: Subgroup,
                               rebuilt: FiniteGroup) -> bool:
    """Whether (x, y) -> x*y maps rebuilt = direct_product(H, A), indexed
    i_h * |A| + i_a, bijectively onto G and preserves products."""
    phi = g.table[np.ix_(h.members, a.members)].ravel()
    return (np.unique(phi).size == phi.size == g.order
            and bool((phi[rebuilt.table] == g.table[np.ix_(phi, phi)]).all()))


def power(g: FiniteGroup, x: int, k: int) -> int:
    """x^k for any integer k, by k mod order(x) products."""
    acc = 0
    for _ in range(k % int(g.element_orders()[x])):
        acc = int(g.table[acc, x])
    return acc


def is_elementary_p(g: FiniteGroup) -> Optional[int]:
    """Prime p when every non-identity element has order exactly p, else None
    (also on the trivial group).  Commutativity is not required."""
    orders = g.element_orders()[1:]
    if not orders.size:
        return None
    p = int(orders[0])
    return p if is_prime(p) and bool((orders == p).all()) else None


# --- the theorem-suite checks as they were before their whole-group passes --
# Bodies kept unchanged, but for the names abelian_embeds (once
# checks._abelian_embeds) and parent_p_part_decomposition: each loops over
# the beta classes, building a subgroup or reading orders modulo C(x) per
# class, or, for big and big1, builds H as a group and measures its
# regularity again.


def abelian_embeds(a_orders: np.ndarray, b_orders: np.ndarray) -> bool:
    """Whether abelian group A embeds in abelian group B, given the orders of
    their elements.

    With Omega_k the elements whose order divides p^k, |Omega_k|/|Omega_k-1|
    is p to the number of cyclic factors of order at least p^k in the Sylow
    p-subgroup.  A embeds in B exactly when that ratio for A is at most the
    ratio for B, for every prime p and every k >= 1 (Macdonald, Symmetric
    Functions and Hall Polynomials, ch. II).  Comparing |Omega_k| alone does
    not suffice: |Omega_k(C4)| <= |Omega_k(C2 x C2)| for every k, yet C4 does
    not embed in C2 x C2.
    """
    for p, e in _prime_factors(int(a_orders.max())).items():
        omega_a = [np.count_nonzero(p ** k % a_orders == 0) for k in range(e + 1)]
        omega_b = [np.count_nonzero(p ** k % b_orders == 0) for k in range(e + 1)]
        if any(omega_a[k] * omega_b[k - 1] > omega_b[k] * omega_a[k - 1]
               for k in range(1, e + 1)):
            return False
    return True


def parent_check_ncen(g, label="G") -> CheckResult:
    """In regular groups every centralizer is normal with G/C embedding in Z.

    C = C(x) is normal with G/C abelian exactly when C contains G' (every
    subgroup above G' is; an abelian G/C kills every commutator), so one mask
    test decides both, and C is built only on a failure, to name which one
    failed.  Orders in G/C are read per element (orders_modulo); each appears
    |C| times, which scales both sides of every comparison in abelian_embeds
    alike.
    """
    if g.is_abelian or analysis.is_regular(g) is None:
        return _na("ncen", label, "not a non-abelian regular group")
    cents = _centralizer_rows(g)
    derived = g.commutator_subgroup().mask
    z_orders = g.element_orders()[g.beta_class_ids() == 0]
    for cid, inside in enumerate(cents[1:], start=1):
        if not inside[derived].all():
            normal = g.is_normal(g.centralizer(g.beta_classes()[cid][0]))
            return _result("ncen", label, False, witness=(
                ("class", cid), ("quotient_abelian" if normal else "normal", False)))
        orders = g.orders_modulo(inside)
        if not abelian_embeds(orders, z_orders):
            hist = _quotient_histogram(orders, np.count_nonzero(inside))
            return _result("ncen", label, False,
                           witness=(("class", cid), ("quotient_histogram", hist)))
    return _result("ncen", label, True, details={"classes_checked": len(cents) - 1})


def parent_p_part_decomposition(g: FiniteGroup, p: int):
    """Split G as (p-elements) x (central p'-part); None with a witness when
    the p-elements fail to form a subgroup of the right order."""
    p_elems = g.p_element_mask(p)
    h = g.generated_subgroup(np.flatnonzero(p_elems))
    if not np.array_equal(h.mask, p_elems):
        return None, ("p_elements_not_closed",)
    central = g.beta_class_ids() == 0
    a = g.subgroup(np.flatnonzero(central & (g.element_orders() % p != 0)))
    if h.size * a.size != g.order:
        return None, ("sizes", h.size, a.size)
    if np.count_nonzero(h.mask & a.mask) != 1:
        return None, ("intersection_nontrivial",)
    return (h, a), ()


def parent_check_lg(g, label="G") -> CheckResult:
    """beta(x) union Z(G) is a subgroup whenever C(x) is maximal."""
    if g.is_abelian:
        return _na("lg", label, "abelian")
    maximal = g.maximal_class_ids()
    for cid in maximal:
        try:
            analysis.h_subgroup(g, cid)
        except analysis.NotASubgroup as exc:
            return _result("lg", label, False, witness=(("class", cid), ("error", str(exc))))
    return _result("lg", label, True, details={"maximal_classes": len(maximal)})


def parent_check_lg1(g, label="G") -> CheckResult:
    """Induced regular with C(x) strictly above beta(x) u Z: some y in
    C(x) minus beta(x) has prime coset order."""
    if g.is_abelian or analysis.is_induced_regular(g) is None:
        return _na("lg1", label, "not induced regular")
    ids = g.beta_class_ids()
    cents = _centralizer_rows(g)
    strict = [cid for cid in g.maximal_class_ids()
              if not np.array_equal(cents[cid], (ids == cid) | (ids == 0))]
    if not strict:
        return _na("lg1", label, "no maximal centralizer exceeds beta u Z")
    coset_orders = g.center_coset_orders()
    found = {}
    for cid in strict:
        ys = [y for y in np.flatnonzero(cents[cid] & (ids != cid)).tolist()
              if is_prime(int(coset_orders[y]))]
        if not ys:
            return _result("lg1", label, False, witness=(("class", cid),))
        found[cid] = ys[0]
    return _result("lg1", label, True, details={"witnesses": found})


def parent_check_lg2(g, label="G") -> CheckResult:
    """Odd-prime coset-order witness in C(x) minus beta(x) forces
    (beta(x) u Z)/Z to be an elementary p-group: in G/Z its non-identity
    elements are the cosets of beta(x), so each member of beta(x) must have
    coset order p."""
    if g.is_abelian or analysis.is_induced_regular(g) is None:
        return _na("lg2", label, "not induced regular")
    ids = g.beta_class_ids()
    cents = _centralizer_rows(g)
    coset_orders = g.center_coset_orders()
    applicable = False
    for cid in g.maximal_class_ids():
        primes = {o for o in coset_orders[cents[cid] & (ids != cid)].tolist()
                  if o != 2 and is_prime(o)}
        if not primes:
            continue
        applicable = True
        try:
            hx = analysis.h_subgroup(g, cid).mask
        except analysis.NotASubgroup as exc:
            return _result("lg2", label, False, witness=(("class", cid), ("error", str(exc))))
        for p in sorted(primes):
            if (coset_orders[ids == cid] != p).any():
                hist = _quotient_histogram(coset_orders[hx], len(g.beta_classes()[0]))
                return _result("lg2", label, False, witness=(
                    ("class", cid), ("p", p), ("hx_quotient_histogram", hist)))
    if not applicable:
        return _na("lg2", label, "no odd-prime coset-order witness")
    return _result("lg2", label, True)


def parent_check_cmg(g, label="G") -> CheckResult:
    """Odd-order induced regular groups with every C(x) above beta u Z have
    elementary p-group central quotients."""
    if g.is_abelian or analysis.is_induced_regular(g) is None:
        return _na("cmg", label, "not induced regular")
    if g.order % 2 == 0:
        return _na("cmg", label, "even order")
    ids = g.beta_class_ids()
    comm = g.commuting_matrix()
    for cid, members in enumerate(g.beta_classes()[1:], start=1):
        if np.array_equal(comm[members[0]], (ids == cid) | (ids == 0)):
            return _na("cmg", label, "some centralizer equals beta u Z")
    return _result("cmg", label, _quotient_exponent(g) is not None,
                   witness=(("quotient_histogram", _center_histogram(g)),))


def parent_check_big(g, label="G") -> CheckResult:
    """Regular groups split as (regular 2-group) x (odd abelian).

    _p_part_decomposition finds H, the 2-elements, checked to be a subgroup
    (so normal: conjugation keeps element orders), and A, the central
    elements of odd order, with H n A = 1 and |H||A| = |G|.  As A is central,
    (h, a) -> h*a is a homomorphism H x A -> G; H n A = 1 makes it
    injective, and |H||A| = |G| onto.  So G = H x A, and |A| is odd: by
    Cauchy's theorem an even |A| would put an element of order 2 in A.  What
    is left to measure is H regular.
    """
    if g.is_abelian or analysis.is_regular(g) is None:
        return _na("big", label, "not a non-abelian regular group")
    split, witness = parent_p_part_decomposition(g, 2)
    if split is None:
        return _result("big", label, False, witness=witness)
    h, a = split
    h_deg = analysis.is_regular(h.as_group())
    if h_deg is None:
        return _result("big", label, False, witness=(("sylow2_not_regular", h.size),))
    return _result("big", label, True, details={
        "sylow2_order": h.size, "abelian_order": a.size, "sylow2_degree": h_deg})


def parent_check_big1(g, label="G") -> CheckResult:
    """Induced regular groups split as (induced regular p-group) x abelian.

    With p the prime of [G:Z], _p_part_decomposition finds H, the
    p-elements, checked to be a subgroup (so normal), and A, the central
    p'-elements, with H n A = 1 and |H||A| = |G|; as in check_big,
    (h, a) -> h*a is then an isomorphism H x A -> G.  H is a p-group, as by
    Cauchy's theorem any other prime dividing |H| would give it an element
    of that order, so what is left to measure is H induced regular.
    """
    if g.is_abelian or analysis.is_induced_regular(g) is None:
        return _na("big1", label, "not a non-abelian induced regular group")
    pk = is_prime_power(_index(g))
    if pk is None:
        return _result("big1", label, False,
                       witness=(("central_quotient_not_p_group", _index(g)),))
    p = pk[0]
    split, witness = parent_p_part_decomposition(g, p)
    if split is None:
        return _result("big1", label, False, witness=witness)
    h, a = split
    if analysis.is_induced_regular(h.as_group()) is None:
        return _result("big1", label, False,
                       witness=(("p_part_not_induced_regular", h.size),))
    return _result("big1", label, True,
                   details={"p": p, "p_part_order": h.size, "abelian_order": a.size})


def parent_scan_relators(ct, alpha: int, rel_letters: list[list[int]], fill: bool = True) -> bool:
    """presentation._CosetTable.scan_relators before closed power-relator
    loops were skipped: every relator is walked in full at alpha, defining
    cosets to complete each scan when fill is set; False once alpha has died."""
    rows, p = ct.rows, ct.p
    for letters in rel_letters:
        f, i = alpha, 0
        b, j = alpha, len(letters) - 1
        while True:
            while i <= j and (nxt := rows[f][letters[i]]) is not None:
                f = nxt
                i += 1
            while j >= i and (nxt := rows[b][letters[j] ^ 1]) is not None:
                b = nxt
                j -= 1
            if j < i:
                if f != b:
                    ct.coincidence(f, b)
                break
            if j == i:
                rows[f][letters[i]] = b
                rows[b][letters[i] ^ 1] = f
                break
            if not fill:
                break
            ct.define(f, letters[i])
        if p[alpha] != alpha:
            return False
    return True


# --- the family constructors and direct_product before their tables were
# built in int32: each widens to int64 and goes through from_table (the
# product through FiniteGroup), the reference the int32 builds must match


def parent_cyclic(n: int) -> FiniteGroup:
    """C_n as addition mod n."""
    if n < 1:
        raise ValueError("cyclic order must be >= 1")
    check_table_budget(n)
    idx = np.arange(n)
    table = idx[:, None] + idx
    table[table >= n] -= n
    labels = ["e"] + [f"a{i}" if i > 1 else "a" for i in range(1, n)]
    return from_table(table, labels[:n])


def parent_elementary_abelian(p: int, k: int) -> FiniteGroup:
    """Direct product of k copies of C_p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("need k >= 1")
    check_table_budget(p ** k)
    g = parent_cyclic(p)
    for _ in range(k - 1):
        g = parent_direct_product(g, parent_cyclic(p))
    return g


def parent_split_grid(n: int, m: int):
    """(fa, ia, fb, ib) with divmod(a, m) = (fa, ia) down the rows and
    divmod(b, m) = (fb, ib) across the columns of an n x n grid."""
    f, i = np.divmod(np.arange(n), m)
    return f[:, None], i[:, None], f[None, :], i[None, :]


def parent_dihedral(m: int) -> FiniteGroup:
    """Dihedral group of order 2m: <r, s | r^m = s^2 = e, s r s = r^-1>.

    Element i < m is r^i; element m + i is s * r^i.
    """
    if m < 2:
        raise ValueError("dihedral needs m >= 2")
    check_table_budget(2 * m)
    fa, ia, fb, ib = parent_split_grid(2 * m, m)
    # (s^fa r^ia)(s^fb r^ib): pushing r^ia past s flips its sign
    table = (fa ^ fb) * m + np.where(fb == 1, ib - ia, ia + ib) % m
    labels = ["e"] + [f"r{i}" if i > 1 else "r" for i in range(1, m)]
    labels += ["s"] + [f"sr{i}" if i > 1 else "sr" for i in range(1, m)]
    return from_table(table, labels)


def parent_generalized_quaternion(order: int) -> FiniteGroup:
    """Q_{2^k}: <a, b | a^{2^{k-1}} = e, b^2 = a^{2^{k-2}}, b a b^-1 = a^-1>.

    Element i < m = 2^{k-1} is a^i; element m + i is b * a^i.
    """
    k = order.bit_length() - 1
    if order != 1 << k or k < 3:
        raise ValueError("generalized quaternion is defined for orders 2^k, k >= 3")
    check_table_budget(order)
    m = order // 2
    half = m // 2  # b^2 = a^half
    fa, ia, fb, ib = parent_split_grid(order, m)
    # as in the dihedral case, plus b^2 = a^half when both factors carry b
    table = (fa ^ fb) * m + np.where(fb == 1, ib - ia + half * fa, ia + ib) % m
    labels = ["e"] + [f"a{i}" if i > 1 else "a" for i in range(1, m)]
    labels += ["b"] + [f"ba{i}" if i > 1 else "ba" for i in range(1, m)]
    return from_table(table, labels)


def parent_modular_M(order: int) -> FiniteGroup:
    """Modular maximal-cyclic group of order 2^k, k >= 3:
    <a, b | a^{2^{k-1}} = b^2 = e, b a b = a^{2^{k-2}+1}>.
    """
    k = order.bit_length() - 1
    if order != 1 << k or k < 3:
        raise ValueError("modular_M is defined for orders 2^k, k >= 3")
    check_table_budget(order)
    m = order // 2
    t = m // 2 + 1  # b a b = a^t
    fa, ia, fb, ib = parent_split_grid(order, m)
    # a^ia b = b a^{ia*t}, so (b^fa a^ia)(b a^ib) = b^{fa+1} a^{ia*t+ib}
    table = (fa ^ fb) * m + (np.where(fb == 1, ia * t, ia) + ib) % m
    labels = ["e"] + [f"a{i}" if i > 1 else "a" for i in range(1, m)]
    labels += ["b"] + [f"ba{i}" if i > 1 else "ba" for i in range(1, m)]
    return from_table(table, labels)


def parent_heisenberg(p: int) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over F_p (odd p): extraspecial of
    order p^3 and exponent p.

    Element index encodes the matrix entries as a*p^2 + b*p + c for
    [[1, a, c], [0, 1, b], [0, 0, 1]].
    """
    if not is_prime(p) or p == 2:
        raise ValueError("heisenberg needs an odd prime")
    n = p ** 3
    check_table_budget(n)
    a, r = np.divmod(np.arange(n), p * p)
    b, c = np.divmod(r, p)
    a1, b1, c1 = a[:, None], b[:, None], c[:, None]
    a2, b2, c2 = a[None, :], b[None, :], c[None, :]
    table = ((a1 + a2) % p) * p * p + ((b1 + b2) % p) * p + (c1 + c2 + a1 * b2) % p
    labels = [f"t({x // (p * p)},{(x // p) % p},{x % p})" for x in range(n)]
    return from_table(table, labels)


def parent_direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Componentwise product on pairs, ordered a-major: index = i_a * |B| + i_b."""
    na, nb = a.order, b.order
    check_table_budget(na * nb)
    ta = np.asarray(a.table, dtype=np.int64)
    tb = np.asarray(b.table, dtype=np.int64)
    table = (ta[:, None, :, None] * nb + tb[None, :, None, :]).reshape(na * nb, na * nb)
    labels = [f"({la},{lb})" for la in a.labels for lb in b.labels]
    return FiniteGroup(table, labels)


# --- the regularity tests before they read FiniteGroup.beta_class_sizes(),
# is_reduced_regular and the Table-1 search before it returned None off its
# domain, and from_table's checks before the identity moved in place


class NotRegular2Group(ValueError):
    """Reduced-regularity is defined only for regular non-abelian 2-groups."""


def parent_is_regular(g: FiniteGroup) -> Optional[int]:
    """Degree of the non-centralizer graph when it is regular, else None.

    Abelian groups are 0-regular (single-part, edgeless graph).  A non-abelian
    group is regular exactly when every class is a single center coset, giving
    degree |G| - |Z(G)|.
    """
    if g.is_abelian:
        return 0
    classes = g.beta_classes()
    z = len(classes[0])
    if all(len(c) == z for c in classes):
        return g.order - z
    return None


def parent_is_induced_regular(g: FiniteGroup) -> Optional[int]:
    """Degree of the induced graph (non-central vertices) when regular.

    Abelian groups are vacuously induced regular (empty vertex set, degree 0).
    Otherwise all non-center classes must share one size s and the degree is
    (|G| - |Z(G)|) - s.
    """
    if g.is_abelian:
        return 0
    classes = g.beta_classes()
    sizes = {len(c) for c in classes[1:]}
    if len(sizes) != 1:
        return None
    s = sizes.pop()
    return (g.order - len(classes[0])) - s


def parent_maximal_class_ids(g: FiniteGroup) -> tuple[int, ...]:
    """FiniteGroup.maximal_class_ids with its intersection counts formed in
    int64, which numpy multiplies without BLAS."""
    reps = [c[0] for c in g.beta_classes()[1:]]
    rows = g.commuting_matrix()[reps].astype(np.int64)
    common = rows @ rows.T  # |C_i & C_j|
    size = np.diag(common)
    inside_larger = (common == size[:, None]) & (size[None, :] > size[:, None])
    return tuple((np.flatnonzero(~inside_larger.any(axis=1)) + 1).tolist())


def parent_is_reduced_regular(g: FiniteGroup) -> bool:
    """True iff a regular non-abelian 2-group admits no decomposition
    H x A with A a non-trivial abelian group; raises NotRegular2Group off
    that domain."""
    if g.is_abelian or g.is_p_group() != 2 or parent_is_regular(g) is None:
        raise NotRegular2Group("reduced-regularity needs a regular non-abelian 2-group")
    return not analysis._pure_cyclic(g, np.asarray(g.center().members[1:])).any()


def parent_table1_search(entries) -> list[tuple[int, list[str]]]:
    """Rows (n, labels) of reduced n-regular 2-groups found in the entries."""
    rows: dict[int, list[str]] = {}
    for e in entries:
        g = e.group()
        if g.is_abelian or g.is_p_group() != 2:
            continue
        degree = parent_is_regular(g)
        if degree is None:
            continue
        if parent_is_reduced_regular(g):
            rows.setdefault(degree, []).append(e.label)
    return [(n, sorted(labels, key=label_sort_key)) for n, labels in sorted(rows.items())]


def parent_adopt_table(table: np.ndarray, labels=None) -> FiniteGroup:
    """from_table's checks on an int32 copy, with an identity that is not at
    index 0 relocated by the out-of-place relabeling perm[table[ix(perm, perm)]]."""
    n = table.shape[0]
    try:
        e = _find_identity(table)
        labels = [f"g{i}" for i in range(n)] if labels is None else list(labels)
        if len(labels) != n:
            raise NotAGroup("label count does not match order")
        group = table
        if e != 0:
            # swap indices 0 and e; the swap is its own inverse
            perm = np.arange(n, dtype=np.int32)
            perm[e], perm[0] = 0, e
            group = perm[table[np.ix_(perm, perm)]]
            labels[0], labels[e] = labels[e], labels[0]
        gens = _greedy_sequence(group)
        _check_associativity(group, islice(gens, n.bit_length() - 1))
        if next(gens, None) is not None:
            raise NotAGroup(f"more than {n.bit_length() - 1} greedy generators")
        _inverses(group)
    except NotAGroup:
        for name, t in (("row", table), ("column", table.T)):
            ok = (np.sort(t, axis=1) == np.arange(n)).all(axis=1)
            if not ok.all():
                raise NotAGroup(f"{name} {int(np.argmin(ok))} is not a permutation of 0..{n - 1}")
        raise
    return FiniteGroup(group, labels)


def _extend_map(a: FiniteGroup, b: FiniteGroup, fmap: dict, used: set,
                gen: int, image: int) -> Optional[tuple[dict, set]]:
    """Extend a partial isomorphism domain-closed under products, or fail."""
    fmap = dict(fmap)
    used = set(used)
    if image in used:
        return None
    fmap[gen] = image
    used.add(image)
    frontier = [gen]
    while frontier:
        nxt = []
        for x in frontier:
            for y in list(fmap.keys()):
                for p, q in (((int(a.table[x, y])), int(b.table[fmap[x], fmap[y]])),
                             ((int(a.table[y, x])), int(b.table[fmap[y], fmap[x]]))):
                    if p in fmap:
                        if fmap[p] != q:
                            return None
                    else:
                        if q in used:
                            return None
                        fmap[p] = q
                        used.add(q)
                        nxt.append(p)
        frontier = nxt
    return fmap, used


def parent_is_isomorphic(a: FiniteGroup, b: FiniteGroup) -> bool:
    """core.is_isomorphic before core.generator_maps: the same screens, then a
    backtracking search that extends a partial map one generator image at a
    time, closing its domain under products element by element (_extend_map)."""
    if a.order != b.order:
        return False
    if a.order > ISO_ORDER_CAP:
        raise TooLarge(f"isomorphism testing capped at order {ISO_ORDER_CAP}")
    if fingerprint(a) != fingerprint(b):
        return False
    if a.order == 1:
        return True
    if a.is_abelian:
        # equal order histograms classify finite abelian groups
        return True

    rows_a, kind_a, count_a = np.unique(a.element_keys(), axis=0,
                                        return_inverse=True, return_counts=True)
    rows_b, kind_b, count_b = np.unique(b.element_keys(), axis=0,
                                        return_inverse=True, return_counts=True)
    if not (np.array_equal(rows_a, rows_b) and np.array_equal(count_a, count_b)):
        return False
    kind_a, kind_b = kind_a.ravel(), kind_b.ravel()
    # rarest key first, ties by index
    gens = greedy_generators(a.table, count_a[kind_a] * a.order + np.arange(a.order))

    def search(i: int, fmap: dict, used: set) -> bool:
        if i == len(gens):
            return len(fmap) == a.order
        gen = gens[i]
        if gen in fmap:
            return search(i + 1, fmap, used)
        for cand in np.flatnonzero(kind_b == kind_a[gen]).tolist():
            ext = _extend_map(a, b, fmap, used, gen, cand)
            if ext is not None:
                if search(i + 1, ext[0], ext[1]):
                    return True
        return False

    return search(0, {0: 0}, {0})
