"""Slow reference implementations that the tests cross-check the library
against, each computed closer to the definitions than the code it checks.

None of this is library API: nothing in src/, tools/ or perfbench/ imports
it.  Tests import it as `oracles` (pytest puts tests/ on sys.path).
"""

from typing import Optional

import numpy as np

from noncent.core import (FiniteGroup, Subgroup, TooLarge, all_subgroups, greedy_generators,
                          is_prime)

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
    lift_choices = [cosets[q].members for q in greedy_generators(quo.table)]
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


def edges(graph):
    """Yield the edges (u, v) of a NonCentralizerGraph, u < v ascending,
    pair by pair: the reference for graph.export."""
    part_of = graph.part_of()
    verts = graph.vertices()
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            if part_of[u] != part_of[v]:
                yield (u, v)


def degree_sequence(graph) -> list[int]:
    """Sorted degree multiset of a NonCentralizerGraph, from part sizes alone."""
    n = graph.vertex_count
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
