"""Immutable finite groups over 0-based element indices, with structural queries.

A group is a validated n x n multiplication table.  Validation is exact at
every order: associativity is checked by Light's test on a generating set
(Clifford & Preston, Algebraic Theory of Semigroups I, 1961, 1.2).  Index 0
is always the identity.  All operations are pure; FiniteGroup and Subgroup
never mutate after construction (internal caches aside), so instances are
safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import wraps
from itertools import combinations, islice
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

__all__ = [
    "NotAGroup",
    "NotNormal",
    "TooLarge",
    "TRIVIAL",
    "FiniteGroup",
    "Subgroup",
    "from_table",
    "from_permutations",
    "direct_product",
    "greedy_generators",
    "row_classes",
    "check_table_budget",
    "fingerprint",
    "is_isomorphic",
    "generator_maps",
    "all_subgroups",
]

ISO_ORDER_CAP = 512
SUBGROUP_CAP = 20_000  # subgroups all_subgroups may find before it raises TooLarge
TABLE_BYTE_BUDGET = 256 << 20
"""Budget for a group's n x n work, counted at 8 bytes an entry (the table
is int32, half that): order 5792.  cyclic(2048) counts 32 MiB, E(2^13) 512."""

TRIVIAL = "trivial"
"""Marker returned by is_p_group for the order-1 group (a p-group for every p)."""


class NotAGroup(ValueError):
    """The given table violates a group axiom."""


class NotNormal(ValueError):
    """Quotient requested by a non-normal subgroup."""


class TooLarge(ValueError):
    """Group order exceeds the supported cap for this operation."""


def check_table_budget(n: int) -> None:
    """Raise TooLarge when n x n entries at 8 bytes each would exceed
    TABLE_BYTE_BUDGET, naming that size in MiB rounded up; called before the
    table, or anything else of size n x n, is allocated."""
    if 8 * n * n > TABLE_BYTE_BUDGET:
        raise TooLarge(f"order {n} needs a {-(-8 * n * n >> 20)} MiB table, over the "
                       f"{TABLE_BYTE_BUDGET >> 20} MiB budget")


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(math.isqrt(n)) + 1))


def is_prime_power(n: int) -> Optional[tuple[int, int]]:
    """Return (p, k) when n = p^k with k >= 1, else None."""
    if n < 2:
        return None
    fac = _prime_factors(n)
    if len(fac) != 1:
        return None
    ((p, k),) = fac.items()
    return p, k


def _cached(fn):
    """Compute fn(g, *args) once per group and keep it in g._cache, keyed by
    fn's name, or by (name, *args) when hashable args are given: a name must
    be unique across every _cached function.  An ndarray, alone or in a
    returned tuple, is made read-only before it is kept."""
    name = fn.__name__

    @wraps(fn)
    def cached(g, *args):
        cache, key = g._cache, (name, *args) if args else name
        if key not in cache:
            value = fn(g, *args)
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)
            cache[key] = value
        return cache[key]
    return cached


_BLOCK = 64  # rows or columns per step of the blocked n x n passes


def _blocks(n: int) -> Iterator[slice]:
    return (slice(i, i + _BLOCK) for i in range(0, n, _BLOCK))


def _dense_ids(keys: np.ndarray, n: int) -> np.ndarray:
    """np.unique(keys, return_inverse=True)[1] for keys in 0..n-1, without a
    sort: the distinct keys, marked in a mask, are numbered by its running count."""
    present = np.zeros(n, dtype=bool)
    present[keys] = True
    return (np.cumsum(present) - 1)[keys]


def _quotient_histogram(orders: np.ndarray, size: int = 1) -> tuple[tuple[int, int], ...]:
    """order_histogram of G/N, or of a subset of it, from the per-element
    orders modulo N with |N| = size: each coset's order appears size times."""
    counts = np.bincount(orders)
    vals = np.flatnonzero(counts)
    return tuple(zip(vals.tolist(), (counts[vals] // size).tolist()))


def _split_by_id(ids: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The elements with each id 0..m-1, ascending, indexed by id."""
    members, ends = np.argsort(ids, kind="stable").tolist(), np.cumsum(np.bincount(ids)).tolist()
    return tuple(tuple(members[i:j]) for i, j in zip([0] + ends, ends))


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of parent, as a sorted tuple of parent element indices.

    Its working form is `mask`, a read-only boolean array over the parent's
    elements built once from members; every subgroup operation reads it.
    The constructor trusts its input: FiniteGroup.subgroup validates a member
    set, and generated_subgroup / centralizer / center build correct ones.
    """

    parent: "FiniteGroup"
    members: tuple[int, ...]

    def __post_init__(self):
        mask = np.zeros(self.parent.order, dtype=bool)
        mask[list(self.members)] = True
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

    @property
    def size(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return 0 <= x < self.parent.order and bool(self.mask[x])

    def __iter__(self):
        return iter(self.members)

    def as_group(self) -> "FiniteGroup":
        """Materialize this subgroup as a standalone FiniteGroup.

        New element i corresponds to parent element self.members[i]; index 0
        stays the identity because members are sorted and contain 0.  The
        table is the parent's restricted to a subgroup, so it is not
        validated again.  The whole group is the parent itself: same table,
        same labels, and its caches come along.
        """
        g = self.parent
        if self.size == g.order:
            return g
        pos = np.cumsum(self.mask) - 1
        return FiniteGroup(pos[g.table[np.ix_(self.mask, self.mask)]],
                           [g.labels[m] for m in self.members])

    def coset_index(self) -> np.ndarray:
        """Number of the left coset x*H of every parent element x; cosets are
        numbered by their smallest member, so the identity coset is 0."""
        return _dense_ids(self.parent.table[:, self.mask].min(axis=1), self.parent.order)

    def cosets(self) -> tuple[tuple[int, ...], ...]:
        """Members of each left coset x*H, ordered by smallest member
        (identity coset first)."""
        return _split_by_id(self.coset_index())


class FiniteGroup:
    """A finite group on elements 0..n-1 given by its multiplication table.

    table[i, j] is the index of (element i) * (element j).  The raw
    constructor trusts its input and keeps a C-contiguous int32 table as is,
    read-only (any other is copied to one).  from_table and the family
    constructors validate the axioms; from_permutations and enumerate_presentation
    check the table they build from an action with the action's own letters;
    direct_product, Subgroup.as_group and quotient build tables that are
    correct by construction.

    Derived structure is computed once and kept in the group's one cache
    (generators(), inverses, commuting matrix, beta classes, their sizes and
    the maximal ones, power_maps(p), element orders and the orders of the center
    cosets, conjugacy classes, element keys and their classes, fingerprint, the
    regularity degrees and the theorem suite's per-group quantities).  It
    holds read-only arrays, tuples, ints, bools and None, never a group, so
    nothing in it refers back to this one: dropping the last reference to a
    group frees its table at once instead of leaving a reference cycle.
    generators() is the set a constructor checked the table with, else the greedy
    one.  is_abelian compares it pairwise, so an abelian group's beta class, commutator
    and element keys need no commuting matrix; commutators use one member per center coset.
    """

    __slots__ = ("order", "table", "labels", "_cache")

    def __init__(self, table: np.ndarray, labels: Sequence[str],
                 generators: Optional[Iterable[int]] = None):
        n = table.shape[0]
        self.order = n
        t = np.ascontiguousarray(table, dtype=np.int32)
        t.setflags(write=False)
        self.table = t
        self.labels = tuple(labels)
        self._cache = {} if generators is None else {"generators": tuple(generators)}

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"

    @_cached
    def generators(self) -> tuple[int, ...]:
        """The generating set given at construction, else greedy_generators."""
        return tuple(greedy_generators(self.table))

    @_cached
    def inverses(self) -> np.ndarray:
        return _inverses(self.table).astype(np.int32)

    @_cached
    def commuting_matrix(self) -> np.ndarray:
        """Boolean matrix M with M[x, y] iff x and y commute, compared
        _BLOCK columns at a time so that the transposed rows stay in cache."""
        t = self.table
        m = np.empty(t.shape, dtype=bool)
        for s in _blocks(self.order):
            np.equal(t[:, s], t[s].T, out=m[:, s])
        return m

    @_cached
    def beta_class_ids(self) -> np.ndarray:
        """Equal-centralizer (beta) class of every element: elements share a
        class exactly when their centralizers are equal.  Classes are numbered
        by smallest member, so class 0 is the center (all of an abelian group)."""
        if self.is_abelian:
            return np.zeros(self.order, dtype=np.intp)
        return row_classes(self.commuting_matrix())

    @_cached
    def beta_classes(self) -> tuple[tuple[int, ...], ...]:
        """Members of each beta class, indexed by class id."""
        return _split_by_id(self.beta_class_ids())

    @_cached
    def beta_class_sizes(self) -> np.ndarray:
        """Size of each beta class, indexed by class id: entry 0 is |Z(G)|."""
        return np.bincount(self.beta_class_ids())

    @_cached
    def maximal_class_ids(self) -> tuple[int, ...]:
        """Non-central beta classes whose centralizer is maximal under
        inclusion among proper centralizers, ascending; empty when abelian.
        Decided from the commuting-matrix rows of one member per class."""
        reps = [c[0] for c in self.beta_classes()[1:]]
        rows = self.commuting_matrix()[reps].astype(np.float32)
        common = rows @ rows.T  # |C_i & C_j| <= n <= 5792 < 2^24 (table budget): exact
        size = np.diag(common)
        inside_larger = (common == size[:, None]) & (size[None, :] > size[:, None])
        maximal = np.flatnonzero(~inside_larger.any(axis=1)) + 1  # class ids
        return tuple(maximal.tolist())

    @property
    @_cached
    def is_abelian(self) -> bool:
        return all(self.table[a, b] == self.table[b, a] for a, b in combinations(self.generators(), 2))

    @_cached
    def power_maps(self, p: int) -> np.ndarray:
        """Row k is the map x -> x^(p^k), for k = 0..a with p^a the p-part of |G|."""
        maps = [np.arange(self.order)]
        for _ in range(_prime_factors(self.order).get(p, 0)):
            acc = maps[-1]
            for _ in range(p - 1):
                acc = self.table[acc, maps[-1]]
            maps.append(acc)
        return np.array(maps)

    @_cached
    def element_orders(self) -> np.ndarray:
        return self.orders_modulo(np.arange(self.order) == 0)

    @_cached
    def center_coset_orders(self) -> np.ndarray:
        """Order of every element's center coset in G/Z(G), read without
        building G/Z(G)."""
        return self.orders_modulo(self.beta_class_ids() == 0)

    def orders_modulo(self, inside_mask: np.ndarray) -> np.ndarray:
        """Least k >= 1 with x^k inside the mask, for every element x.

        For the mask of a normal subgroup N this is the order of xN in G/N,
        read without building the quotient; element_orders is the case N = 1.
        """
        orders = np.ones(self.order, dtype=np.int32)
        live = acc = np.flatnonzero(~inside_mask)  # acc = live ** orders[live]
        while live.size:
            acc = self.table[acc, live]
            orders[live] += 1
            keep = ~inside_mask[acc]
            live, acc = live[keep], acc[keep]
        return orders

    def order_histogram(self) -> tuple[tuple[int, int], ...]:
        return _quotient_histogram(self.element_orders())

    def centralizer(self, x: int) -> Subgroup:
        """Subgroup of all elements commuting with x."""
        return Subgroup(self, tuple(np.flatnonzero(self.commuting_matrix()[x]).tolist()))

    def center(self) -> Subgroup:
        return Subgroup(self, self.beta_classes()[0])

    @_cached
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Conjugacy classes ordered by smallest member."""
        t = self.table
        # column x holds (g*x)*g^-1 for every g: its minimum is the smallest
        # member of x's class
        smallest = t[t, self.inverses()[:, None]].min(axis=0)
        return _split_by_id(_dense_ids(smallest, self.order))

    @_cached
    def element_keys(self) -> np.ndarray:
        """Isomorphism-invariant key of every element, one row each: order,
        order of x^2, |C(x)|, conjugacy class size, |beta(x)|, number of
        square roots (|C(x)| = n in an abelian group, without the commuting
        matrix).  An isomorphism maps each element to one with the same row."""
        n, orders = self.order, self.element_orders()
        squares = np.diagonal(self.table)
        classes = self.conjugacy_classes()
        lens = np.array([len(c) for c in classes])
        class_size = np.empty(n, dtype=np.int64)
        class_size[np.concatenate(classes)] = np.repeat(lens, lens)
        ids = self.beta_class_ids()
        cent_size = np.full(n, n) if self.is_abelian else self.commuting_matrix().sum(axis=1)
        return np.column_stack([
            orders, orders[squares], cent_size, class_size, self.beta_class_sizes()[ids],
            np.bincount(squares, minlength=n)]).astype(np.int64)

    def subgroup(self, members: Iterable[int]) -> Subgroup:
        """Validate a member set as a subgroup and return it.

        The set must lie in 0..n-1, contain the identity and be closed under
        products; in a finite group that makes it a subgroup (inverses and
        Lagrange follow).  Raises ValueError otherwise.
        """
        ms = np.unique(np.fromiter(members, dtype=np.int64))
        if ms.size and (ms[0] < 0 or ms[-1] >= self.order):
            raise ValueError(f"subgroup members must lie in 0..{self.order - 1}")
        if not ms.size or ms[0] != 0:
            raise ValueError("subgroup must contain the identity (index 0)")
        sub = Subgroup(self, tuple(ms.tolist()))
        closed = sub.mask[self.table[np.ix_(ms, ms)]]
        if not closed.all():
            a, b = np.argwhere(~closed)[0]
            raise ValueError(f"member set not closed under product at ({ms[a]},{ms[b]})")
        return sub

    def generated_subgroup(self, seeds: Iterable[int]) -> Subgroup:
        """Smallest subgroup containing the seed elements: the right closure
        of the identity under the seeds (in a finite group the generated
        monoid is the subgroup)."""
        gens = np.fromiter(seeds, dtype=np.int64)
        if gens.size and (gens.min() < 0 or gens.max() >= self.order):
            raise ValueError(f"generators must lie in 0..{self.order - 1}")
        reached = np.arange(self.order) == 0
        _right_closure(self.table, reached, gens)
        return Subgroup(self, tuple(np.flatnonzero(reached).tolist()))

    def p_element_mask(self, p: int) -> np.ndarray:
        """Mask of the x whose order is a power of p: x^(p^a) = 1, p^a the p-part of |G|."""
        return self.power_maps(p)[-1] == 0

    def is_normal(self, h: Subgroup) -> bool:
        """True iff g*H*g^-1 = H for every g."""
        if h.parent is not self:
            raise ValueError("subgroup belongs to a different group")
        t = self.table
        return bool(h.mask[t[t[:, h.mask], self.inverses()[:, None]]].all())

    def quotient(self, n_sub: Subgroup) -> "FiniteGroup":
        """Quotient group G/N on the cosets of N; coset of the identity is index 0.

        The table is the coset map applied to products of the coset
        representatives (smallest members), so it is not validated again.
        """
        if not self.is_normal(n_sub):
            raise NotNormal("subgroup is not normal; quotient undefined")
        cidx = n_sub.coset_index()
        reps = np.unique(cidx, return_index=True)[1]
        return FiniteGroup(cidx[self.table[np.ix_(reps, reps)]],
                           [f"[{self.labels[r]}]" for r in reps])

    def is_p_group(self) -> Union[int, str, None]:
        """Prime p when |G| = p^k (k >= 1); TRIVIAL for order 1; None otherwise."""
        if self.order == 1:
            return TRIVIAL
        pk = is_prime_power(self.order)
        return pk[0] if pk else None

    def frattini(self) -> Subgroup:
        """Frattini subgroup (intersection of all maximal subgroups) of a
        nilpotent group.

        G is nilpotent exactly when for every p^k exactly dividing |G| it has
        p^k p-elements (its one Sylow p-subgroup P).  Then Phi(G) is the product
        of the Phi(P) = P'P^p (Huppert, Endliche Gruppen I, III.3), the
        subgroup generated by G' and the p-th powers of the p-elements.  Raises
        ValueError on a group that is not nilpotent.
        """
        seeds = np.zeros(self.order, dtype=bool)  # each once: a round gathers frontier x seeds
        seeds[self._commutators()] = True
        for p, k in _prime_factors(self.order).items():
            x = np.flatnonzero(self.p_element_mask(p))
            if x.size != p ** k:
                raise ValueError("frattini() needs a nilpotent group")
            seeds[self.power_maps(p)[1, x]] = True  # their p-th powers
        return self.generated_subgroup(np.flatnonzero(seeds))

    def commutator_subgroup(self) -> Subgroup:
        return self.generated_subgroup(self._commutators())

    def _commutators(self) -> np.ndarray:
        """Distinct commutators (b*a)^-1 (a*b), ascending, over the least members a, b
        of the center cosets ([az, bz'] = [a, b] for central z, z'), _BLOCK a at a
        time; the identity alone when abelian."""
        if self.is_abelian:
            return np.zeros(1, dtype=np.intp)
        t, inv = self.table, self.inverses()
        reps = np.flatnonzero(t[self.beta_class_ids() == 0].min(axis=0) == np.arange(self.order))
        seen = np.zeros(self.order, dtype=bool)
        for s in _blocks(reps.size):
            seen[t[inv[t[reps[:, None], reps[s]].T], t[reps[s, None], reps]]] = True
        return np.flatnonzero(seen)


def _find_identity(table: np.ndarray) -> int:
    n = table.shape[0]
    idx = np.arange(n)
    for e in range(n):
        if (table[e] == idx).all() and (table[:, e] == idx).all():
            return e
    raise NotAGroup("no two-sided identity element")


def from_table(rows: Sequence[Sequence[int]], labels: Optional[Sequence[str]] = None) -> FiniteGroup:
    """Build a validated FiniteGroup from a multiplication table.

    Checks square, non-empty and entries in range on the input as given, so
    that no entry wraps when narrowed, then those of _adopt_table on one int32
    copy; the caller's array is left alone.  A sized input over the table
    budget raises TooLarge before it is converted.
    """
    if hasattr(rows, "__len__"):
        check_table_budget(len(rows))
    table = np.asarray(rows)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise NotAGroup("table is not square")
    n = table.shape[0]
    if n == 0:
        raise NotAGroup("empty table")
    if not (table.min() >= 0 and table.max() < n):  # false for NaN too
        raise NotAGroup("table entries out of range")
    return _adopt_table(table.astype(np.int32, order="C"), labels)


def _adopt_table(table: np.ndarray, labels: Optional[Sequence[str]]) -> FiniteGroup:
    """The group on a square C-contiguous int32 table with entries in 0..n-1,
    which becomes its read-only table, not copied, once these checks pass in
    order: a two-sided identity (moved to index 0 by relabeling in place),
    the label count, exact associativity by Light's test on a generating set,
    two-sided inverses; NotAGroup names the first that fails.  A table passing
    them all is a group and so a Latin square: the Latin-square check runs
    only on a rejected table, whose first input row, then column, that is not
    a permutation is named instead.  Rejecting costs O(n^2 log n): Light's
    test stops past log2(n) generators, which no group needs."""
    n, moved = table.shape[0], 0  # the input index of element 0
    try:
        e = _find_identity(table)
        labels = [f"g{i}" for i in range(n)] if labels is None else list(labels)
        if len(labels) != n:
            raise NotAGroup("label count does not match order")
        if e != 0:
            # swap indices 0 and e in place: rows, columns, then values
            moved, swap = e, np.arange(n, dtype=np.int32)
            swap[[0, e]] = e, 0
            table[[0, e]] = table[[e, 0]]
            table[:, [0, e]] = table[:, [e, 0]]
            for s in _blocks(n):
                table[s] = swap[table[s]]
            labels[0], labels[e] = labels[e], labels[0]
        # Light's test on the greedy sequence, drawn one generator at a time,
        # so its closures run only over generators (and powers) that passed.
        # In a Latin square k that passed generate a subsquare of at least 2^k
        # elements, all n once 2^k > n/2: one more names a bad row or column.
        gens = _greedy_sequence(table)
        tested = _check_associativity(table, islice(gens, n.bit_length() - 1))
        if next(gens, None) is not None:
            raise NotAGroup(f"more than {n.bit_length() - 1} greedy generators")
        _inverses(table)
    except NotAGroup:
        for name, t in (("row", table), ("column", table.T)):
            ok = (np.sort(t, axis=1) == np.arange(n)).all(axis=1)
            ok[[0, moved]] = ok[[moved, 0]]  # by input index: the swap permutes lines
            if not ok.all():
                raise NotAGroup(f"{name} {int(np.argmin(ok))} is not a permutation of 0..{n - 1}")
        raise
    return FiniteGroup(table, labels, tested)


def greedy_generators(table: np.ndarray, rank: Optional[np.ndarray] = None) -> list[int]:
    """Generating sequence: each generator is the element of least rank
    (default: least index) not yet reached from the identity (index 0) by
    right multiplication with the generators before it.

    In a finite group the right closure is the generated subgroup, so this is
    the "first element outside <gens>" sequence.
    """
    return list(_greedy_sequence(table, rank))


def _greedy_sequence(table: np.ndarray, rank: Optional[np.ndarray] = None) -> Iterator[int]:
    """greedy_generators one at a time: each closure runs only when the next
    generator is asked for."""
    n = table.shape[0]
    rank = np.arange(n) if rank is None else rank
    reached = np.arange(n) == 0
    steps: list[int] = []  # the generators so far and their powers g^(2^i)
    while not reached.all():
        left = np.flatnonzero(~reached)
        g = int(left[np.argmin(rank[left])])
        yield g
        # the powers lie in <g> but cut the closure of a cyclic subgroup of
        # order m from m rounds to about log2(m)
        for _ in range(n.bit_length()):
            steps.append(g)
            g = int(table[g, g])
            if g == 0 or g in steps:
                break
        _right_closure(table, reached, steps)


def _right_closure(table: np.ndarray, reached: np.ndarray, gens) -> None:
    """Mark in place every element reached from the marked ones by right
    multiplication with gens, a round's newly marked elements its frontier."""
    frontier = np.flatnonzero(reached)
    while frontier.size:
        hit = np.zeros_like(reached)
        hit[table[frontier[:, None], gens]] = True
        frontier = np.flatnonzero(hit > reached)
        reached[frontier] = True


def _check_associativity(table: np.ndarray, gens: Iterable[int]) -> list[int]:
    """Light's test: (x*y)*g = x*(y*g) for all x, y and each g in gens; returns them.

    Exact when every element is a left-nested product of the gens in the
    table itself and index 0 is the identity: the g that pass are closed
    under products ((xy)(ab) = ((xy)a)b = (x(ya))b = x((ya)b) = x(y(ab)) when
    a and b pass).  Each g is tested before the next is drawn from gens.  Rows
    x go _BLOCK at a time, so each side of a block is a gather into a small array
    that stays in cache, not an n x n temporary.
    """
    tested = []
    for g in gens:
        col = table[:, g].copy()        # y*g for every y
        for s in _blocks(len(table)):
            rows = table[s]
            bad = col.take(rows) != rows.take(col, axis=1)  # (x*y)*g != x*(y*g)
            if bad.any():
                x, y = np.argwhere(bad)[0]
                raise NotAGroup(f"associativity fails at ({s.start + int(x)},{int(y)},{g})")
        tested.append(g)
    return tested


def _action_table(start: Hashable, step: Callable[[Hashable, int], Hashable],
                  width: int) -> tuple[np.ndarray, list, list[tuple[int, int]], list[int]]:
    """Cayley table of the group that letters 0..width-1 generate, from their
    right-regular action: step(node, x) is node times letter x.

    The nodes reached from start are numbered in BFS order under the table
    budget; node j > 0 is node p times letter x for (p, x) = tree[j], p < j,
    so i * j = (i * p) * x fills the table column by column.  The letters'
    rows a (a[i] = i times the letter) then check it: each is a permutation,
    column a[0] equals a, and Light's test passes on the a[0].  That is exact:
    each j is p * x in the table itself, row and column 0 are the identity,
    and each column is a product of permutations, so inverses exist.
    Returns the table, the nodes, the tree and the generating letter elements.
    """
    nodes, index, tree = [start], {start: 0}, [(0, 0)]
    act: list[list[int]] = [[] for _ in range(width)]
    for i, cur in enumerate(nodes):  # nodes grows while walked: a BFS queue
        for x in range(width):
            nxt = step(cur, x)
            k = index.get(nxt)
            if k is None:
                k = index[nxt] = len(nodes)
                check_table_budget(k + 1)
                nodes.append(nxt)
                tree.append((i, x))
            act[x].append(k)
    n = len(nodes)
    for x, a in enumerate(act):  # n images in 0..n-1: a permutation iff distinct
        if len(set(a)) < n:
            raise NotAGroup(f"letter {x} does not act as a permutation of 0..{n - 1}")
    rows = np.array(act, dtype=np.int64).reshape(width, n)
    cols = np.empty((n, n), dtype=np.int64)  # cols[j] is column j
    cols[0] = np.arange(n)
    for j, (p, x) in enumerate(tree[1:], start=1):
        cols[j] = rows[x][cols[p]]
    elements = rows[:, 0]
    ok = (cols[elements] == rows).all(axis=1)
    if not ok.all():
        x = int(np.argmin(ok))
        raise NotAGroup(f"column {elements[x]} is not the action of letter {x}")
    table = np.empty((n, n), dtype=np.int32)
    for s in _blocks(n):  # one transposing copy is about 5x slower
        table[:, s] = cols[s].T
    # y*g = 0 for a tested g puts y on 0's cycle under column g: a power of g, it passes
    gens: list[int] = []
    for y in sorted(set(elements.tolist())):
        if all(table[y, g] for g in gens):
            gens.append(y)
    return table, nodes, tree, _check_associativity(table, gens)


def _inverses(table: np.ndarray) -> np.ndarray:
    """Each element's inverse, the column of its row's first 0 (entries must
    be non-negative; argmin goes _BLOCK rows at a time, as it copies a
    read-only operand whole); NotAGroup when one is not two-sided."""
    n = len(table)
    inv = np.concatenate([table[s].argmin(axis=1) for s in _blocks(n)])
    if not ((table[np.arange(n), inv] == 0) & (table[inv, np.arange(n)] == 0)).all():
        raise NotAGroup("an element lacks a two-sided inverse")
    return inv


def from_permutations(degree: int, generators: Sequence[Sequence[int]]) -> FiniteGroup:
    """Group generated by permutations of {0..degree-1}, in image notation.

    Element 0 is the identity; element order is BFS discovery order with the
    generator list order fixed, so the table is reproducible.  The table is
    checked with the generators as its letters, and the closure raises
    TooLarge as soon as it passes the table budget.
    """
    gens = []
    for g in generators:
        t = tuple(int(x) for x in g)
        if sorted(t) != list(range(degree)):
            raise ValueError(f"generator {g!r} is not a permutation of 0..{degree - 1}")
        gens.append(t)
    # steps[x](cur) is cur applied after generator x; below degree 2 every
    # generator is the identity, and itemgetter would return a scalar or
    # refuse no indices
    steps = [itemgetter(*g) if degree > 1 else tuple for g in gens]
    table, elems, _, tested = _action_table(tuple(range(degree)), lambda cur, x: steps[x](cur),
                                            len(steps))
    sep = "" if degree <= 10 else ","
    return FiniteGroup(table, [sep.join(map(str, el)) + sep for el in elems], tested)


def direct_product(a: FiniteGroup, *others: FiniteGroup) -> FiniteGroup:
    """Componentwise product on pairs, folded from the left over the factors
    (one factor is returned as is); each step is ordered a-major:
    index = i_a * |B| + i_b, generated by (x, e) and (e, y) for x, y generators."""
    for b in others:
        na, nb = a.order, b.order
        check_table_budget(na * nb)
        table = a.table[:, None, :, None] * nb + b.table[None, :, None, :]
        table = table.reshape(na * nb, na * nb)
        a = FiniteGroup(table, [f"({la},{lb})" for la in a.labels for lb in b.labels],
                        [x * nb for x in a.generators()] + list(b.generators()))
    return a


def all_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """Every subgroup of g, found by closing seed extensions; sorted by (size, members).

    Exponential in the worst case; intended for small groups (catalog scale).
    """
    trivial = Subgroup(g, (0,))
    found = {trivial.members: trivial}
    queue = [trivial]
    while queue:
        base = queue.pop()
        for x in np.flatnonzero(~base.mask).tolist():
            sub = g.generated_subgroup(base.members + (x,))
            if sub.members not in found:
                found[sub.members] = sub
                queue.append(sub)
                if len(found) > SUBGROUP_CAP:
                    raise TooLarge(f"subgroup enumeration exceeded {SUBGROUP_CAP} subgroups")
    return sorted(found.values(), key=lambda s: (s.size, s.members))


def row_classes(m: np.ndarray) -> np.ndarray:
    """Class id per row of boolean matrix m: equal rows share an id, and ids
    number the classes in order of their first row.

    Each row is keyed by its packed bits as one opaque value; packing is
    injective at a fixed width, so the keys are exact.
    """
    packed = np.packbits(m, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, ids = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[ids]


# --- isomorphism testing ---------------------------------------------------

@_cached
def fingerprint(g: FiniteGroup) -> tuple:
    """Isomorphism invariant of g, cached on it: order, abelian flag, order
    histogram, center element orders, beta class sizes, conjugacy class size
    per element, sorted element-key profiles, and per beta class its size,
    centralizer size, element and square orders and whether the squares of
    its members are central.  Isomorphic groups have equal fingerprints."""
    keys = g.element_keys()
    orders, sq_orders = keys[:, 0], keys[:, 1]
    classes = [np.asarray(c) for c in g.beta_classes()]
    sq_central = g.beta_class_ids()[np.diagonal(g.table)] == 0
    return (
        g.order, g.is_abelian, g.order_histogram(),
        tuple(np.sort(orders[classes[0]]).tolist()),
        tuple(sorted(c.size for c in classes)),
        tuple(np.sort(keys[:, 3]).tolist()),
        tuple(sorted(map(tuple, keys[:, :4].tolist()))),
        tuple(sorted((c.size, int(keys[c[0], 2]), tuple(np.sort(orders[c]).tolist()),
                      tuple(np.sort(sq_orders[c]).tolist())) for c in classes)),
        tuple(sorted(tuple(np.unique(sq_central[c]).tolist()) for c in classes)),
    )


def generator_maps(a: FiniteGroup, b: FiniteGroup, gens: Sequence[int],
                   cands: Sequence[Sequence[int]]) -> Iterator[np.ndarray]:
    """Each injective homomorphism f: a -> b with f(gens[i]) in cands[i], as
    the images of a's elements, depth first in candidate order; gens must
    generate a.

    a's elements are listed once in closure order: those of <gens[:i+1]> come
    first, in breadth-first layers, each an earlier element times one
    generator.  Level i extends every candidate for gens[i] along those words
    at once.  A row survives when f(x*s) = f(x)*f(s) for every listed x and
    generator s so far, checked by one gather (a map built along words that
    passes is a homomorphism), and only the identity maps to the identity.
    """
    pos = np.full(a.order, -1)
    pos[0] = 0
    elems, levels = np.zeros(1, dtype=np.intp), []
    for i in range(len(gens)):
        layers, frontier = [], np.arange(elems.size)  # (positions, factor positions, gen indices)
        while frontier.size:
            prod = a.table[elems[frontier][:, None], gens[:i + 1]].ravel()
            fresh = np.flatnonzero(pos[prod] < 0)
            new, k = np.unique(prod[fresh], return_index=True)
            pos[new] = np.arange(elems.size, elems.size + new.size)
            layers.append((pos[new], frontier[fresh[k] // (i + 1)], fresh[k] % (i + 1)))
            frontier, elems = pos[new], np.append(elems, new)
        levels.append((layers, elems.size))
    right, bt = pos[a.table[elems[:, None], gens]], b.table  # right[x, j]: position of x*gens[j]

    def extend(i: int, f: np.ndarray) -> Iterator[np.ndarray]:
        if i == len(gens):
            yield f[pos]
            return
        layers, stop = levels[i]
        imgs = np.column_stack([np.tile(f[pos[gens[:i]]], (len(cands[i]), 1)), cands[i]])
        rows = np.empty((len(imgs), stop), dtype=bt.dtype)
        rows[:, :f.size] = f
        for at, prev, step in layers:
            rows[:, at] = bt[rows[:, prev], imgs[:, step]]
        ok = (rows[:, right[:stop, :i + 1]] == bt[rows[:, :, None], imgs[:, None, :]]).all(axis=(1, 2))
        for row in rows[ok & rows[:, 1:].all(axis=1)]:
            yield from extend(i + 1, row)

    yield from extend(0, np.zeros(1, dtype=bt.dtype))


@_cached
def _key_classes(g: FiniteGroup) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct element-key rows, each element's row number, each row's count."""
    rows, kind, count = np.unique(g.element_keys(), axis=0, return_inverse=True, return_counts=True)
    return rows, kind.ravel(), count


def is_isomorphic(a: FiniteGroup, b: FiniteGroup) -> bool:
    """Decide isomorphism by invariants, then by the first map generator_maps
    finds from a's rarest-key greedy generators to elements of b with equal
    element keys.  Deterministic regardless of element ordering.  Orders
    above ISO_ORDER_CAP raise TooLarge."""
    if a.order != b.order:
        return False
    if a.order > ISO_ORDER_CAP:
        raise TooLarge(f"isomorphism testing capped at order {ISO_ORDER_CAP}")
    if fingerprint(a) != fingerprint(b):
        return False
    if a.is_abelian:
        # equal order histograms classify finite abelian groups (order 1 too)
        return True

    (rows_a, kind_a, count_a), (rows_b, kind_b, count_b) = _key_classes(a), _key_classes(b)
    if not (np.array_equal(rows_a, rows_b) and np.array_equal(count_a, count_b)):
        return False
    # rarest key first, ties by index
    gens = greedy_generators(a.table, count_a[kind_a] * a.order + np.arange(a.order))
    cands = [np.flatnonzero(kind_b == kind_a[s]) for s in gens]
    return next(generator_maps(a, b, gens, cands), None) is not None
