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
from typing import Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "NotAGroup",
    "ClosureExceeded",
    "NotNormal",
    "TooLarge",
    "TrivialGroup",
    "TRIVIAL",
    "FiniteGroup",
    "Subgroup",
    "Coset",
    "from_table",
    "from_permutations",
    "direct_product",
    "greedy_generators",
    "row_classes",
    "table_from_action",
    "fingerprint",
    "is_isomorphic",
    "all_subgroups",
]

ISO_ORDER_CAP = 512
DEFAULT_CLOSURE_CAP = 10_000

TRIVIAL = "trivial"
"""Marker returned by is_p_group for the order-1 group (a p-group for every p)."""


class NotAGroup(ValueError):
    """The given table violates a group axiom."""


class ClosureExceeded(RuntimeError):
    """Permutation closure grew past the configured cap."""

    def __init__(self, cap: int):
        super().__init__(f"closure exceeded cap of {cap} elements")
        self.cap = cap


class NotNormal(ValueError):
    """Quotient requested by a non-normal subgroup."""


class TooLarge(ValueError):
    """Group order exceeds the supported cap for this operation."""


class TrivialGroup(ValueError):
    """Operation undefined on the order-1 group."""


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

    def member_set(self) -> frozenset:
        return frozenset(self.members)

    def as_group(self) -> "FiniteGroup":
        """Materialize this subgroup as a standalone FiniteGroup.

        New element i corresponds to parent element self.members[i]; index 0
        stays the identity because members are sorted and contain 0.  The
        table is the parent's restricted to a subgroup, so it is not
        validated again.
        """
        g = self.parent
        pos = np.cumsum(self.mask) - 1
        return FiniteGroup(pos[g.table[np.ix_(self.mask, self.mask)]],
                           [g.labels[m] for m in self.members])

    def coset_index(self) -> np.ndarray:
        """Number of the left coset x*H of every parent element x; cosets are
        numbered by their smallest member, so the identity coset is 0."""
        return np.unique(self.parent.table[:, self.mask].min(axis=1), return_inverse=True)[1]

    def cosets(self) -> list["Coset"]:
        """Left cosets x*H, ordered by smallest member (identity coset first)."""
        idx = self.coset_index()
        by_coset = np.argsort(idx, kind="stable")
        bounds = np.cumsum(np.bincount(idx))[:-1]
        return [Coset(representative=int(c[0]), members=tuple(c.tolist()))
                for c in np.split(by_coset, bounds)]


@dataclass(frozen=True)
class Coset:
    """A coset of some subgroup, tagged with its smallest-index representative."""

    representative: int
    members: tuple[int, ...]

    def __contains__(self, x: int) -> bool:
        return x in self.members


class FiniteGroup:
    """A finite group on elements 0..n-1 given by its multiplication table.

    table[i, j] is the index of (element i) * (element j).  Construct through
    from_table / from_permutations / the family constructors, which validate
    the axioms.  The raw constructor trusts its input; it is used only for
    tables that are correct by construction (direct_product,
    Subgroup.as_group, quotient).

    Derived structure is cached on the group (inverses, commuting matrix,
    beta classes, G/Z(G), element orders, conjugacy classes, element keys,
    fingerprint).  A cache holds only arrays, tuples of ints and groups that
    do not refer back to this one, so dropping the last reference to a group
    frees its table at once instead of leaving a reference cycle for the
    collector.
    """

    __slots__ = ("order", "table", "labels", "_inv", "_comm", "_beta_ids",
                 "_beta_classes", "_central_quotient", "_elt_orders",
                 "_conj_class", "_abelian", "_elt_keys", "_fingerprint")

    def __init__(self, table: np.ndarray, labels: Sequence[str]):
        n = table.shape[0]
        self.order = n
        t = np.ascontiguousarray(table, dtype=np.int32)
        t.setflags(write=False)
        self.table = t
        self.labels = tuple(labels)
        self._inv = None
        self._comm = None
        self._beta_ids = None
        self._beta_classes = None
        self._central_quotient = None
        self._elt_orders = None
        self._conj_class = None
        self._abelian = None
        self._elt_keys = None
        self._fingerprint = None

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverses()[a])

    def inverses(self) -> np.ndarray:
        if self._inv is None:
            inv = np.empty(self.order, dtype=np.int32)
            rows, cols = np.nonzero(self.table == 0)
            inv[rows] = cols
            self._inv = inv
        return self._inv

    def commuting_matrix(self) -> np.ndarray:
        """Boolean matrix M with M[x, y] iff x and y commute."""
        if self._comm is None:
            m = self.table == self.table.T
            m.setflags(write=False)
            self._comm = m
        return self._comm

    def beta_class_ids(self) -> np.ndarray:
        """Equal-centralizer (beta) class of every element: elements share a
        class exactly when their centralizers are equal.  Classes are numbered
        by smallest member, so class 0 is the center."""
        if self._beta_ids is None:
            ids = row_classes(self.commuting_matrix())
            ids.setflags(write=False)
            self._beta_ids = ids
        return self._beta_ids

    def beta_classes(self) -> tuple[tuple[int, ...], ...]:
        """Members of each beta class, indexed by class id."""
        if self._beta_classes is None:
            ids = self.beta_class_ids()
            members = np.argsort(ids, kind="stable")
            bounds = np.cumsum(np.bincount(ids))[:-1]
            self._beta_classes = tuple(tuple(c.tolist()) for c in np.split(members, bounds))
        return self._beta_classes

    def central_quotient(self) -> tuple["FiniteGroup", np.ndarray]:
        """G/Z(G), and the center coset of every element numbered as in it."""
        if self._central_quotient is None:
            z = self.center()
            self._central_quotient = (self.quotient(z), z.coset_index())
        return self._central_quotient

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            self._abelian = bool(self.commuting_matrix().all())
        return self._abelian

    def element_order(self, x: int) -> int:
        """Least k >= 1 with x^k = identity."""
        return int(self.element_orders()[x])

    def element_orders(self) -> np.ndarray:
        if self._elt_orders is None:
            orders = np.ones(self.order, dtype=np.int32)
            live = acc = np.arange(1, self.order)  # acc = live ** orders[live]
            while live.size:
                acc = self.table[acc, live]
                orders[live] += 1
                keep = acc != 0
                live, acc = live[keep], acc[keep]
            orders.setflags(write=False)
            self._elt_orders = orders
        return self._elt_orders

    def order_histogram(self) -> tuple[tuple[int, int], ...]:
        vals, counts = np.unique(self.element_orders(), return_counts=True)
        return tuple((int(v), int(c)) for v, c in zip(vals, counts))

    def power(self, x: int, k: int) -> int:
        if k < 0:
            x, k = self.inv(x), -k
        acc = 0
        for _ in range(k):
            acc = int(self.table[acc, x])
        return acc

    def centralizer(self, x: int) -> Subgroup:
        """Subgroup of all elements commuting with x."""
        return Subgroup(self, tuple(np.flatnonzero(self.commuting_matrix()[x]).tolist()))

    def center(self) -> Subgroup:
        return Subgroup(self, self.beta_classes()[0])

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        """Conjugacy classes ordered by smallest member."""
        if self._conj_class is None:
            n = self.order
            inv = self.inverses()
            seen = np.zeros(n, dtype=bool)
            classes = []
            for x in range(n):
                if seen[x]:
                    continue
                # conjugate of x by g is (g*x)*g^-1, vectorized over g
                orbit = np.unique(self.table[self.table[:, x], inv])
                seen[orbit] = True
                classes.append(tuple(int(i) for i in orbit))
            self._conj_class = classes
        return self._conj_class

    def element_keys(self) -> np.ndarray:
        """Isomorphism-invariant key of every element, one row each: order,
        order of x^2, |C(x)|, conjugacy class size, |beta(x)|, number of
        square roots.  An isomorphism maps each element to one with the same
        row."""
        if self._elt_keys is None:
            orders = self.element_orders()
            squares = np.diagonal(self.table)
            classes = self.conjugacy_classes()
            lens = np.array([len(c) for c in classes])
            class_size = np.empty(self.order, dtype=np.int64)
            class_size[np.concatenate(classes)] = np.repeat(lens, lens)
            ids = self.beta_class_ids()
            keys = np.column_stack([
                orders, orders[squares], self.commuting_matrix().sum(axis=1),
                class_size, np.bincount(ids)[ids],
                np.bincount(squares, minlength=self.order)]).astype(np.int64)
            keys.setflags(write=False)
            self._elt_keys = keys
        return self._elt_keys

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
        reached = np.zeros(self.order, dtype=bool)
        reached[0] = True
        _right_closure(self.table, reached, gens)
        return Subgroup(self, tuple(np.flatnonzero(reached).tolist()))

    def p_element_mask(self, p: int) -> np.ndarray:
        """Boolean mask of the elements whose order is a power of p."""
        p_part = p ** _prime_factors(self.order).get(p, 0)
        return p_part % self.element_orders() == 0

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

    def is_elementary_p(self) -> Optional[int]:
        """Prime p when every non-identity element has order exactly p.

        Commutativity is not required.  Raises TrivialGroup on order 1.
        """
        if self.order == 1:
            raise TrivialGroup("elementary-p test undefined for the trivial group")
        orders = self.element_orders()
        p = int(orders[1])
        if not is_prime(p):
            return None
        return p if bool((orders[1:] == p).all()) else None

    def is_elementary_abelian(self) -> Optional[int]:
        if not self.is_abelian:
            return None
        return self.is_elementary_p()

    def frattini(self) -> Subgroup:
        """Frattini subgroup (intersection of all maximal subgroups).

        For p-groups this is the subgroup generated by p-th powers and
        commutators; nilpotent groups reduce to their Sylow factors; other
        groups fall back to maximal-subgroup enumeration.
        """
        if self.order == 1:
            return Subgroup(self, (0,))
        p = self.is_p_group()
        if isinstance(p, int):
            return self._frattini_p_group(p)
        sylows = self._sylow_decomposition()
        if sylows is not None:
            return self.generated_subgroup(np.concatenate([
                np.flatnonzero(syl.mask)[syl.as_group()._frattini_p_group(prime).mask]
                for prime, syl in sylows]))
        return self.frattini_by_maximal_subgroups()

    def _frattini_p_group(self, p: int) -> Subgroup:
        idx = np.arange(self.order)
        powers = idx
        for _ in range(p - 1):
            powers = self.table[powers, idx]
        return self.generated_subgroup(np.union1d(powers, self._commutators()))

    def frattini_by_maximal_subgroups(self) -> Subgroup:
        """Frattini subgroup straight from the definition; exponential fallback."""
        subs = [s for s in all_subgroups(self) if s.size < self.order]
        maximal = []
        for h in subs:
            hm = h.member_set()
            if not any(hm < k.member_set() for k in subs):
                maximal.append(h)
        members = frozenset(range(self.order))
        for h in maximal:
            members &= h.member_set()
        return Subgroup(self, tuple(sorted(members)))

    def _sylow_decomposition(self) -> Optional[list[tuple[int, Subgroup]]]:
        """(p, Sylow_p) per prime when every Sylow is the set of p-elements.

        Succeeds exactly when G is nilpotent; returns None otherwise.
        """
        out = []
        for prime, mult in _prime_factors(self.order).items():
            mask = self.p_element_mask(prime)
            if np.count_nonzero(mask) != prime ** mult:
                return None
            try:
                out.append((prime, self.subgroup(np.flatnonzero(mask))))
            except ValueError:
                return None
        return out

    def commutator_subgroup(self) -> Subgroup:
        return self.generated_subgroup(self._commutators())

    def _commutators(self) -> np.ndarray:
        """Distinct commutators a^-1 b^-1 a b = (b*a)^-1 (a*b), in one gather."""
        t = self.table
        return np.unique(t[self.inverses()[t.T], t])


def _find_identity(table: np.ndarray) -> int:
    n = table.shape[0]
    idx = np.arange(n)
    for e in range(n):
        if (table[e] == idx).all() and (table[:, e] == idx).all():
            return e
    raise NotAGroup("no two-sided identity element")


def from_table(rows: Sequence[Sequence[int]], labels: Optional[Sequence[str]] = None) -> FiniteGroup:
    """Build a validated FiniteGroup from a multiplication table.

    The identity is relocated to index 0 by relabeling if needed.  Raises
    NotAGroup when the Latin-square, identity, inverse, or associativity
    checks fail.  Associativity is checked exactly at every order, by Light's
    test on a generating set.
    """
    table = np.asarray(rows, dtype=np.int64)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise NotAGroup("table is not square")
    n = table.shape[0]
    if n == 0:
        raise NotAGroup("empty table")
    if table.min() < 0 or table.max() >= n:
        raise NotAGroup("table entries out of range")

    idx = np.arange(n)
    if not (np.sort(table, axis=1) == idx).all():
        bad = int(np.flatnonzero(~(np.sort(table, axis=1) == idx).all(axis=1))[0])
        raise NotAGroup(f"row {bad} is not a permutation of 0..{n - 1}")
    if not (np.sort(table, axis=0) == idx[:, None]).all():
        bad = int(np.flatnonzero(~(np.sort(table, axis=0) == idx[:, None]).all(axis=0))[0])
        raise NotAGroup(f"column {bad} is not a permutation of 0..{n - 1}")

    e = _find_identity(table)
    if labels is None:
        labels = [f"g{i}" for i in range(n)]
    labels = list(labels)
    if len(labels) != n:
        raise NotAGroup("label count does not match order")
    if e != 0:
        # swap indices 0 and e; the swap is its own inverse
        perm = idx.copy()
        perm[e], perm[0] = 0, e
        table = perm[table[np.ix_(perm, perm)]]
        labels[0], labels[e] = labels[e], labels[0]

    _check_associativity(table)
    _check_inverses(table)
    return FiniteGroup(table, labels)


def greedy_generators(table: np.ndarray, rank: Optional[np.ndarray] = None) -> list[int]:
    """Generating sequence: each generator is the element of least rank
    (default: least index) not yet reached from the identity (index 0) by
    right multiplication with the generators before it.

    In a finite group the right closure is the generated subgroup, so this is
    the "first element outside <gens>" sequence.
    """
    n = table.shape[0]
    rank = np.arange(n) if rank is None else rank
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while not reached.all():
        left = np.flatnonzero(~reached)
        gens.append(int(left[np.argmin(rank[left])]))
        _right_closure(table, reached, gens)
    return gens


def _right_closure(table: np.ndarray, reached: np.ndarray, gens) -> None:
    """Mark in place every element reached from the marked ones by right
    multiplication with gens."""
    frontier = np.flatnonzero(reached)
    while frontier.size:
        img = table[frontier[:, None], gens].ravel()
        frontier = np.unique(img[~reached[img]])
        reached[frontier] = True


def _check_associativity(table: np.ndarray) -> None:
    """Light's test: (x*y)*g = x*(y*g) for all x, y and each generator g.

    Exact: the g that pass are closed under products, and every element is a
    left-nested product of generators (table has its identity at index 0).
    """
    for g in greedy_generators(table):
        left = table[table, g]          # (x*y)*g
        right = table[:, table[:, g]]   # x*(y*g)
        if not (left == right).all():
            x, y = np.argwhere(left != right)[0]
            raise NotAGroup(f"associativity fails at ({int(x)},{int(y)},{g})")


def table_from_action(act: Sequence[Sequence[int]], parent: Sequence[int],
                      letter: Sequence[int]) -> np.ndarray:
    """Cayley table from the right-regular action of generating letters.

    act[l][i] is element i times letter l.  Element j > 0 is element
    parent[j] times letter[j], with parent[j] < j (a BFS spanning tree), so
    i * j = (i * parent[j]) * letter[j] fills the table column by column.
    """
    n = len(parent)
    act = np.asarray(act, dtype=np.int64)
    cols = np.empty((n, n), dtype=np.int64)  # cols[j] is column j
    cols[0] = np.arange(n)
    for j in range(1, n):
        cols[j] = act[letter[j]][cols[parent[j]]]
    return cols.T


def _check_inverses(table: np.ndarray) -> None:
    n = table.shape[0]
    right = np.argmin(table != 0, axis=1)
    if not (table[np.arange(n), right] == 0).all() or not (table[right, np.arange(n)] == 0).all():
        raise NotAGroup("an element lacks a two-sided inverse")


def from_permutations(degree: int, generators: Sequence[Sequence[int]],
                      cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """Group generated by permutations of {0..degree-1}, in image notation.

    Element 0 is the identity; element order is BFS discovery order with the
    generator list order fixed, so the table is reproducible.
    """
    gens = []
    for g in generators:
        t = tuple(int(x) for x in g)
        if sorted(t) != list(range(degree)):
            raise ValueError(f"generator {g!r} is not a permutation of 0..{degree - 1}")
        gens.append(t)
    ident = tuple(range(degree))
    elems = [ident]
    index = {ident: 0}
    act: list[list[int]] = [[] for _ in gens]
    parent, letter = [0], [0]
    for i, cur in enumerate(elems):  # elems grows while walked: a BFS queue
        for x, g in enumerate(gens):
            nxt = tuple(cur[k] for k in g)  # cur applied after g
            if nxt not in index:
                if len(elems) >= cap:
                    raise ClosureExceeded(cap)
                index[nxt] = len(elems)
                elems.append(nxt)
                parent.append(i)
                letter.append(x)
            act[x].append(index[nxt])
    table = table_from_action(act, parent, letter)
    labels = ["".join(str(x) if degree <= 10 else f"{x}," for x in el) for el in elems]
    return from_table(table, labels)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Componentwise product on pairs, ordered a-major: index = i_a * |B| + i_b."""
    na, nb = a.order, b.order
    ta = np.asarray(a.table, dtype=np.int64)
    tb = np.asarray(b.table, dtype=np.int64)
    table = (ta[:, None, :, None] * nb + tb[None, :, None, :]).reshape(na * nb, na * nb)
    labels = [f"({la},{lb})" for la in a.labels for lb in b.labels]
    return FiniteGroup(table, labels)


def all_subgroups(g: FiniteGroup, limit: int = 20_000) -> list[Subgroup]:
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
                if len(found) > limit:
                    raise TooLarge(f"subgroup enumeration exceeded {limit} subgroups")
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

def fingerprint(g: FiniteGroup) -> tuple:
    """Isomorphism invariant of g, cached on it: order, abelian flag, order
    histogram, center element orders, beta class sizes, conjugacy class size
    per element, sorted element-key profiles, and per beta class its size,
    centralizer size, element and square orders and whether the squares of
    its members are central.  Isomorphic groups have equal fingerprints."""
    if g._fingerprint is None:
        keys = g.element_keys()
        orders, sq_orders = keys[:, 0], keys[:, 1]
        classes = [np.asarray(c) for c in g.beta_classes()]
        sq_central = g.beta_class_ids()[np.diagonal(g.table)] == 0
        g._fingerprint = (
            g.order, g.is_abelian, g.order_histogram(),
            tuple(np.sort(orders[classes[0]]).tolist()),
            tuple(sorted(c.size for c in classes)),
            tuple(np.sort(keys[:, 3]).tolist()),
            tuple(sorted(map(tuple, keys[:, :4].tolist()))),
            tuple(sorted((c.size, int(keys[c[0], 2]), tuple(np.sort(orders[c]).tolist()),
                          tuple(np.sort(sq_orders[c]).tolist())) for c in classes)),
            tuple(sorted(tuple(np.unique(sq_central[c]).tolist()) for c in classes)),
        )
    return g._fingerprint


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


def is_isomorphic(a: FiniteGroup, b: FiniteGroup) -> bool:
    """Decide isomorphism by invariants plus backtracking generator mapping.

    Deterministic regardless of element ordering.  Orders above ISO_ORDER_CAP
    raise TooLarge.
    """
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
