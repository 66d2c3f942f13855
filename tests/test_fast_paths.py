"""Array kernels cross-checked against the slow reference implementations
they replaced, which are kept here as test-only oracles."""

import copy
import itertools
import random
import re
from collections import Counter

import numpy as np
import pytest

from noncent import analysis, catalog, checks, cli, core, families, graph, presentation
from noncent.core import NotAGroup, from_permutations, from_table
from noncent.presentation import (CosetLimitExceeded, ParseError, Presentation,
                                  UndeclaredGenerator, Word, enumerate_presentation, parse)
import oracles
from oracles import (_extend_map, abelian_embeds, edges, frattini_by_maximal_subgroups,
                     is_elementary_p, parent_commutators, parent_is_abelian,
                     parent_is_isomorphic, parent_maximal_class_ids, parent_scan_relators, power,
                     product_map_is_isomorphism)
from test_acceptance import TABLE1_ROWS, _family_instances, _with_cyclic_products
from test_presentation import FAMILY_PRESENTATIONS


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


def slow_from_table_error(rows, labels=None):
    """(message, table) of the validation that sorted every row and column
    before anything else and ran Light's test on whole n x n gathers: the
    NotAGroup message, or None if the table is accepted, and the table its
    associativity triple indexes (identity relocated to 0)."""
    table = np.asarray(rows, dtype=np.int64)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        return "table is not square", table
    n = table.shape[0]
    if n == 0:
        return "empty table", table
    if table.min() < 0 or table.max() >= n:
        return "table entries out of range", table

    idx = np.arange(n)
    if not (np.sort(table, axis=1) == idx).all():
        bad = int(np.flatnonzero(~(np.sort(table, axis=1) == idx).all(axis=1))[0])
        return f"row {bad} is not a permutation of 0..{n - 1}", table
    if not (np.sort(table, axis=0) == idx[:, None]).all():
        bad = int(np.flatnonzero(~(np.sort(table, axis=0) == idx[:, None]).all(axis=0))[0])
        return f"column {bad} is not a permutation of 0..{n - 1}", table

    for e in range(n):
        if (table[e] == idx).all() and (table[:, e] == idx).all():
            break
    else:
        return "no two-sided identity element", table
    if labels is None:
        labels = [f"g{i}" for i in range(n)]
    labels = list(labels)
    if len(labels) != n:
        return "label count does not match order", table
    if e != 0:
        perm = idx.copy()
        perm[e], perm[0] = 0, e
        table = perm[table[np.ix_(perm, perm)]]

    for g in core.greedy_generators(table):
        left = table[table, g]
        right = table[:, table[:, g]]
        if not (left == right).all():
            x, y = np.argwhere(left != right)[0]
            return f"associativity fails at ({int(x)},{int(y)},{g})", table

    right = np.argmin(table != 0, axis=1)
    if not (table[idx, right] == 0).all() or not (table[right, idx] == 0).all():
        return "an element lacks a two-sided inverse", table
    return None, table


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


# The recursive-descent presentation parser that presentation.parse replaced:
# a tokenizer class, one function per grammar level, and run-length words
# free-reduced at every level.

def slow_free_reduce(word) -> Word:
    out: list[list[int]] = []
    for gen, exp in word:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            out[-1][1] += exp
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([gen, exp])
    return tuple((g, e) for g, e in out)


def slow_invert_word(word) -> Word:
    return tuple((g, -e) for g, e in reversed(word))


_SLOW_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|-?\d+|[<>|,*^()=]|\S")

_SLOW_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


class _SlowTokens:
    def __init__(self, text: str):
        self.items = []  # (token, line, column)
        for lineno, line in enumerate(text.splitlines() or [""], start=1):
            for m in _SLOW_TOKEN_RE.finditer(line):
                self.items.append((m.group(0), lineno, m.start() + 1))
        self.pos = 0
        self.last = (text.count("\n") + 1, len(text) - text.rfind("\n"))  # just past the end

    def peek(self):
        return self.items[self.pos][0] if self.pos < len(self.items) else None

    def where(self):
        if self.pos < len(self.items):
            _, ln, col = self.items[self.pos]
            return ln, col
        return self.last

    def take(self):
        tok = self.items[self.pos]
        self.pos += 1
        return tok[0]

    def expect(self, token: str):
        if self.peek() != token:
            ln, col = self.where()
            raise ParseError(ln, col, repr(token))
        return self.take()


def slow_parse(text: str) -> Presentation:
    """Parse '< gens | relators >' into a validated Presentation."""
    toks = _SlowTokens(text)
    toks.expect("<")
    gens: list[str] = []
    while True:
        tok = toks.peek()
        if tok == ",":
            toks.take()
            continue
        if tok == "|":
            break
        if tok is None or not _SLOW_IDENT_RE.match(tok or ""):
            ln, col = toks.where()
            raise ParseError(ln, col, "generator name or '|'")
        name = toks.take()
        if name in gens:
            ln, col = toks.where()
            raise ParseError(ln, col, f"unique generator name (duplicate {name!r})")
        gens.append(name)
    if not gens:
        ln, col = toks.where()
        raise ParseError(ln, col, "at least one generator")
    toks.expect("|")
    gen_index = {name: i for i, name in enumerate(gens)}

    relators: list[Word] = []
    while toks.peek() != ">":
        relators.append(_slow_parse_relator(toks, gen_index))
        if toks.peek() == ",":
            toks.take()
        elif toks.peek() != ">":
            ln, col = toks.where()
            raise ParseError(ln, col, "',' or '>'")
    toks.expect(">")
    if toks.peek() is not None:
        ln, col = toks.where()
        raise ParseError(ln, col, "end of input")
    return Presentation(tuple(gens), tuple(relators))


def _slow_parse_relator(toks: _SlowTokens, gen_index: dict[str, int]) -> Word:
    lhs = _slow_parse_word(toks, gen_index)
    if toks.peek() == "=":
        toks.take()
        rhs = _slow_parse_word(toks, gen_index)
        return slow_free_reduce(lhs + slow_invert_word(rhs))
    return slow_free_reduce(lhs)


def _slow_parse_word(toks: _SlowTokens, gen_index: dict[str, int]) -> Word:
    parts = [_slow_parse_factor(toks, gen_index)]
    while toks.peek() == "*":
        toks.take()
        parts.append(_slow_parse_factor(toks, gen_index))
    return slow_free_reduce(tuple(x for p in parts for x in p))


def _slow_parse_factor(toks: _SlowTokens, gen_index: dict[str, int]) -> Word:
    atom = _slow_parse_atom(toks, gen_index)
    if toks.peek() == "^":
        toks.take()
        tok = toks.peek()
        if tok is None or not re.fullmatch(r"-?\d+", tok):
            ln, col = toks.where()
            raise ParseError(ln, col, "integer exponent")
        exp = int(toks.take())
        if exp < 0:
            atom = slow_invert_word(atom)
            exp = -exp
        return slow_free_reduce(atom * exp)
    return atom


def _slow_parse_atom(toks: _SlowTokens, gen_index: dict[str, int]) -> Word:
    tok = toks.peek()
    if tok == "(":
        toks.take()
        inner = _slow_parse_word(toks, gen_index)
        toks.expect(")")
        return inner
    if tok == "1":
        toks.take()
        return ()
    if tok is not None and _SLOW_IDENT_RE.match(tok):
        name = toks.take()
        if name not in gen_index:
            raise UndeclaredGenerator(name)
        return ((gen_index[name], 1),)
    ln, col = toks.where()
    raise ParseError(ln, col, "generator, '(' or '1'")


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


def slow_coset_orders(g):
    """Order in G/Z(G) of every element's center coset, read from the
    quotient group G/Z(G) built with FiniteGroup.quotient."""
    z = g.center()
    return g.quotient(z).element_orders()[z.coset_index()]


def slow_conjugacy_classes(g):
    """Conjugacy classes ordered by smallest member, one orbit gather per
    class (FiniteGroup.conjugacy_classes before it became one gather)."""
    n = g.order
    inv = g.inverses()
    seen = np.zeros(n, dtype=bool)
    classes = []
    for x in range(n):
        if seen[x]:
            continue
        # conjugate of x by g is (g*x)*g^-1, vectorized over g
        orbit = np.unique(g.table[g.table[:, x], inv])
        seen[orbit] = True
        classes.append(tuple(int(i) for i in orbit))
    return classes


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
    m = int(g.element_orders()[z])
    if ab.element_orders()[zbar] != m:
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
    classes = analysis.beta_partition(g)
    for cid in range(1, len(classes)):
        cent = g.centralizer(classes[cid][0])
        if not slow_is_normal(g, cent):
            return False
        quo = g.quotient(cent)
        if not quo.is_abelian or not slow_embeds(quo, z_subs):
            return False
    return True


def parent_ncen(g, label):
    """check_ncen as it was before the G' containment test: it builds C(x)
    and G/C(x) for every class and reads their structure."""
    if g.is_abelian or analysis.is_regular(g) is None:
        return checks._na("ncen", label, "not a non-abelian regular group")
    classes = g.beta_classes()
    z_orders = g.element_orders()[g.beta_class_ids() == 0]
    for cid in range(1, len(classes)):
        cent = g.centralizer(classes[cid][0])
        if not g.is_normal(cent):
            return checks._result("ncen", label, False,
                                  witness=(("class", cid), ("normal", False)))
        quo = g.quotient(cent)
        if not quo.is_abelian:
            return checks._result("ncen", label, False,
                                  witness=(("class", cid), ("quotient_abelian", False)))
        if not abelian_embeds(quo.element_orders(), z_orders):
            return checks._result("ncen", label, False,
                                  witness=(("class", cid),
                                           ("quotient_histogram", quo.order_histogram())))
    return checks._result("ncen", label, True, details={"classes_checked": len(classes) - 1})


def parent_lg2(g, label):
    """check_lg2 as it was before it read coset orders: it builds
    (beta(x) u Z)/Z as a group for every applicable maximal class."""
    if g.is_abelian or analysis.is_induced_regular(g) is None:
        return checks._na("lg2", label, "not induced regular")
    ids = g.beta_class_ids()
    coset_orders = slow_coset_orders(g)
    applicable = False
    for cid, cent in analysis.maximal_centralizers(g):
        primes = {o for o in coset_orders[cent.mask & (ids != cid)].tolist()
                  if o != 2 and core.is_prime(o)}
        if not primes:
            continue
        applicable = True
        hx = analysis.h_subgroup(g, cid)
        hx_group = hx.as_group()
        hq = hx_group.quotient(hx_group.subgroup(np.flatnonzero(ids[hx.mask] == 0)))
        for p in sorted(primes):
            if is_elementary_p(hq) != p:
                return checks._result("lg2", label, False,
                                      witness=(("class", cid), ("p", p),
                                               ("hx_quotient_histogram", hq.order_histogram())))
    if not applicable:
        return checks._na("lg2", label, "no odd-prime coset-order witness")
    return checks._result("lg2", label, True)


def parent_ereg1(g, label):
    """check_ereg1 as it was before the whole-array comparison: it compares
    every beta class with the center coset of its first member."""
    if g.is_abelian:
        return checks._na("ereg1", label, "abelian")
    lhs = analysis.is_regular(g) is not None
    cidx = g.center().coset_index()
    rhs, bad = True, None
    for cid, members in enumerate(g.beta_classes()):
        coset = np.flatnonzero(cidx == cidx[members[0]])
        if tuple(coset.tolist()) != members:
            rhs, bad = False, cid
            break
    return checks._result("ereg1", label, lhs == rhs,
                          witness=(("regular", lhs), ("all_classes_are_cosets", rhs),
                                   ("first_non_coset_class", bad)),
                          details={"regular": lhs, "all_classes_are_cosets": rhs})


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
    classes = analysis.beta_partition(g)
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
        for members in classes))
    sq_of_class = tuple(sorted(
        tuple(sorted({int(g.beta_class_ids()[int(g.table[x, x])]) == 0 for x in members}))
        for members in classes))
    center_hist = tuple(sorted(int(orders[z]) for z in classes[0]))
    return (
        g.order, g.is_abelian, g.order_histogram(), center_hist,
        tuple(sorted(map(len, classes))), tuple(sorted(int(x) for x in csize)),
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
            ext = _extend_map(a, b, fmap, used, gens[i], cand)
            if ext is not None and search(i + 1, *ext):
                return True
        return False

    return search(0, {0: 0}, {0})


def slow_export(graph, fmt):
    """edge-list and dot written one pair at a time from oracles.edges."""
    if fmt == "edge-list":
        return "".join(f"{u} {v}\n" for u, v in edges(graph))
    lines = ["graph noncentralizer {"]
    for i, p in enumerate(graph.parts):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="part {i}";')
        for v in p:
            lines.append(f'    n{v} [label="{graph.labels[v]}"];')
        lines.append("  }")
    for u, v in edges(graph):
        lines.append(f"  n{u} -- n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


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


def assert_same_verdict(rows, labels=None):
    """from_table accepts exactly what the oracle accepts, with the same
    message; an associativity triple only has to be a true failure."""
    expected, table = slow_from_table_error(rows, labels)
    try:
        g = from_table(rows, labels)
    except NotAGroup as exc:
        assert expected is not None, str(exc)
        if expected.startswith("associativity"):
            assert str(exc).startswith("associativity fails at ")
            assert_triple_fails(table, named_triple(exc))
        else:
            assert str(exc) == expected
        return False
    assert expected is None, expected
    assert (g.table == table).all()
    return True


def cyclic_square(m):
    """C_m x C_m with (a, b) at index m*a + b."""
    a, b = np.divmod(np.arange(m * m), m)
    return m * ((a[:, None] + a) % m) + (b[:, None] + b) % m


def identity_moved(table, rng):
    """table under a random relabeling that moves index 0 elsewhere (n > 1)."""
    n = table.shape[0]
    perm = rng.permutation(n)
    if perm[0] == 0:
        perm[[0, 1]] = perm[[1, 0]]
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out


def corrupted(table, rng):
    """Copies of a table with identity row and column 0 that are not Latin
    squares: one entry changed, one row repeated, and two entries of a row
    swapped (every row still a permutation, two columns not)."""
    n = table.shape[0]
    i, k = 1 + rng.choice(n - 1, size=2, replace=False)
    a, b = 1 + rng.choice(n - 1, size=2, replace=False)
    entry = table.copy()
    entry[i, a] = (entry[i, a] + 1 + rng.integers(n - 1)) % n
    row = table.copy()
    row[k, 1:] = row[i, 1:]
    swap = table.copy()
    swap[k, [a, b]] = swap[k, [b, a]]
    return entry, row, swap


class TestReorderedValidation:
    def test_random_latin_squares(self):
        rng = np.random.default_rng(9)
        verdicts = set()
        for n in range(1, 10):
            for _ in range(6):
                table = random_latin_square(n, rng)
                verdicts.add(assert_same_verdict(table))
                if n > 1:
                    verdicts.add(assert_same_verdict(identity_moved(table, rng)))
        assert verdicts == {True, False}

    def test_corrupted_tables(self, small_corpus):
        rng = np.random.default_rng(11)
        messages = set()
        for label, g in small_corpus[1:]:
            for bad in corrupted(np.array(g.table, dtype=np.int64), rng):
                assert not assert_same_verdict(bad), label
                assert not assert_same_verdict(bad.T), label
                assert not assert_same_verdict(identity_moved(bad, rng)), label
                messages.add(slow_from_table_error(bad)[0].split()[0])
        assert messages == {"row", "column"}

    @pytest.mark.parametrize("n", [2, 5, 100])
    def test_associative_tables_without_inverses(self, n):
        # monoids with identity 0 pass Light's test and fail only on inverses:
        # max(x, y), and x*y = n-1 for x, y > 0
        rng = np.random.default_rng(29)
        idx = np.arange(n)
        null = np.full((n, n), n - 1)
        null[0], null[:, 0] = idx, idx
        for table in (np.maximum.outer(idx, idx), null):
            assert core.greedy_generators(table) and slow_associativity_failure(table) is None
            assert not assert_same_verdict(table)
            assert not assert_same_verdict(identity_moved(table, rng))

    @pytest.mark.parametrize("kind", ["max", "null", "null moved"])
    def test_non_latin_monoid_stops_past_log2_generators(self, kind, monkeypatch):
        # these monoids of order 1024 pass Light's test for every generator
        # and need about n greedy generators, where a group needs at most
        # log2(n) = 10; the search must stop there, not after n closures
        n = 1024
        idx = np.arange(n)
        table = np.full((n, n), n - 1)
        table[0], table[:, 0] = idx, idx
        if kind == "max":
            table = np.maximum.outer(idx, idx)
        elif kind == "null moved":
            table = identity_moved(table, np.random.default_rng(31))
        expected = slow_from_table_error(table)[0]
        assert expected.split()[0] in ("row", "column")
        closure = core._right_closure
        calls = []

        def counted(*args):
            calls.append(args)
            assert len(calls) <= 10, "generator search ran past log2(n) generators"
            closure(*args)

        monkeypatch.setattr(core, "_right_closure", counted)
        with pytest.raises(NotAGroup) as info:
            from_table(table)
        assert str(info.value) == expected

    def test_relabeled_groups_with_the_identity_moved(self, small_corpus):
        rng = np.random.default_rng(13)
        for label, g in small_corpus:
            table = np.array(g.table, dtype=np.int64)
            moved = identity_moved(table, rng) if g.order > 1 else table
            labels = [f"x{i}" for i in range(g.order)]
            assert assert_same_verdict(moved, labels), label
            e = int(np.flatnonzero((moved == np.arange(g.order)).all(axis=1))[0])
            swapped = labels.copy()
            swapped[0], swapped[e] = labels[e], labels[0]
            assert from_table(moved, labels).labels == tuple(swapped), label

    def test_wrong_label_counts(self, small_corpus):
        rng = np.random.default_rng(17)
        for label, g in small_corpus[1:]:
            table = np.array(g.table, dtype=np.int64)
            for rows in (table, identity_moved(table, rng), *corrupted(table, rng)):
                for count in (g.order - 1, g.order + 1):
                    assert not assert_same_verdict(rows, ["x"] * count), label

    def test_transposed_inputs(self, small_corpus):
        rng = np.random.default_rng(19)
        verdicts = set()
        for label, g in small_corpus:
            table = np.array(g.table, dtype=np.int64)
            for rows in (table.T, np.asfortranarray(table), random_latin_square(g.order, rng).T):
                assert not rows.flags.c_contiguous or g.order == 1
                verdicts.add(assert_same_verdict(rows))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("make", [
        lambda: cyclic_square(10),
        lambda: families.cyclic(100).table,
        lambda: families.cyclic(125).table,
        lambda: families.heisenberg(5).table,
    ], ids=["C10xC10", "C100", "C125", "H125"])
    def test_orders_with_a_partial_last_block(self, make):
        rng = np.random.default_rng(23)
        table = np.array(make(), dtype=np.int64)
        n = table.shape[0]
        assert n > 64 and n % 64
        assert assert_same_verdict(table)
        assert assert_same_verdict(identity_moved(table, rng))
        assert not assert_same_verdict(random_latin_square(n, rng))
        for bad in corrupted(table, rng):
            assert not assert_same_verdict(bad)

    def test_intercalate_in_the_partial_last_block(self):
        # C10 x C10 has the intercalate rows {70, 75} x columns {2, 7}; the
        # greedy generators 1 and 10 miss those columns, so only rows 70 and
        # 75, in the last block of 36 rows, see the swap
        table = cyclic_square(10)
        r, c = np.ix_([70, 75], [2, 7])
        assert (table[r, c] == [[72, 77], [77, 72]]).all()
        table[r, c] = table[r, c][:, ::-1]
        assert core.greedy_generators(table) == [1, 10]
        assert not assert_same_verdict(table)
        with pytest.raises(NotAGroup, match="associativity") as info:
            from_table(table)
        assert named_triple(info.value)[0] in (70, 75)


# --- table builders -------------------------------------------------------------

# presentations that hit max_cosets and finish only through the lookahead pass
LOOKAHEAD_CASES = [
    ("< a,b | a^2, b^3, (a*b)^5 >", 65),
    ("< x,y | x^2, y^3, (x*y)^7, (x^-1*y^-1*x*y)^4 >", 241),
]


@pytest.fixture(scope="module")
def shipped_presentations(order8_entries, order16_entries, order32_entries, order64_entries):
    entries = [*order8_entries, *order16_entries, *order32_entries, *order64_entries]
    return [e.payload for e in entries if e.kind == "presentation"]


class TestTableBuilders:
    @pytest.mark.parametrize("degree, gens", [
        (3, []),
        (4, [(1, 2, 3, 0), (2, 1, 0, 3)]),
        (5, [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]),
        (5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]),
        (7, [(1, 2, 3, 4, 5, 6, 0)]),
        (12, [(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0), (0, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1)]),
        (0, [()]),
        (1, [(0,)]),
        (1, [(0,), (0,)]),
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

    @pytest.mark.parametrize("text, cap", LOOKAHEAD_CASES)
    def test_lookahead_recovery_matches_uncapped_run(self, text, cap, monkeypatch):
        # the cap is hit once; the lookahead scan and compact() then free
        # enough cosets for the enumeration to finish under the same cap
        seen, caps = [], []
        fast, lookahead = presentation._table_to_group, presentation._lookahead

        def spy(ct, pres):
            seen.append(slow_coset_table(ct, pres))
            return fast(ct, pres)

        def counted(ct):
            caps.append(len(ct.rows))
            lookahead(ct)

        monkeypatch.setattr(presentation, "_table_to_group", spy)
        monkeypatch.setattr(presentation, "_lookahead", counted)
        capped = enumerate_presentation(parse(text), max_cosets=cap)
        uncapped = enumerate_presentation(parse(text))
        assert caps == [cap]
        for g, (table, labels) in zip((capped, uncapped), seen, strict=True):
            assert (g.table == table).all()
            assert g.labels == tuple(labels)
        assert (capped.table == uncapped.table).all() and capped.labels == uncapped.labels
        with pytest.raises(CosetLimitExceeded):
            enumerate_presentation(parse(text), max_cosets=cap - 1)

    def test_live_rows_point_at_live_cosets(self, shipped_presentations, monkeypatch):
        # scan_relators follows row entries without rep(); that is sound only
        # if no coincidence leaves a live row pointing at a dead coset
        fast = presentation._CosetTable.coincidence
        calls = []

        def checked(ct, alpha, beta):
            fast(ct, alpha, beta)
            calls.append(alpha)
            for k, row in enumerate(ct.rows):
                if ct.p[k] == k:
                    assert all(v is None or ct.p[v] == v for v in row), (k, row)

        monkeypatch.setattr(presentation._CosetTable, "coincidence", checked)
        cases = [(text, None) for text in shipped_presentations]
        cases += [(text, None) for text, _, _ in FAMILY_PRESENTATIONS] + LOOKAHEAD_CASES
        for text, cap in cases:
            enumerate_presentation(parse(text), max_cosets=cap)
        assert len(calls) > 2000

    @pytest.mark.parametrize("ctor, oracle, args", [
        (families.dihedral, slow_dihedral, (2, 3, 5, 8, 13)),
        (families.generalized_quaternion, slow_quaternion, (8, 16, 64)),
        (families.modular_M, slow_modular, (8, 16, 64)),
        (families.heisenberg, slow_heisenberg, (3, 5)),
    ])
    def test_family_tables_match_double_loop(self, ctor, oracle, args):
        for a in args:
            assert (ctor(a).table == oracle(a)).all(), a


def random_power_relators(rng, count):
    """Presentations on a and b: two or three relators v^k, v a cyclically
    reduced word of 1-3 letters and k from 2 to 64, then a commutator, the
    dihedral b^2, (a*b)^2 or nothing, so that some are finite."""
    names = ["a", "a^-1", "b", "b^-1"]
    texts = []
    for _ in range(count):
        rels = []
        for _ in range(rng.randint(2, 3)):
            v = [rng.randrange(4)]
            while len(v) < rng.randint(1, 3):
                v.append(rng.choice([x for x in range(4) if x != v[-1] ^ 1]))
            if len(v) > 1 and v[0] == v[-1] ^ 1:
                v.pop()
            rels.append(f"({'*'.join(names[x] for x in v)})^{rng.randint(2, 64)}")
        extra = rng.choice(["", ", a*b = b*a", ", b^2, (a*b)^2"])
        texts.append(f"< a, b | {', '.join(rels)}{extra} >")
    return texts


class TestScanSkip:
    """A power relator closed on a loop of live cosets is not scanned again on
    it.  Skipped scans are those that would change nothing, so after every
    scan the coset table and union-find equal those that the full scan
    (oracles.parent_scan_relators) makes from the same table."""

    @pytest.fixture
    def scans(self, monkeypatch):
        fast, compact = presentation._CosetTable.scan_relators, presentation._CosetTable.compact
        stats = Counter()

        def outcome(scan, *args):
            try:
                return scan(*args)
            except CosetLimitExceeded:  # the cap is hit at the same definition
                return CosetLimitExceeded

        def checked(ct, alpha, fill=True):
            twin = copy.copy(ct)
            twin.rows, twin.p, twin.queue = [row[:] for row in ct.rows], ct.p[:], []
            rel_letters = [letters for letters, *_ in ct.relators]
            expected = outcome(parent_scan_relators, twin, alpha, rel_letters, fill)
            stats["skipped"] += sum(alpha in done for *_, done in ct.relators)
            assert outcome(fast, ct, alpha, fill) == expected
            assert ct.rows == twin.rows and ct.p == twin.p, alpha
            stats["scans"] += 1
            if expected is CosetLimitExceeded:
                raise CosetLimitExceeded(ct.max_cosets)
            return expected

        def cleared(ct):
            stats["marks before compact"] += sum(len(done) for *_, done in ct.relators)
            compact(ct)
            assert not any(done for *_, done in ct.relators)

        monkeypatch.setattr(presentation._CosetTable, "scan_relators", checked)
        monkeypatch.setattr(presentation._CosetTable, "compact", cleared)
        return stats

    def test_shipped_family_and_dihedral_presentations(self, shipped_presentations, scans):
        texts = shipped_presentations + [text for text, _, _ in FAMILY_PRESENTATIONS]
        texts += ["< r, s | r^256, s^2, s*r*s*r >", "< r,s | r^512, s^2, s*r*s^-1 = r^-1 >"]
        orders = [enumerate_presentation(parse(text)).order for text in texts]
        assert orders[-2:] == [512, 1024]
        assert scans["skipped"] > scans["scans"] // 2, scans

    @pytest.mark.parametrize("text, cap", LOOKAHEAD_CASES)
    def test_marks_cleared_by_compaction(self, text, cap, scans):
        assert enumerate_presentation(parse(text), max_cosets=cap).order == {65: 60, 241: 168}[cap]
        assert scans["marks before compact"] > 0 and scans["skipped"] > 0, scans

    def test_random_power_relators(self, scans):
        outcomes = Counter()
        for text in random_power_relators(random.Random(20), 40):
            try:
                outcomes[enumerate_presentation(parse(text), max_cosets=300).order > 1] += 1
            except CosetLimitExceeded:
                outcomes["cap"] += 1
        assert outcomes.keys() == {True, False, "cap"}, outcomes
        assert scans["skipped"] > 0 and scans["marks before compact"] > 0, scans


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


def action_table(rows):
    """core._action_table over nodes 0..n-1 with step(i, x) = rows[i, x]:
    its table, nodes and tree."""
    return core._action_table(0, lambda i, x: int(rows[i, x]), rows.shape[1])[:3]


class TestActionTables:
    """Groups built from an action are checked with the action's own letters,
    and from_table, kept as the oracle, accepts every table they give."""

    def d8_letters(self):
        # every non-identity element of D8 is a letter, so BFS numbers the
        # nodes as D8 does and letter x is element x + 1
        return np.array(families.dihedral(4).table, dtype=np.int64)[:, 1:]

    def test_accepts_the_right_regular_action(self):
        table, nodes, tree = action_table(self.d8_letters())
        assert (table == families.dihedral(4).table).all()
        assert nodes == list(range(8)) and tree == [(0, 0)] + [(0, x) for x in range(7)]

    def test_letter_row_not_a_permutation(self):
        rows = self.d8_letters()
        rows[3, 0] = rows[5, 0]
        with pytest.raises(NotAGroup, match="letter 0 does not act as a permutation of 0..7"):
            action_table(rows)

    def test_two_entries_of_a_letter_row_swapped(self):
        # still a permutation, and column 1 is that row; only Light's test sees it
        rows = self.d8_letters()
        rows[[3, 5], 0] = rows[[5, 3], 0]
        with pytest.raises(NotAGroup, match="associativity fails at") as info:
            action_table(rows)
        table = np.array(families.dihedral(4).table, dtype=np.int64)
        table[[3, 5], 1] = table[[5, 3], 1]
        assert_triple_fails(table, named_triple(info.value))

    def test_relabeled_column(self):
        # an eighth letter whose row is column 1 relabeled by the swap of 2
        # and 3: a permutation that takes node 0 to 1, but not column 1
        rows = self.d8_letters()
        relabel = np.array([0, 1, 3, 2, 4, 5, 6, 7])
        rows = np.column_stack([rows, relabel[rows[:, 0]]])
        with pytest.raises(NotAGroup, match="column 1 is not the action of letter 7"):
            action_table(rows)

    def test_action_that_is_not_regular(self):
        # D8 on the corners of a square: the BFS table is C4's, a group, but
        # the reflection is not right multiplication by any of its elements
        cycle, flip = (1, 2, 3, 0), (1, 0, 3, 2)
        rows = np.array([cycle, flip]).T
        with pytest.raises(NotAGroup, match="column 1 is not the action of letter 1"):
            action_table(rows)

    def test_corrupted_coset_tables(self, shipped_presentations, monkeypatch):
        # one entry of a generator's row moved, or two entries swapped: the
        # permutations the letters act by then generate a group that does
        # not act regularly, so no table built from them may pass
        rng = np.random.default_rng(37)
        fast = presentation._table_to_group
        messages = set()

        def corrupt(ct, pres):
            live = [k for k in range(len(ct.rows)) if ct.p[k] == k]
            a, b = rng.choice(live, size=2, replace=False)
            x = int(rng.integers(ct.width))
            if mode == "swap":
                ct.rows[a][x], ct.rows[b][x] = ct.rows[b][x], ct.rows[a][x]
            else:
                ct.rows[a][x] = ct.rows[b][x]
            return fast(ct, pres)

        monkeypatch.setattr(presentation, "_table_to_group", corrupt)
        for text in shipped_presentations:
            for mode in ("move", "swap"):
                with pytest.raises(NotAGroup) as info:
                    enumerate_presentation(parse(text))
                messages.add(str(info.value).split()[0])
        assert messages == {"letter", "column", "associativity"}

    def test_light_trim_matches_every_letter(self, shipped_presentations, monkeypatch):
        # Light's test skips a letter's element y with y*g = 0 for an already
        # tested g; on intact and corrupted coset tables it fails exactly
        # when the test on every letter's element fails, with the same message
        rng = np.random.default_rng(41)
        fast, light = presentation._table_to_group, core._check_associativity
        outcomes, row0 = [], []

        def message(table, gens):
            try:
                light(table, gens)
            except NotAGroup as exc:
                return str(exc)

        def corrupt(ct, pres):
            live = [k for k in range(len(ct.rows)) if ct.p[k] == k]
            a, b = rng.choice(live, size=2, replace=False)
            x = int(rng.integers(ct.width))
            if mode == "swap":
                ct.rows[a][x], ct.rows[b][x] = ct.rows[b][x], ct.rows[a][x]
            elif mode == "move":
                ct.rows[a][x] = ct.rows[b][x]
            row0[:] = ct.rows[0]
            return fast(ct, pres)

        def both(table, gens):
            index = {0: 0}  # BFS numbers the cosets of row 0 first
            every = np.unique([index.setdefault(c, len(index)) for c in row0])
            outcomes.append((len(gens) < len(every), message(table, gens), message(table, every)))
            light(table, gens)

        monkeypatch.setattr(presentation, "_table_to_group", corrupt)
        monkeypatch.setattr(core, "_check_associativity", both)
        for text in shipped_presentations:
            for mode in ("intact", "move", "swap"):
                try:
                    enumerate_presentation(parse(text))
                except NotAGroup:
                    pass
        # Cm x S3 on m x 3 points, by c -> c + 1, c -> c - 1, a 3-cycle and a
        # transposition: the central first letter passes, a later one fails
        for m in (2, 3, 4):
            rows = np.array([[3 * ((c + 1) % m) + y, 3 * ((c - 1) % m) + y,
                              3 * c + (y + 1) % 3, 3 * c + 2 - y] for c in range(m) for y in range(3)])
            row0[:] = rows[0].tolist()
            with pytest.raises(NotAGroup, match="associativity fails at"):
                action_table(rows)
        assert all(trimmed == every for _, trimmed, every in outcomes)
        kinds = Counter((skipped, trimmed is None) for skipped, trimmed, _ in outcomes)
        assert kinds[True, True] and kinds[True, False], kinds

    def test_from_table_oracle(self, shipped_presentations, order8_entries, order16_entries,
                               order32_entries, order64_entries):
        entries = [*order8_entries, *order16_entries, *order32_entries, *order64_entries]
        perms = [e.payload for e in entries if e.kind == "perm"]
        assert len(perms) + len(shipped_presentations) == 115
        groups = [from_permutations(degree, gens) for degree, gens in perms]
        groups += [enumerate_presentation(parse(text)) for text in shipped_presentations]
        groups.append(from_permutations(6, [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)]))
        groups.append(enumerate_presentation(parse("< r,s | r^512, s^2, s*r*s^-1 = r^-1 >")))
        assert [g.order for g in groups[-2:]] == [720, 1024]
        for g in groups:
            oracle = from_table(np.array(g.table), g.labels)
            assert (oracle.table == g.table).all() and oracle.labels == g.labels


def random_presentation_text(rng):
    """A presentation over a few generators with nested words, exponents from
    -3 to 3, '1' and equations; some declare a name twice or use an
    undeclared one, and some are corrupted by one inserted or deleted
    character.  Lines break at "\n" only."""
    gens = rng.sample(["a", "b", "c", "x1", "_y"], rng.randint(1, 3))
    if rng.random() < 0.1:
        gens.append(rng.choice(gens))
    names = gens + ["z"] * (rng.random() < 0.1)

    def word(depth):
        factors = []
        for _ in range(rng.randint(1, 3)):
            r = rng.random()
            if depth < 3 and r < 0.25:
                atom = f"({word(depth + 1)})"
            elif r < 0.35:
                atom = "1"
            else:
                atom = rng.choice(names)
            if rng.random() < 0.5:
                atom += f"^{rng.randint(-3, 3)}"
            factors.append(atom)
        return rng.choice(["*", " * "]).join(factors)

    rels = [word(0) + (f" = {word(0)}" if rng.random() < 0.3 else "")
            for _ in range(rng.randint(0, 3))]
    text = f"< {', '.join(gens)} | {', '.join(rels)} >"
    text = "".join(c if c != " " or rng.random() > 0.1 else "\n" for c in text)
    if rng.random() < 0.4:
        at = rng.randrange(len(text) + 1)
        if rng.random() < 0.5:
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + rng.choice("()^*,=<>|-2?1a \n") + text[at:]
    return text


def parse_outcome(parser, text):
    """("ok", relators) of a parse, or the type and message of its exception."""
    try:
        return "ok", parser(text).relators
    except (ParseError, UndeclaredGenerator) as exc:
        return type(exc), str(exc)


class TestParseOracle:
    def test_shipped_and_family_presentations(self, shipped_presentations):
        texts = shipped_presentations + [text for text, _, _ in FAMILY_PRESENTATIONS]
        assert len(texts) == 100
        for text in texts:
            assert parse(text) == slow_parse(text), text

    @pytest.mark.parametrize("text", [
        "", "<", "< a", "< | a >", "< , | a >", "< a b, | a^2 >", "< a | >", "< a | , >",
        "< a | a^2, >", "< a | a^ >", "< a | a^x >", "< a | a^2^3 >", "< a | (a >",
        "< a | a) >", "< a | a*(a*(a^-1)^2)^-2 >", "< a | a = a = a >", "< a | a > b",
        "< a | a >\n\n", "< a | 01 >", "< a | a^-0*1^7 >", "< a1 | a1^2 = 1 >",
        "< a | (((((((((((a))))))))))) >", "< a, b | a*b*a^-1*b^-1 = 1, (a*b)^0 >",
        "< a, b | (a*b*a^-1)^3, (b^-1*a*b^2*a^-1*b)^-2, (a*b*a^-1*b^-1)^2, (a^2*b*a^-2)^0 >",
    ])
    def test_edge_cases(self, text):
        assert parse_outcome(parse, text) == parse_outcome(slow_parse, text)

    def test_deep_nesting_parses_without_recursion(self):
        depth = 10 ** 4
        text = "< a | " + "(" * depth + "a" + ")" * depth + "^2 >"
        assert parse(text).relators == (((0, 2),),)
        with pytest.raises(ParseError, match="expected '\\)'"):
            parse("< a | " + "(" * depth + "a >")

    def test_random_corpus(self):
        rng = random.Random(12)
        kinds = Counter()
        for _ in range(400):
            text = random_presentation_text(rng)
            fast = parse_outcome(parse, text)
            assert fast == parse_outcome(slow_parse, text), text
            kinds[fast[0]] += 1
        assert kinds["ok"] > 150
        assert kinds[ParseError] > 50 and kinds[UndeclaredGenerator] > 10


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
        classes = analysis.beta_partition(g)
        assert classes == slow_beta_classes(g)
        assert all(g.beta_class_ids()[x] == cid
                   for cid, c in enumerate(classes) for x in c)

    def test_row_classes_match_unique_rows(self, small_corpus):
        for label, g in small_corpus:
            comm = g.commuting_matrix()
            _, ids = np.unique(comm, axis=0, return_inverse=True)
            fast = core.row_classes(comm)
            same = ids[:, None] == ids[None, :]
            assert (same == (fast[:, None] == fast[None, :])).all(), label


@pytest.fixture(scope="module")
def blocked_corpus(shipped_groups):
    """Every shipped catalog group (one short block each) and larger tables:
    orders 640 and 1024 are whole blocks, order 343 ends in a short one."""
    return [*shipped_groups,
            ("C1024", families.cyclic(1024)), ("D1024", families.dihedral(512)),
            ("H343", families.heisenberg(7)),
            ("D64xC5", core.direct_product(families.dihedral(32), families.cyclic(5)))]


class TestBlockedPasses:
    def test_commuting_matrix_matches_transpose_compare(self, blocked_corpus):
        for label, g in blocked_corpus:
            assert np.array_equal(g.commuting_matrix(), g.table == g.table.T), label

    def test_commutator_scatter_matches_unique_gather(self, blocked_corpus):
        for label, g in blocked_corpus:
            assert np.array_equal(g._commutators(), parent_commutators(g)), label


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
            seeds = {power(g, x, p) for x in range(g.order)} | slow_commutators(g)
            assert g.frattini() == g.generated_subgroup(seeds), label

    def test_conjugacy_gather_matches_orbit_loop(self, small_corpus):
        rng = np.random.default_rng(14)
        for label, g in small_corpus:
            copies = [g] + [from_table(relabeled(g, rng)) for _ in range(3) if g.order > 1]
            for h in copies:
                assert h.conjugacy_classes() == tuple(slow_conjugacy_classes(h)), label

    @pytest.mark.parametrize("make, nilpotent", [
        (lambda: families.cyclic(30), True),
        (lambda: core.direct_product(families.generalized_quaternion(8), families.cyclic(3)),
         True),
        (lambda: core.direct_product(families.dihedral(4), families.cyclic(15)), True),
        (lambda: from_permutations(4, [(1, 2, 0, 3), (0, 2, 3, 1)]), False),  # A4
        (lambda: from_permutations(4, [(1, 2, 3, 0), (1, 0, 2, 3)]), False),  # S4
        (lambda: core.direct_product(families.dihedral(3), families.cyclic(4)), False),
    ], ids=["C30", "Q8xC3", "D8xC15", "A4", "S4", "S3xC4"])
    def test_frattini_matches_maximal_subgroups(self, make, nilpotent):
        g = make()
        if nilpotent:
            assert g.frattini() == frattini_by_maximal_subgroups(g)
        else:  # recognised by its p-element counts
            with pytest.raises(ValueError, match="nilpotent"):
                g.frattini()


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
                assert [(c[0], c) for c in h.cosets()] == cosets
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
            classes = analysis.beta_partition(g)
            cents = [(cid, g.centralizer(classes[cid][0])) for cid in range(1, len(classes))]
            expected = [cid for cid, c in cents
                        if not any(set(c.members) < set(d.members) for _, d in cents)]
            assert [cid for cid, _ in analysis.maximal_centralizers(g)] == expected, label

    def test_float32_class_products_match_int64(self, shipped_groups):
        # the float32 counts are exact below 2^24; D1200 has 301 beta classes
        groups = [*shipped_groups, ("D1200", families.dihedral(600))]
        for label, g in groups:
            assert g.maximal_class_ids() == parent_maximal_class_ids(g), label
        assert len(groups[-1][1].maximal_class_ids()) == 301


# --- structure modulo the center and recorded generators ---------------------------

def right_closure(g, gens):
    """Elements reached from the identity by right multiplication with gens,
    one element and generator at a time."""
    reached, todo = {0}, [0]
    while todo:
        x = todo.pop()
        for s in gens:
            y = int(g.table[x, s])
            if y not in reached:
                reached.add(y)
                todo.append(y)
    return reached


def counting_view(a, lookups):
    """A view of array a that appends the size of each lookup's result to lookups."""
    class Counting(np.ndarray):
        def __getitem__(self, index):
            out = super().__getitem__(index)
            lookups.append(np.size(out))
            return out
    return a.view(Counting)


def without_generators(g):
    """g's table as a raw FiniteGroup, which records no generating set."""
    return core.FiniteGroup(g.table, g.labels)


class TestCenterCosetCommutators:
    """_commutators over one representative per center coset, is_abelian over
    generators() and the abelian beta classes against the all-pairs and
    commuting-matrix oracles."""

    def assert_parity(self, label, g):
        assert np.array_equal(g._commutators(), parent_commutators(g)), label
        assert g.is_abelian == parent_is_abelian(g), label
        ids, expected = g.beta_class_ids(), core.row_classes(g.commuting_matrix())
        assert ids.dtype == expected.dtype and np.array_equal(ids, expected), label

    def test_catalogs_corpus_and_relabeled_copies(self, shipped_groups, split_corpus):
        rng = np.random.default_rng(29)
        copies = [(label + "~r", from_table(relabeled(g, rng))) for label, g in split_corpus]
        verdicts = set()
        for label, g in [*shipped_groups, *split_corpus, *copies]:
            fresh = core.FiniteGroup(g.table, g.labels, g.generators())
            for h in (fresh, without_generators(g)):
                self.assert_parity(label, h)
                verdicts.add(h.is_abelian)
        assert verdicts == {True, False}

    def test_large_centers(self):
        from test_check_passes import extraspecial_3_1_4  # that module imports this one
        groups = [(spec, cli.resolve_source(spec)[1]) for spec in
                  ("M:512", "heisenberg:7", "dihedral:64 x cyclic:5", "dihedral:4 x elem:2:9")]
        groups.append(("3^(1+4)", extraspecial_3_1_4()))
        for label, g in groups:
            index = g.order // int(g.beta_class_sizes()[0])
            assert 4 <= index <= 128 and not g.is_abelian, label
            self.assert_parity(label, g)

    def test_trivial_and_abelian_groups(self):
        groups = [families.cyclic(1), from_permutations(3, []),
                  enumerate_presentation(parse("< a | a^1 >")), families.cyclic(2),
                  families.cyclic(12), families.elementary_abelian(3, 3),
                  families.elementary_abelian(2, 5),
                  core.direct_product(families.cyclic(4), families.cyclic(6), families.cyclic(2))]
        for g in groups:
            self.assert_parity(g.order, g)
            assert g.is_abelian and g._commutators().tolist() == [0]

    def test_groups_without_a_recorded_set(self, split_corpus):
        verdicts = set()
        for label, g in split_corpus:
            built = [without_generators(g), g.center().as_group()]
            built += [g.centralizer(c[0]).as_group() for c in g.beta_classes()[1:3]]
            built += [g.quotient(g.center()), g.quotient(g.commutator_subgroup())]
            for h in built:
                assert h is g or "generators" not in h._cache, label  # as_group of all of g is g
                self.assert_parity(label, h)
                verdicts.add(h.is_abelian)
        assert verdicts == {True, False}


class TestRecordedGenerators:
    """Every constructor records a set that generates its group."""

    def assert_generates(self, label, g, recorded=True):
        assert ("generators" in g._cache) == recorded, label
        assert right_closure(g, g.generators()) == set(range(g.order)), label

    def test_validated_tables_record_the_greedy_set(self):
        d8 = families.dihedral(4).table
        perm = np.array([5, 1, 2, 3, 4, 0, 6, 7])  # the identity moves to index 5
        moved = perm[d8[np.ix_(perm, perm)]]
        groups = [("moved identity", from_table(moved)), ("C1", families.cyclic(1)),
                  ("C7", families.cyclic(7)), ("D10", families.dihedral(5)), ("Q16", families.generalized_quaternion(16)),
                  ("M32", families.modular_M(32)), ("H125", families.heisenberg(5))]
        assert groups[0][1].labels[0] == "g5"
        for label, g in groups:
            self.assert_generates(label, g)
            assert list(g.generators()) == core.greedy_generators(g.table), label

    def test_action_tables_record_their_letters(self):
        groups = [("S3 on no letters", from_permutations(3, [])),
                  ("S6", from_permutations(6, [[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]])),
                  ("< a | a^1 >", enumerate_presentation(parse("< a | a^1 >")))]
        groups += [(text, enumerate_presentation(parse(text))) for text, _, _ in FAMILY_PRESENTATIONS]
        assert [g.order for _, g in groups[:3]] == [1, 720, 1]
        for label, g in groups:
            self.assert_generates(label, g)

    def test_direct_products_of_one_two_and_three_factors(self):
        d8, c3, raw = families.dihedral(4), families.cyclic(3), without_generators(families.cyclic(4))
        assert core.direct_product(d8) is d8
        pair = core.direct_product(d8, c3)
        assert pair.generators() == tuple(3 * x for x in d8.generators()) + c3.generators()
        for label, g in [("D8", core.direct_product(d8)), ("D8 x C3", pair),
                         ("D8 x C3 x C4", core.direct_product(d8, c3, raw)),
                         ("C4 x D8 x C3", core.direct_product(raw, d8, c3))]:
            self.assert_generates(label, g)
        e16 = families.elementary_abelian(2, 4)  # C2 x C2 x C2 x C2, folded from the left
        assert e16.generators() == (8, 4, 2, 1)
        self.assert_generates("E16", e16)

    def test_derived_groups_fall_back_to_the_greedy_set(self, split_corpus):
        for label, g in split_corpus[:14]:
            for h in (without_generators(g), g.quotient(g.center()), g.center().as_group()):
                if h is g:  # as_group of all of g is g
                    continue
                self.assert_generates(label, h, recorded=False)
                assert list(h.generators()) == core.greedy_generators(h.table), label


class TestCenterShortcuts:
    """The abelian report and graph never form the commuting matrix, and the
    commutator pass makes one inverse lookup per pair of center cosets."""

    def test_abelian_report_and_graph_skip_the_commuting_matrix(self, monkeypatch):
        def refuse(g):
            raise RuntimeError("commuting matrix formed")

        monkeypatch.setattr(core.FiniteGroup, "commuting_matrix", refuse)
        for spec in ("cyclic:1024", "elem:2:9"):
            label, g = cli.resolve_source(spec)
            report = analysis.build_report(g, label)
            assert report.cent_count == 1 and report.center_size == g.order, spec
            assert graph.build_graph(g).parts == (tuple(range(g.order)),), spec

    def test_commutators_gather_one_pair_per_two_center_cosets(self):
        lookups = []
        g = cli.resolve_source("M:512")[1]
        index = g.order // int(g.beta_class_sizes()[0])
        g._cache["inverses"] = counting_view(g.inverses(), lookups)
        commutators = g._commutators()
        assert index == 4 and 0 < sum(lookups) <= index ** 2
        assert np.array_equal(commutators, parent_commutators(families.modular_M(512)))

    @staticmethod
    def abelian_groups(shipped_groups):
        """The abelian shipped groups, acceptance-5 families and their
        products with C2..C5, and larger abelian families and products."""
        pairs = [*shipped_groups, *_with_cyclic_products(_family_instances())]
        pairs += [(spec, cli.resolve_source(spec)[1]) for spec in
                  ("cyclic:1024", "elem:2:9", "elem:3:4", "cyclic:4 x cyclic:6 x cyclic:2")]
        return [(label, g) for label, g in pairs if g.is_abelian]

    def test_abelian_commutators_read_no_classes(self, monkeypatch, shipped_groups):
        groups = self.abelian_groups(shipped_groups)
        expected = [oracles.parent_commutators(g) for _, g in groups]
        assert len(groups) > 20 and all(e.tolist() == [0] for e in expected)

        def refuse(g):
            raise RuntimeError("beta classes read")

        monkeypatch.setattr(core.FiniteGroup, "beta_class_ids", refuse)
        for (label, g), commutators in zip(groups, expected):
            fresh = core.FiniteGroup(g.table, g.labels, g.generators())
            assert np.array_equal(fresh._commutators(), commutators), label
            assert fresh._commutators().dtype == commutators.dtype, label
            assert fresh.commutator_subgroup().members == (0,), label

    def test_abelian_keys_match_the_commuting_matrix(self, shipped_groups):
        for label, g in self.abelian_groups(shipped_groups):
            fresh = core.FiniteGroup(g.table, g.labels)
            fresh._cache["is_abelian"] = False  # the commuting-matrix path
            keys = core.FiniteGroup(g.table, g.labels).element_keys()
            assert keys.dtype == np.int64 and np.array_equal(keys, fresh.element_keys()), label

    def test_abelian_fingerprint_forms_no_commuting_matrix(self, monkeypatch):
        def refuse(g):
            raise RuntimeError("commuting matrix formed")

        monkeypatch.setattr(core.FiniteGroup, "commuting_matrix", refuse)
        g = families.elementary_abelian(2, 9)
        fp = core.fingerprint(g)
        assert fp[:3] == (512, True, ((1, 1), (2, 511)))
        assert g.element_keys()[:, 2].tolist() == [512] * 512


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
                fast = abelian_embeds(a.element_orders(), b.element_orders())
                assert fast == slow_embeds(a, b_subs), (a_key, b_key)
                verdicts.append(fast)
        assert set(verdicts) == {True, False}
        assert len(verdicts) > 300

    def test_omega_counts_alone_do_not_decide(self):
        c4 = families.cyclic(4)
        k4 = families.elementary_abelian(2, 2)
        assert not abelian_embeds(c4.element_orders(), k4.element_orders())
        assert not abelian_embeds(k4.element_orders(), c4.element_orders())
        c2 = families.cyclic(2)
        assert abelian_embeds(c2.element_orders(), k4.element_orders())

    def test_ncen_matches_center_subgroup_enumeration(self, subgroup_corpus):
        checked = 0
        for label, g in subgroup_corpus:
            if g.is_abelian or analysis.is_regular(g) is None:
                continue
            assert checks.check_ncen(g, label).passed == slow_ncen(g), label
            checked += 1
        assert checked > 20

    @pytest.fixture(scope="class")
    def non_regular_corpus(self, subgroup_corpus):
        """subgroup_corpus, a relabeled copy of each of its groups, and S4, A4,
        S3 x S3, H27 x S3 and H27 x H27: groups that are not 2-groups, where
        the lg2 hypothesis can hold."""
        rng = np.random.default_rng(17)
        out = list(subgroup_corpus)
        out += [(label + "~r", from_table(relabeled(g, rng))) for label, g in subgroup_corpus]
        out += [("S4", from_permutations(4, [(1, 2, 3, 0), (1, 0, 2, 3)])),
                ("A4", from_permutations(4, [(1, 2, 0, 3), (0, 2, 3, 1)])),
                ("S3xS3", core.direct_product(families.dihedral(3), families.dihedral(3))),
                ("H27xS3", core.direct_product(families.heisenberg(3), families.dihedral(3))),
                ("H27xH27", core.direct_product(families.heisenberg(3), families.heisenberg(3)))]
        return out

    def test_ncen_matches_quotient_oracle(self, non_regular_corpus, monkeypatch):
        # every non-abelian group passes the hypothesis, so classes fail too
        monkeypatch.setattr(analysis, "is_regular", lambda g: g.order)
        witnesses = Counter()
        for label, g in non_regular_corpus:
            result = checks.check_ncen(g, label)
            assert result == parent_ncen(g, label), label
            witnesses.update(kind for kind, _ in result.witness[1:])
        assert witnesses["normal"] > 0 and witnesses["quotient_histogram"] > 0, witnesses

    def test_lg2_matches_quotient_oracle(self, non_regular_corpus, monkeypatch):
        monkeypatch.setattr(analysis, "is_induced_regular", lambda g: g.order)
        verdicts = Counter()
        for label, g in non_regular_corpus:
            result = checks.check_lg2(g, label)
            assert result == parent_lg2(g, label), label
            verdicts[result.applicable, result.passed] += 1
        assert verdicts[True, False] > 0 and verdicts[True, True] > 0, verdicts

    @pytest.mark.parametrize("forced", [None, 1])
    def test_ereg1_matches_per_class_loop(self, non_regular_corpus, monkeypatch, forced):
        # forcing the regularity verdict makes the check fail on one side,
        # so the witness with first_non_coset_class is compared too
        monkeypatch.setattr(analysis, "is_regular", lambda g: forced)
        outcomes = Counter()
        for label, g in non_regular_corpus:
            result = checks.check_ereg1(g, label)
            assert result == parent_ereg1(g, label), label
            outcomes[result.passed, dict(result.witness).get("first_non_coset_class")] += 1
        assert {passed for passed, _ in outcomes} == {True, False}, outcomes
        if forced:  # non-regular groups fail, at several first non-coset classes
            assert len(outcomes) > 3, outcomes

    def test_centralizer_indices_match_subgroup_sizes(self, subgroup_corpus):
        for label, g in subgroup_corpus:
            classes = analysis.beta_partition(g)
            expected = sorted({g.order // g.centralizer(classes[cid][0]).size
                               for cid in range(1, len(classes))})
            assert checks._centralizer_indices(g) == expected, label


# --- element orders, report text and the big/big1 split confirmation ---------------

class TestElementOrders:
    def test_gathers_match_power_walk(self, subgroup_corpus):
        corpus = subgroup_corpus + [("C1024", families.cyclic(1024))]
        for label, g in corpus:
            orders = g.element_orders()
            assert orders.dtype == np.int32 and not orders.flags.writeable, label
            assert np.array_equal(orders, slow_element_orders(g)), label

    def test_orders_modulo_match_quotient_orders(self, small_corpus):
        for label, g in small_corpus:
            for n in core.all_subgroups(g):
                if g.is_normal(n):
                    expected = g.quotient(n).element_orders()[n.coset_index()]
                    assert np.array_equal(g.orders_modulo(n.mask), expected), (label, n.members)

    def test_center_coset_reads_match_quotient_group(self, order8_entries, order16_entries,
                                                     order32_entries, order64_entries):
        # the acceptance-5 corpus; the checks read G/Z(G) only on non-abelian G
        entries = [*order8_entries, *order16_entries, *order32_entries, *order64_entries]
        corpus = [(e.label, e.group()) for e in entries]
        corpus += _with_cyclic_products(_family_instances())
        abelian_reads = Counter()
        for label, g in corpus:
            if g.is_abelian:
                continue
            q = g.quotient(g.center())
            assert np.array_equal(g.center_coset_orders(), slow_coset_orders(g)), label
            assert q.order == checks._index(g), label
            pk = core.is_prime_power(checks._index(g))
            assert q.is_p_group() == (pk[0] if pk else None), label
            p = checks._quotient_exponent(g)
            assert is_elementary_p(q) == p, label
            assert q.order_histogram() == checks._center_histogram(g), label
            if p is not None and (p == 2 or q.order == p * p):
                assert q.is_abelian and is_elementary_p(q) == p, label
                abelian_reads[p, q.order == p * p] += 1
        assert abelian_reads[2, False] and abelian_reads[2, True], abelian_reads
        assert any(p > 2 for p, _ in abelian_reads), abelian_reads


class TestReportText:
    def test_multiset_runs_match_scan(self, subgroup_corpus):
        rng = np.random.default_rng(5)
        samples = [(), (3,), (2, 2), tuple(rng.integers(0, 6, size=40).tolist())]
        for label, g in subgroup_corpus:
            report = analysis.build_report(g, label)
            samples += [report.degree_sequence, report.class_sizes]
        for values in samples:
            assert analysis._compress_multiset(values) == slow_compress_multiset(values)


def product_subgroups(g, h_seeds, a_seeds):
    """H = <h_seeds> and A = <a_seeds> in g with direct_product(H, A)."""
    h, a = g.generated_subgroup(h_seeds), g.generated_subgroup(a_seeds)
    return h, a, core.direct_product(h.as_group(), a.as_group())


def p_part_subgroups(g, p):
    """H, the p-elements, and A, the central p'-elements, as subgroups of g
    built from their masks."""
    central_prime = (g.beta_class_ids() == 0) & (g.element_orders() % p != 0)
    return (g.subgroup(np.flatnonzero(g.p_element_mask(p))),
            g.subgroup(np.flatnonzero(central_prime)))


class TestProductMapConfirmation:
    """Wherever check_big or check_big1 passes, _p_part_decomposition has
    proved G = H x A.  For direct_product(H, A) rebuilt from the masks of H
    and A, the product map (oracles.product_map_is_isomorphism) and the
    isomorphism search both confirm it."""

    def test_matches_isomorphism_search_where_big_and_big1_confirm(self, split_corpus):
        corpus = split_corpus + [  # D8xC3 is in small_corpus
            ("D8xC17", core.direct_product(families.dihedral(4), families.cyclic(17))),
            ("H27xC5", core.direct_product(families.heisenberg(3), families.cyclic(5)))]
        reached = Counter()
        for label, g in corpus:
            for cid in ("big", "big1"):
                r = checks.run_check(cid, g, label)
                if not r.applicable:
                    continue
                assert r.passed, (cid, label, r.witness)
                p = r.details.get("p", 2)
                h, a = p_part_subgroups(g, p)
                assert (h.size, a.size) == checks._p_part_decomposition(g, p)[0], (cid, label)
                rebuilt = core.direct_product(h.as_group(), a.as_group())
                assert product_map_is_isomorphism(g, h, a, rebuilt), (cid, label)
                assert core.is_isomorphic(rebuilt, g), (cid, label)
                reached[cid] += 1
        assert reached["big"] > 60 and reached["big1"] > 60, reached

    def test_bijective_but_not_multiplicative(self):
        s3 = families.dihedral(3)
        orders = s3.element_orders()
        rotation, reflection = int(np.argmax(orders == 3)), int(np.argmax(orders == 2))
        h, a, rebuilt = product_subgroups(s3, [reflection], [rotation])
        phi = s3.table[np.ix_(h.members, a.members)].ravel()
        assert sorted(phi.tolist()) == list(range(6))
        assert not product_map_is_isomorphism(s3, h, a, rebuilt)
        assert not core.is_isomorphic(rebuilt, s3)

    def test_not_bijective(self):
        c4 = families.cyclic(4)
        h, a, rebuilt = product_subgroups(c4, [2], [2])
        assert rebuilt.order == c4.order
        assert not product_map_is_isomorphism(c4, h, a, rebuilt)
        assert not core.is_isomorphic(rebuilt, c4)


# --- reduced regularity by purity, on G itself --------------------------------

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


def parent_pure_cyclic(ab, x, m):
    """For each x[i] of the abelian 2-group ab: True iff x[i] has order
    m[i] > 1 and <x[i]> is a pure subgroup of ab.

    <x> of order 2^k is pure exactly when 2^(k-1)x has height k - 1, that is,
    lies outside 2^k ab.  Each pass doubles every element (2^j ab is the image
    of j squaring gathers of arange) and every x together, and tests the x
    whose doubling first reaches the identity; 0 lies in every 2^j ab, so
    the identity and already-finished x never pass.
    """
    t = ab.table
    pure = np.zeros(len(x), dtype=bool)
    mult, x_pow = np.arange(ab.order), np.asarray(x)
    for _ in range(ab.order.bit_length()):  # 2^k <= |ab| bounds every k
        mult, doubled = t[mult, mult], t[x_pow, x_pow]
        pure |= (doubled == 0) & ~np.isin(x_pow, mult)
        x_pow = doubled
    return pure & (ab.element_orders()[x] == m)


def parent_central_splits(g, z):
    """parent_pure_cyclic on the images of the central z in G/G', built as a
    quotient group, each at the order of z in G."""
    comm_sub = g.commutator_subgroup()
    ab = g.quotient(comm_sub)
    return parent_pure_cyclic(ab, comm_sub.coset_index()[z], g.element_orders()[z])


def pure_cyclic(a, xs):
    """_pure_cyclic on elements of the abelian 2-group a."""
    return analysis._pure_cyclic(a, np.array(xs, dtype=np.int64)).tolist()


class TestPurity:
    def test_central_splits_match_homomorphism_search(self, regular_2groups):
        rng = np.random.default_rng(16)
        order_only = 0
        for label, g in regular_2groups:
            for h in (g, from_table(relabeled(g, rng))):
                z = np.asarray(h.center().members[1:])
                fast = analysis._pure_cyclic(h, z).tolist()
                assert fast == parent_central_splits(h, z).tolist(), label
                slow = [slow_central_cyclic_splits(h, int(x)) for x in z]
                assert fast == slow, label
                assert analysis.is_reduced_regular(h) == (not any(slow)), label
                comm_sub = h.commutator_subgroup()
                zbar_orders = h.quotient(comm_sub).element_orders()[comm_sub.coset_index()[z]]
                order_only += int(((zbar_orders == h.element_orders()[z]) & ~np.array(slow)).sum())
        assert len(regular_2groups) == 75
        assert order_only > 2 * 100  # the height test decides these, in both copies

    def test_z8_x_z2(self):
        a = core.direct_product(families.cyclic(8), families.cyclic(2))

        def elt(i, j):  # (i, j) in Z/8 x Z/2
            return 2 * i + j

        assert a.table[elt(2, 1), elt(2, 1)] == elt(4, 0)
        # (2,1) has order 4 and height 0, but 2*(2,1) = (4,0) = 4*(1,0)
        xs = [elt(2, 1), elt(1, 0), elt(0, 1), elt(2, 0), elt(4, 0), elt(1, 1)]
        assert pure_cyclic(a, xs) == [False, True, True, False, False, True]
        assert pure_cyclic(a, xs) == parent_central_splits(a, np.array(xs)).tolist()
        assert pure_cyclic(a, [0]) == [False]

    def test_elementary_abelian_all_pure(self):
        for rank in (1, 2, 3, 4):
            e = families.elementary_abelian(2, rank)
            assert all(pure_cyclic(e, range(1, e.order)))


def test_table1_search_builds_no_quotient(monkeypatch, order8_entries, order16_entries,
                                         order32_entries, order64_entries):
    def refuse(g, n_sub):
        raise AssertionError("table1_search built a quotient group")

    monkeypatch.setattr(core.FiniteGroup, "quotient", refuse)
    entries = [*order8_entries, *order16_entries, *order32_entries, *order64_entries]
    assert catalog.table1_search(entries) == [
        (n, sorted(labels, key=catalog.label_sort_key)) for n, labels in TABLE1_ROWS.items()]


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


# non-isomorphic catalog pairs whose fingerprints and element-key multisets
# agree, so only the generator search tells them apart
SCREEN_PASSING_PAIRS = [("[64,78]", "[64,79]"), ("[64,86]", "M16xC4"), ("[64,232]", "[64,233]")]


def is_bijective_homomorphism(f, a, b):
    """f, the images of a's elements in b, is one-to-one and f(xy) = f(x)f(y)
    over a's whole table."""
    return (np.sort(f) == np.arange(b.order)).all() and (f[a.table] == b.table[np.ix_(f, f)]).all()


class TestGeneratorMaps:
    """core.generator_maps, the one search behind is_isomorphic and the
    catalog tool's automorphisms, against the parent's per-element search
    (oracles.parent_is_isomorphic) and the definition of a homomorphism."""

    def test_verdicts_match_parent_is_isomorphic(self, shipped_groups, iso_corpus):
        group, copy_of = dict(shipped_groups), {label: h for label, _, h in iso_corpus}
        for x, y in SCREEN_PASSING_PAIRS:
            assert core.fingerprint(group[x]) == core.fingerprint(group[y]), (x, y)
        copies = [(g, h) for _, g, h in iso_corpus]
        distinct = [(a, b) for i, (_, a) in enumerate(shipped_groups)
                    for _, b in shipped_groups[i + 1:] if a.order == b.order]
        screened = [(copy_of[x], group[y]) for x, y in SCREEN_PASSING_PAIRS]
        pairs = copies + distinct + screened
        verdicts = [core.is_isomorphic(a, b) for a, b in pairs]
        assert verdicts == [parent_is_isomorphic(a, b) for a, b in pairs]
        assert verdicts == [True] * len(copies) + [False] * (len(distinct) + len(screened))

    def test_maps_are_bijective_homomorphisms(self, iso_corpus):
        # is_isomorphic's generators and candidates: rarest element key first,
        # each sent to the elements of h with its key
        for label, g, h in iso_corpus:
            kinds = np.unique(np.vstack([g.element_keys(), h.element_keys()]), axis=0,
                              return_inverse=True)[1].ravel()
            gens = core.greedy_generators(g.table, rarity_rank(g))
            cands = [np.flatnonzero(kinds[g.order:] == kinds[s]) for s in gens]
            maps = list(itertools.islice(core.generator_maps(g, h, gens, cands), 20))
            assert maps, label
            assert all(is_bijective_homomorphism(f, g, h) for f in maps), label

    def test_injective_maps_in_candidate_order(self):
        c2, c4 = families.cyclic(2), families.cyclic(4)
        assert [f.tolist() for f in core.generator_maps(c2, c4, [1], [range(4)])] == [[0, 2]]
        assert [f.tolist() for f in core.generator_maps(c4, c4, [1], [[3, 2, 1]])] == \
            [[0, 3, 2, 1], [0, 1, 2, 3]]
        trivial = families.cyclic(1)
        assert [f.tolist() for f in core.generator_maps(trivial, c2, [], [])] == [[0]]


def closure_per_generator_sequence(table, rank=None):
    """_greedy_sequence before it fed the closure each generator's powers:
    the right closure over the generators alone."""
    n = table.shape[0]
    rank = np.arange(n) if rank is None else rank
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    gens = []
    while not reached.all():
        left = np.flatnonzero(~reached)
        gens.append(int(left[np.argmin(rank[left])]))
        yield gens[-1]
        core._right_closure(table, reached, gens)


def rarity_rank(g):
    """The rank is_isomorphic passes to greedy_generators: rarest element key
    first, ties by index."""
    _, kind, count = np.unique(g.element_keys(), axis=0, return_inverse=True, return_counts=True)
    return count[kind.ravel()] * g.order + np.arange(g.order)


class TestGreedySequence:
    def test_powers_change_no_generator(self, iso_corpus):
        rng = np.random.default_rng(41)
        large = [cli.resolve_source(spec)[1] for spec in (
            "cyclic:1024", "heisenberg:7", "M:512", "elem:2:9", "dihedral:64 x cyclic:5")]
        large.append(from_permutations(6, [[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]]))
        large.append(enumerate_presentation(parse("< r, s | r^256, s^2, s*r*s*r >")))
        cases = [(label, x, rank) for label, g, h in iso_corpus for x in (g, h)
                 for rank in (None, rarity_rank(x))]
        cases += [(g.order, g, rank) for g in large for rank in (None, rng.permutation(g.order))]
        for label, g, rank in cases:
            expected = list(closure_per_generator_sequence(g.table, rank))
            assert list(core._greedy_sequence(g.table, rank)) == expected, label


# --- row-joined graph export -----------------------------------------------------

@pytest.fixture(scope="module")
def export_corpus(shipped_groups, small_corpus):
    """Shipped and hand-built groups, a relabeled copy of each (so parts
    interleave indices), S6 and the D512 presentation."""
    rng = np.random.default_rng(29)
    corpus = [*shipped_groups, *small_corpus]
    corpus += [(f"{label} relabeled", from_table(relabeled(g, rng))) for label, g in corpus]
    corpus.append(("S6", from_permutations(6, [[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]])))
    corpus.append(("D512", enumerate_presentation(parse("< r, s | r^256, s^2, s*r*s*r >"))))
    return corpus


@pytest.mark.parametrize("fmt", ["edge-list", "dot"])
class TestRowExport:
    @pytest.mark.parametrize("induced", [False, True])
    def test_matches_pair_loop(self, export_corpus, fmt, induced):
        for label, g in export_corpus:
            built = graph.build_graph(g, induced)
            assert graph.export(built, fmt) == slow_export(built, fmt), label

    def test_edge_cases(self, fmt):
        trivial, abelian = families.cyclic(1), families.cyclic(6)
        cases = {
            "trivial": graph.build_graph(trivial),
            "trivial induced": graph.build_graph(trivial, True),
            "abelian induced, no vertices": graph.build_graph(abelian, True),
            "abelian, one part": graph.build_graph(abelian),
        }
        assert sum(len(p) for p in cases["abelian induced, no vertices"].parts) == 0
        assert len(cases["abelian, one part"].parts) == 1
        for name, built in cases.items():
            out = graph.export(built, fmt)
            assert out == slow_export(built, fmt), name
            assert fmt == "dot" or out == "", name

    def test_partitions_no_group_makes(self, fmt):
        """The per-part suffix arithmetic on hand-made partitions: parts
        whose members interleave, arrive unsorted, or skip vertex 0."""
        rng = random.Random(28)
        labels = tuple(f"x{i}" for i in range(64))

        def make(parts):
            return graph.NonCentralizerGraph(labels, tuple(map(tuple, parts)), False)

        def split(verts, k):
            parts = [[] for _ in range(k)]
            for v in verts:
                parts[rng.randrange(k)].append(v)
            return [p for p in parts if p]

        cases = {
            "empty": make([]),
            "one part": make([range(9)]),
            "all singletons": make([[v] for v in range(9)]),
            "one part holding all but one vertex": make([[0, 1, 2, 4, 5, 6, 7], [3]]),
            "all but the last vertex": make([[8], range(8)]),
            "interleaved members": make([[0, 3, 6], [1, 4, 7], [2, 5, 8]]),
            "vertex 0 absent": make([[1, 4], [2, 3, 9], [7]]),
        }
        for trial in range(40):
            verts = sorted(rng.sample(range(64), rng.randrange(1, 40)))
            parts = split(verts, rng.randrange(1, 12))
            for p in parts[::2]:
                rng.shuffle(p)
            cases[f"random {trial}"] = make(rng.sample(parts, len(parts)))
        for name, built in cases.items():
            assert graph.export(built, fmt) == slow_export(built, fmt), name
