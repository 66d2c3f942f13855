"""Catalog curation tool.

Regenerates the shipped .cat files from first principles:

* every 2-group of order 8, 16, 32 is built by enumerating central extensions
  1 -> C2 -> G -> Q -> 1 over H^2(Q, C2) for each group Q of half the order,
  then deduplicating by `core.is_isomorphic` (counts must come out 5 / 14 / 51);
* the order-64 catalog rows are built from class-2 data: an abelian center Z,
  an exact alternating commutator pairing c on G/Z = C2^k with values in the
  2-torsion of Z, and a squaring map q determined by its basis values mod 2Z,
  one per orbit under GL(k, 2) x Aut(Z).  `automorphisms` lists both groups
  with `core.generator_maps`, the generator-image search of is_isomorphic.

Labels follow the standard small-group numbering, given by one routine,
`assign_labels`.  Structurally forced identifications (abelian types,
maximal-class families, named products) are pinned by explicit reference
constructions; remaining labels within a structure block (the extraspecial
pair, generator rank, regularity degree, quotient shape) are assigned in the
order of the isomorphism invariant `noncent.core.fingerprint`.  The sort is
stable and the invariant does not separate every block: groups with equal
fingerprints, such as [32,27]/[32,28], [32,8]/[32,9]/[32,10], [64,73]-[64,80]
and [64,232]/[64,233], keep the order in which the enumeration found them.

Usage: python tools/gen_catalogs.py
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from noncent import analysis, core, families
from noncent.catalog import label_sort_key
from noncent.core import FiniteGroup, fingerprint, from_table, direct_product, is_isomorphic
from noncent.presentation import enumerate_presentation, parse

OUT_DIR = Path(__file__).resolve().parent.parent / "src" / "noncent" / "data"


def expect(ok: bool, what: str) -> None:
    """Stop regeneration when a check fails; raising keeps the check under
    python -O."""
    if not ok:
        raise RuntimeError(f"check failed: {what}")


# --- GF(2) linear algebra on bitmask vectors --------------------------------

def reduce_vec(v: int, pivots: dict[int, int]) -> int:
    """Fully reduce v against RREF pivot rows.

    Each row holds its own pivot bit and no other pivot bit, so the result is
    v XOR the rows of the pivot bits set in v: only v's set bits are visited.
    """
    out = v
    while v:
        b = v.bit_length() - 1
        if b in pivots:
            out ^= pivots[b]
        v ^= 1 << b
    return out


def rref_insert(pivots: dict[int, int], r: int) -> int:
    """Insert one row into an RREF pivot set; returns its residue (0 if dependent)."""
    cur = reduce_vec(r, pivots)
    if cur:
        hb = cur.bit_length() - 1
        for pb in list(pivots):
            if pivots[pb] >> hb & 1:
                pivots[pb] ^= cur
        pivots[hb] = cur
    return cur


def rref(rows: list[int]) -> dict[int, int]:
    """Reduced row echelon form; returns {pivot_bit: row}."""
    pivots: dict[int, int] = {}
    for r in rows:
        rref_insert(pivots, r)
    return pivots


def nullspace(rows: list[int], nvars: int) -> list[int]:
    """Basis of the solutions of rows . x = 0, one vector per free column."""
    pivots = rref(rows)
    return [(1 << fc) | sum(1 << pb for pb, row in pivots.items() if row >> fc & 1)
            for fc in range(nvars) if fc not in pivots]


# --- central extensions by C2 ------------------------------------------------

def bitmask_rows(m: np.ndarray) -> list[int]:
    """The distinct rows of boolean matrix m as ints, column j as bit j."""
    packed = np.packbits(m, axis=1, bitorder="little")
    keys = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel())
    return [int.from_bytes(key, "little") for key in keys.tolist()]


def cocycle_reps(tq: np.ndarray) -> list[int]:
    """Representatives of H^2(Q, C2) as normalized cocycle bitmasks.

    Bit (a-1)*m + (b-1), m = |Q| - 1, holds f(a, b) for a, b != 1; f is
    normalized, f(1, x) = f(x, 1) = 0.  The cocycles solve
    f(a,b) + f(ab,c) + f(b,c) + f(a,bc) = 0 over all (a,b,c) in (Q minus 1)^3,
    one row per triple, built by table gathers; a term at the identity
    (ab = 1 or bc = 1) lands in a spare column that is dropped.  The
    coboundaries are those of the m point indicators of Q minus 1, built the
    same way.  Only the span of each row set matters: its reduced echelon form
    ({pivot bit: row}) is unique, so neither row order nor repeated rows
    change it, nor the residues and representatives read off it.
    """
    n = tq.shape[0]
    if n == 1:
        return [0]
    m = n - 1
    x = np.arange(1, n)
    var = np.full((n, n), m * m)  # column of f(a, b); the spare one at the identity
    var[1:, 1:] = np.arange(m * m).reshape(m, m)
    a, b, c = x[:, None, None], x[None, :, None], x[None, None, :]
    eqs = np.zeros((m ** 3, m * m + 1), dtype=bool)
    rows = np.arange(m ** 3)
    for col in (var[a, b], var[tq[a, b], c], var[b, c], var[a, tq[b, c]]):
        eqs[rows, np.broadcast_to(col, (m, m, m)).ravel()] ^= True
    z_basis = nullspace(bitmask_rows(eqs[:, :-1]), m * m)

    q0 = x[:, None, None]
    cobounds = (x[None, :, None] == q0) ^ (x[None, None, :] == q0) ^ (tq[1:, 1:] == q0)
    acc = rref(bitmask_rows(cobounds.reshape(m, m * m)))
    reps = [0]
    for v in z_basis:
        r = rref_insert(acc, v)
        if r:
            reps += [rep ^ r for rep in reps]
    return reps


def build_extension(tq: np.ndarray, f: int) -> np.ndarray:
    """Order-2n table for the central extension of Q by C2 with cocycle f."""
    n = tq.shape[0]
    m = n - 1
    fmat = np.zeros((n, n), dtype=np.int64)
    fbits = np.frombuffer(f.to_bytes(m * m // 8 + 1, "little"), dtype=np.uint8)
    fmat[1:, 1:] = np.unpackbits(fbits, bitorder="little")[:m * m].reshape(m, m)
    tq2 = np.kron(tq, np.ones((2, 2), dtype=np.int64))
    f2 = np.kron(fmat, np.ones((2, 2), dtype=np.int64))
    u = np.tile(np.array([[0, 1], [1, 0]]), (n, n))
    return 2 * tq2 + (u ^ f2)


# --- the class store: one group per isomorphism class --------------------------

class Store:
    """One group per isomorphism class.  add(g) buckets g by fingerprint and
    confirms with is_isomorphic: it returns False for a group isomorphic to
    one already stored, else stores g and returns True.  So the groups of a
    Store are pairwise non-isomorphic, and a catalog whose every entry it
    accepts has no two isomorphic entries."""

    def __init__(self):
        self.buckets: dict[tuple, list[FiniteGroup]] = {}
        self.classes: list[FiniteGroup] = []

    def add(self, g: FiniteGroup) -> bool:
        fp = fingerprint(g)
        for other in self.buckets.get(fp, ()):
            if is_isomorphic(g, other):
                return False
        self.buckets.setdefault(fp, []).append(g)
        self.classes.append(g)
        return True


def classify_order(parents: list[FiniteGroup]) -> list[FiniteGroup]:
    store = Store()
    for q in parents:
        tq = np.asarray(q.table, dtype=np.int64)
        for f in cocycle_reps(tq):
            table = build_extension(tq, f)
            store.add(from_table(table))
    return store.classes


# --- class-2 groups from (Z, c, q) data --------------------------------------

def abelian_data(factors: tuple[int, ...]) -> tuple[FiniteGroup, list[int], np.ndarray]:
    """Z = prod C_{factors[i]} as a direct product, with its 2-torsion and the
    smallest member of every coset of 2Z.

    Element indices are the mixed-radix numbers of the digit tuples, first
    factor most significant, so np.unravel_index(z, factors) decodes z.
    """
    z = direct_product(*(families.cyclic(f) for f in factors))
    two_torsion = np.flatnonzero(z.element_orders() <= 2).tolist()
    rep_of = z.table[:, np.diag(z.table)].min(axis=1)
    return z, two_torsion, rep_of


def _bits(k: int) -> np.ndarray:
    """bits[v, i] = bit i of the bitmask v, for every v < 2^k."""
    return (np.arange(1 << k)[:, None] >> np.arange(k)) & 1


def pair_phi(k: int, zadd: np.ndarray, cpairs: dict[tuple[int, int], int]) -> np.ndarray:
    """Commutator part of the collection cocycle: phi[v, w] is the sum of
    c[(j, i)] over bits i of v and j of w with i > j, for all v, w at once.

    Every pairing value is 2-torsion, so the commutator form is
    zadd[phi, phi.T]."""
    bits = _bits(k)
    phi = np.zeros((1 << k, 1 << k), dtype=np.int64)
    for (j, i), c in cpairs.items():
        phi = zadd[phi, c * (bits[:, i, None] & bits[None, :, j])]
    return phi


def subset_sums(k: int, zadd: np.ndarray, qvals) -> np.ndarray:
    """s[m] = sum of qvals[i] over the bits i of m, for every m < 2^k."""
    bits = _bits(k)
    s = np.zeros(1 << k, dtype=np.int64)
    for i, q in enumerate(qvals):
        s = zadd[s, q * bits[:, i]]
    return s


def class2_table(zadd: np.ndarray, phi_c: np.ndarray, subset_q: np.ndarray) -> np.ndarray:
    """Table of the class-2 group with center data (Z, c, q).

    Elements are (v, z) with v in F2^k (bitmask, bit i = generator x_i) and
    z in Z; index = v * nz + z.  Multiplication collects commutators
    (phi_c, from the pairing) and squares q[i] on shared bits of v and w
    (subset_q, the sums of the q[i] over each bitmask).
    """
    nv, nz = len(subset_q), len(zadd)
    av = np.repeat(np.arange(nv), nz)
    az = np.tile(np.arange(nz), nv)
    phi = zadd[phi_c, subset_q[np.arange(nv)[:, None] & np.arange(nv)[None, :]]]
    vx = av[:, None] ^ av[None, :]
    zsum = zadd[az[:, None], az[None, :]]
    total = zadd[zsum, phi[av[:, None], av[None, :]]]
    return vx * nz + total


def automorphisms(g: FiniteGroup) -> np.ndarray:
    """Every automorphism of g, one row per map as a permutation of element
    indices: core.generator_maps from g to itself, each greedy generator sent
    to the elements of its own order, ascending."""
    gens = core.greedy_generators(g.table)
    orders = g.element_orders()
    cands = [np.flatnonzero(orders == orders[s]) for s in gens]
    return np.array(list(core.generator_maps(g, g, gens, cands)))


@functools.cache
def gl_matrices(k: int) -> np.ndarray:
    """GL(k, 2) in lexicographic order, one row of column images (bitmasks)
    per matrix: the unit vectors' images under the automorphisms of the XOR
    group of k-bit masks, whose greedy generators are 1, 2, ..., 2^(k-1)."""
    gl = automorphisms(families.elementary_abelian(2, k))[:, 1 << np.arange(k)]
    gl.setflags(write=False)
    return gl


def _gl_generators(k: int) -> list[list[int]]:
    """Generators of GL(k, 2) as column-image lists (e_i -> bitmask): the
    swap of e_1 and e_2, the cycle e_i -> e_(i+1), and e_1 -> e_1 + e_2."""
    ident = [1 << i for i in range(k)]
    return [[2, 1] + ident[2:], ident[1:] + [1], [3] + ident[1:]] if k >= 2 else []


def _pairs(k: int) -> list[tuple[int, int]]:
    """Index pairs (j, i), j < i, of the commutator pairing on C2^k."""
    return [(j, i) for i in range(k) for j in range(i)]


def form_orbit_reps(k: int, zadd: np.ndarray, two_torsion: list[int],
                    val_gens: np.ndarray) -> list[dict]:
    """One commutator pairing per orbit under basis changes of G/Z and the
    given value-side permutations of Z.

    The orbits are walked breadth-first over generators of GL(k, 2).  Mapping
    each new pairing by all of GL(k, 2) at once gives the same list but took
    0.63-0.75 s against 0.47-0.57 s over the 14 (Z, k) cases of a regeneration
    (three rounds, 2-core machine): at k = 4 that is 20160 matrices per
    pairing, where the walk maps each orbit member by three generators.
    """
    pairs = _pairs(k)
    js, is_ = np.array(pairs).T
    gl_gens = np.array(_gl_generators(k))
    seen: set[tuple] = set()
    reps = []
    for combo in itertools.product(two_torsion, repeat=len(pairs)):
        if combo in seen:
            continue
        reps.append(dict(zip(pairs, combo)))
        frontier = [combo]
        seen.add(combo)
        while frontier:
            cur = frontier.pop()
            phi = pair_phi(k, zadd, dict(zip(pairs, cur)))
            images = zadd[phi, phi.T][gl_gens[:, js], gl_gens[:, is_]].tolist()
            images += val_gens[:, list(cur)].tolist()
            for img in map(tuple, images):
                if img not in seen:
                    seen.add(img)
                    frontier.append(img)
    return reps


def class2_groups(factors: tuple[int, ...], k: int) -> list[tuple[FiniteGroup, dict, list]]:
    """All regular class-2 groups with center exactly Z and G/Z = C2^k, up to iso.

    Isomorphism classes are exactly the orbits of the (pairing, squaring)
    data under GL(G/Z) x Aut(Z), with the squaring map read modulo 2Z, so
    deduplication marks whole stabilizer orbits of q instead of running
    group-level isomorphism searches.
    """
    z, two_torsion, rep_of = abelian_data(factors)
    zadd = z.table
    js, is_ = np.array(_pairs(k)).T
    gl = gl_matrices(k)
    auts = automorphisms(z)
    q_reps = np.unique(rep_of).tolist()  # smallest member of each coset of 2Z
    # distinct value-side actions on the 2-torsion drive the form orbits
    val_gens = np.array(list({tuple(s[two_torsion].tolist()): s for s in auts}.values()))

    found = []
    for cpairs in form_orbit_reps(k, zadd, two_torsion, val_gens):
        phi_c = pair_phi(k, zadd, cpairs)
        cm = zadd[phi_c, phi_c.T]
        if not (cm[:, 1:] != 0).any(axis=0).all():
            continue  # center would be bigger than Z
        kernels = cm[:, 1:].T == 0
        if len(np.unique(kernels, axis=0)) != len(kernels):
            continue
        # stabilizer pairs (m, sigma): sigma(c(m e_j, m e_i)) = c(e_j, e_i)
        sa, sg = np.nonzero((auts[:, cm[gl[:, js], gl[:, is_]]]
                             == list(cpairs.values())).all(axis=2))
        stab_auts, stab_gl = auts[sa], gl[sg]
        seen: set[tuple] = set()
        for qvals in itertools.product(q_reps, repeat=k):
            if qvals in seen:
                continue
            subset_q = subset_sums(k, zadd, qvals)
            squares = zadd[subset_q, np.diag(phi_c)]  # Z-part of each monomial's square
            images = rep_of[np.take_along_axis(stab_auts, squares[stab_gl], axis=1)]
            seen.update(map(tuple, images.tolist()))
            g = from_table(class2_table(zadd, phi_c, subset_q))
            expect(g.center().size == z.order, f"{factors}, k={k}: center larger than Z")
            expect(analysis.is_regular(g) is not None, f"{factors}, k={k}: not regular")
            found.append((g, dict(cpairs), list(qvals)))
    return found


# --- structure identification -------------------------------------------------

def pres(text: str) -> FiniteGroup:
    return enumerate_presentation(parse(text))


def semidihedral(order: int) -> FiniteGroup:
    m = order // 2
    return pres(f"< a,b | a^{m}, b^2, b*a*b = a^{m // 2 - 1} >")


def min_generators(g: FiniteGroup) -> int:
    """Rank of a 2-group: log2 of [G : Phi(G)] (Burnside basis theorem)."""
    return (g.order // g.frattini().size).bit_length() - 1


def match_label(classes: list[FiniteGroup], ref: FiniteGroup) -> int:
    """Index of the one class isomorphic to ref."""
    hits = [i for i, g in enumerate(classes) if is_isomorphic(g, ref)]
    expect(len(hits) == 1, f"a reference matches one class, not {len(hits)}")
    return hits[0]


def assign_labels(classes: list[FiniteGroup], order: int, refs: dict[str, FiniteGroup],
                  blocks=()) -> dict[str, FiniteGroup]:
    """Name every class [order,id]; returns {label: class} in id order.

    Each reference pins the one class isomorphic to it.  Then each block
    (ids, pick) takes the remaining classes that pick accepts, exactly
    len(ids) of them, in fingerprint order with ties in enumeration order
    (see the module docstring).  Every class must end with exactly one label.
    """
    taken = {label: match_label(classes, ref) for label, ref in refs.items()}
    expect(len(set(taken.values())) == len(taken), "each reference pins its own class")
    for ids, pick in blocks:
        free = [i for i in range(len(classes)) if i not in taken.values() and pick(classes[i])]
        expect(len(free) == len(ids), f"block {ids} takes {len(ids)} classes, not {len(free)}")
        for gid, i in zip(ids, sorted(free, key=lambda i: fingerprint(classes[i]))):
            expect(f"[{order},{gid}]" not in taken, f"[{order},{gid}] is given once")
            taken[f"[{order},{gid}]"] = i
    left = [i for i in range(len(classes)) if i not in taken.values()]
    expect(not left, f"every class has a label; classes {left} have none")
    return {label: classes[taken[label]] for label in sorted(taken, key=label_sort_key)}


# --- presentations, reference constructions and id blocks ----------------------

PRES8 = {
    "[8,1]": "< a | a^8 >",
    "[8,2]": "< a,b | a^4, b^2, a*b = b*a >",
    "[8,3]": "< a,b | a^4, b^2, b*a*b = a^-1 >",
    "[8,4]": "< a,b | a^4, a^2 = b^2, b*a*b^-1 = a^-1 >",
    "[8,5]": "< a,b,c | a^2, b^2, c^2, a*b = b*a, a*c = c*a, b*c = c*b >",
}

PRES16 = {
    "[16,1]": "< a | a^16 >",
    "[16,2]": "< a,b | a^4, b^4, a*b = b*a >",
    "[16,3]": "< a,b,c | a^4, b^2, c^2, a*b = b*a, c*a*c = a*b, c*b*c = b >",
    "[16,4]": "< a,b | a^4, b^4, b*a*b^-1 = a^-1 >",
    "[16,5]": "< a,b | a^8, b^2, a*b = b*a >",
    "[16,6]": "< a,b | a^8, b^2, b*a*b = a^5 >",
    "[16,7]": "< a,b | a^8, b^2, b*a*b = a^-1 >",
    "[16,8]": "< a,b | a^8, b^2, b*a*b = a^3 >",
    "[16,9]": "< a,b | a^8, a^4 = b^2, b*a*b^-1 = a^-1 >",
    "[16,10]": "< a,b,c | a^4, b^2, c^2, a*b = b*a, a*c = c*a, b*c = c*b >",
    "[16,11]": "< a,b,c | a^4, b^2, b*a*b = a^-1, c^2, a*c = c*a, b*c = c*b >",
    "[16,12]": "< a,b,c | a^4, a^2 = b^2, b*a*b^-1 = a^-1, c^2, a*c = c*a, b*c = c*b >",
    "[16,13]": "< a,b,c | a^4, b^2, b*a*b = a^-1, c^2 = a^2, a*c = c*a, b*c = c*b >",
    "[16,14]": "< a,b,c,d | a^2, b^2, c^2, d^2, a*b = b*a, a*c = c*a, a*d = d*a, "
               "b*c = c*b, b*d = d*b, c*d = d*c >",
}

# Presentations for the order-32 entries that have classical descriptions;
# everything else ships as a regular permutation representation.
PRES32 = {
    "[32,1]": "< a | a^32 >",
    "[32,2]": "< a,b | a^4, b^4, (a^-1*b^-1*a*b)^2, a^-1*b^-1*a*b*a = a*(a^-1*b^-1*a*b), "
              "a^-1*b^-1*a*b*b = b*(a^-1*b^-1*a*b) >",
    "[32,3]": "< a,b | a^8, b^4, a*b = b*a >",
    "[32,4]": "< a,b | a^8, b^4, b*a*b^-1 = a^5 >",
    "[32,5]": "< a,c | a^2, c^8, (c*a*c^-1)*a = a*(c*a*c^-1), c^2*a = a*c^2 >",
    "[32,12]": "< a,b | a^4, b^8, b*a*b^-1 = a^-1 >",
    "[32,16]": "< a,b | a^16, b^2, a*b = b*a >",
    "[32,17]": "< a,b | a^16, b^2, b*a*b = a^9 >",
    "[32,18]": "< a,b | a^16, b^2, b*a*b = a^-1 >",
    "[32,19]": "< a,b | a^16, b^2, b*a*b = a^7 >",
    "[32,20]": "< a,b | a^16, a^8 = b^2, b*a*b^-1 = a^-1 >",
    "[32,21]": "< a,b,c | a^4, b^4, c^2, a*b = b*a, a*c = c*a, b*c = c*b >",
    "[32,22]": "< a,b,c,d | a^4, b^2, c^2, d^2, a*b = b*a, c*a*c = a*b, c*b*c = b, "
               "a*d = d*a, b*d = d*b, c*d = d*c >",
    "[32,23]": "< a,b,c | a^4, b^4, b*a*b^-1 = a^-1, c^2, a*c = c*a, b*c = c*b >",
    "[32,25]": "< a,b,c | a^4, b^2, b*a*b = a^-1, c^4, a*c = c*a, b*c = c*b >",
    "[32,26]": "< a,b,c | a^4, a^2 = b^2, b*a*b^-1 = a^-1, c^4, a*c = c*a, b*c = c*b >",
    "[32,34]": "< a,b,c | a^4, b^4, a*b = b*a, c^2, c*a*c = a^-1, c*b*c = b^-1 >",
    "[32,36]": "< a,b,c | a^8, b^2, c^2, a*b = b*a, a*c = c*a, b*c = c*b >",
    "[32,37]": "< a,b,c | a^8, b^2, b*a*b = a^5, c^2, a*c = c*a, b*c = c*b >",
    "[32,38]": "< a,b,c | a^4, b^2, b*a*b = a^-1, c^8, c^4 = a^2, a*c = c*a, b*c = c*b >",
    "[32,39]": "< a,b,c | a^8, b^2, b*a*b = a^-1, c^2, a*c = c*a, b*c = c*b >",
    "[32,40]": "< a,b,c | a^8, b^2, b*a*b = a^3, c^2, a*c = c*a, b*c = c*b >",
    "[32,41]": "< a,b,c | a^8, a^4 = b^2, b*a*b^-1 = a^-1, c^2, a*c = c*a, b*c = c*b >",
    "[32,45]": "< a,b,c,d | a^4, b^2, c^2, d^2, a*b = b*a, a*c = c*a, a*d = d*a, "
               "b*c = c*b, b*d = d*b, c*d = d*c >",
    "[32,46]": "< a,b,c,d | a^4, b^2, b*a*b = a^-1, c^2, d^2, a*c = c*a, b*c = c*b, "
               "a*d = d*a, b*d = d*b, c*d = d*c >",
    "[32,47]": "< a,b,c,d | a^4, a^2 = b^2, b*a*b^-1 = a^-1, c^2, d^2, a*c = c*a, "
               "b*c = c*b, a*d = d*a, b*d = d*b, c*d = d*c >",
    "[32,48]": "< a,b,c,d | a^4, b^2, b*a*b = a^-1, c^2 = a^2, a*c = c*a, b*c = c*b, "
               "d^2, a*d = d*a, b*d = d*b, c*d = d*c >",
    "[32,51]": "< a,b,c,d,e | a^2, b^2, c^2, d^2, e^2, a*b = b*a, a*c = c*a, a*d = d*a, "
               "a*e = e*a, b*c = c*b, b*d = d*b, b*e = e*b, c*d = d*c, c*e = e*c, d*e = e*d >",
}


def build_references():
    """Reference groups that pin labels at orders 8, 16 and 32.

    Order 32 pins the structurally forced labels: abelians, maximal-class
    trio, modular group, direct/central products of order-16 groups.  The two-generator reduced block {2,4,5,12} and the products at
    22/23/25/26/37/39/40/41 follow the standard numbering as published.
    """
    c2 = families.cyclic(2)
    c4 = families.cyclic(4)
    refs8 = {
        "[8,1]": families.cyclic(8),
        "[8,2]": direct_product(c4, c2),
        "[8,3]": families.dihedral(4),
        "[8,4]": families.generalized_quaternion(8),
        "[8,5]": families.elementary_abelian(2, 3),
    }
    refs16 = {
        "[16,1]": families.cyclic(16),
        "[16,2]": direct_product(c4, c4),
        "[16,3]": pres(PRES16["[16,3]"]),
        "[16,4]": pres(PRES16["[16,4]"]),
        "[16,5]": direct_product(families.cyclic(8), c2),
        "[16,6]": families.modular_M(16),
        "[16,7]": families.dihedral(8),
        "[16,8]": semidihedral(16),
        "[16,9]": families.generalized_quaternion(16),
        "[16,10]": direct_product(c4, c2, c2),
        "[16,11]": direct_product(families.dihedral(4), c2),
        "[16,12]": direct_product(families.generalized_quaternion(8), c2),
        "[16,13]": pres(PRES16["[16,13]"]),  # central product D8 o C4 (= Q8 o C4)
        "[16,14]": families.elementary_abelian(2, 4),
    }
    refs32 = {
        "[32,1]": families.cyclic(32),
        "[32,2]": pres(PRES32["[32,2]"]),
        "[32,3]": direct_product(families.cyclic(8), c4),
        "[32,4]": pres(PRES32["[32,4]"]),
        "[32,5]": pres(PRES32["[32,5]"]),
        "[32,12]": pres(PRES32["[32,12]"]),
        "[32,16]": direct_product(families.cyclic(16), c2),
        "[32,17]": families.modular_M(32),
        "[32,18]": families.dihedral(16),
        "[32,19]": semidihedral(32),
        "[32,20]": families.generalized_quaternion(32),
        "[32,21]": direct_product(c4, c4, c2),
        "[32,22]": direct_product(refs16["[16,3]"], c2),
        "[32,23]": direct_product(refs16["[16,4]"], c2),
        "[32,25]": direct_product(families.dihedral(4), c4),
        "[32,26]": direct_product(families.generalized_quaternion(8), c4),
        "[32,34]": pres(PRES32["[32,34]"]),
        "[32,36]": direct_product(families.cyclic(8), c2, c2),
        "[32,37]": direct_product(families.modular_M(16), c2),
        "[32,38]": pres(PRES32["[32,38]"]),
        "[32,39]": direct_product(families.dihedral(8), c2),
        "[32,40]": direct_product(semidihedral(16), c2),
        "[32,41]": direct_product(families.generalized_quaternion(16), c2),
        "[32,45]": direct_product(c4, c2, c2, c2),
        "[32,46]": direct_product(families.dihedral(4), c2, c2),
        "[32,47]": direct_product(families.generalized_quaternion(8), c2, c2),
        "[32,48]": direct_product(refs16["[16,13]"], c2),
        "[32,51]": families.elementary_abelian(2, 5),
    }
    return refs8, refs16, refs32


# Order-32 ids that no reference pins.  Fingerprint order puts the minus-type
# extraspecial group (11 involutions) before the plus type (19).
BLOCKS32 = [
    ([50, 49], lambda g: g.center().size == 2 and min_generators(g) == 4),
    ([24], lambda g: (analysis.is_reduced_regular(g) and analysis.is_regular(g) == 24
                      and min_generators(g) == 3)),
    # G/Z = C2^3; exponent 2 makes G/Z abelian
    ([27, 28, 29, 30, 31, 32, 33, 35],
     lambda g: g.order // g.center().size == 8 and g.center_coset_orders().max() == 2),
    ([6, 7, 8, 9, 10, 11, 13, 14, 15], lambda g: min_generators(g) == 2),
    ([42, 43, 44], lambda g: min_generators(g) == 3),
]


def degree_and_rank(degree: int, rank: int):
    return lambda g: analysis.is_regular(g) == degree and min_generators(g) == rank


# Order-64 Table-1 ids by (regularity degree, generator rank); [64,51] is
# M(64), pinned by reference.
BLOCKS64 = [
    ([3, 17, 27, 29, 44], degree_and_rank(48, 2)),
    ([57, 86, 112, 185], degree_and_rank(48, 3)),
    ([73, 74, 75, 76, 77, 78, 79, 80, 81, 82], degree_and_rank(56, 3)),
    ([199, 200, 201, 226, 227, 228, 229, 230, 231, 232, 233, 234,
      235, 236, 237, 238, 239, 240, 249], degree_and_rank(60, 4)),
    ([266], degree_and_rank(60, 5)),
]


# --- order-64 rows -------------------------------------------------------------

Z_TYPES = {
    16: [(16,), (8, 2), (4, 4), (4, 2, 2), (2, 2, 2, 2)],
    8: [(8,), (4, 2), (2, 2, 2)],
    4: [(4,), (2, 2)],
}


def order64_rows() -> dict[FiniteGroup, str]:
    """Reduced regular order-64 groups of degree 48, 56 and 60, each with the
    presentation read from its class-2 data."""
    rows: dict[FiniteGroup, str] = {}
    for zsize, k, degree in ((16, 2, 48), (8, 3, 56), (4, 4, 60)):
        store = Store()
        for factors in Z_TYPES[zsize]:
            for g, cpairs, qvals in class2_groups(factors, k):
                if store.add(g):
                    expect(analysis.is_regular(g) == degree, f"{factors}: not {degree}-regular")
                    if analysis.is_reduced_regular(g):
                        rows[g] = class2_presentation(factors, k, cpairs, qvals)
    return rows


# --- catalog emission ----------------------------------------------------------

def perm_entry(label: str, g: FiniteGroup) -> str:
    gens = g.table[core.greedy_generators(g.table)].tolist()
    return "\n".join([f"name: {label}", "kind: perm", f"order: {g.order}",
                      f"degree: {g.order}", *(f"gen: {' '.join(map(str, row))}" for row in gens)])


def pres_entry(label: str, g_order: int, text: str, comment: str = "") -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines += [f"name: {label}", "kind: presentation", f"order: {g_order}",
              f"pres: {text}"]
    return "\n".join(lines)


def class2_presentation(factors: tuple[int, ...], k: int,
                        cpairs: dict, qvals: list[int]) -> str:
    """Presentation of the class-2 group from its (Z, c, q) data."""
    znames = [f"z{i+1}" for i in range(len(factors))]
    xnames = [f"x{i+1}" for i in range(k)]

    def zword(idx: int) -> str:
        parts = [f"{nm}^{e}" if e > 1 else nm
                 for nm, e in zip(znames, np.unravel_index(idx, factors)) if e]
        return "*".join(parts) if parts else "1"

    rels = [f"{nm}^{o}" for nm, o in zip(znames, factors)]
    rels += [f"{a}*{b} = {b}*{a}" for a, b in itertools.combinations(znames, 2)]
    rels += [f"{xn}*{zn} = {zn}*{xn}" for xn in xnames for zn in znames]
    rels += [f"{xn}^2 = {zword(q)}" for xn, q in zip(xnames, qvals)]
    for j in range(k):
        for i in range(j + 1, k):
            # x_i x_j = x_j x_i [x_i, x_j] with [x_i, x_j] = c[(j, i)]
            com = zword(cpairs[(j, i)])
            rhs = f"{xnames[j]}*{xnames[i]}"
            if com != "1":
                rhs += f"*{com}"
            rels.append(f"{xnames[i]}*{xnames[j]} = {rhs}")
    return f"< {', '.join(znames + xnames)} | {', '.join(rels)} >"


CONTROLS64 = [
    ("D8xC8", "< a,b,c | a^4, b^2, b*a*b = a^-1, c^8, a*c = c*a, b*c = c*b >",
     "regular control: direct product of a regular group and C8; not reduced"),
    ("M16xC4", "< a,b,c | a^8, b^2, b*a*b = a^5, c^4, a*c = c*a, b*c = c*b >",
     "regular control: M(16) x C4; not reduced"),
    ("M32xC2", "< a,b,c | a^16, b^2, b*a*b = a^9, c^2, a*c = c*a, b*c = c*b >",
     "regular control: M(32) x C2; not reduced"),
    ("Q8xC2xC2xC2", "< a,b,c,d,e | a^4, a^2 = b^2, b*a*b^-1 = a^-1, c^2, d^2, e^2, "
     "a*c = c*a, b*c = c*b, a*d = d*a, b*d = d*b, c*d = d*c, "
     "a*e = e*a, b*e = e*b, c*e = e*c, d*e = e*d >",
     "regular control: Q8 x C2^3; not reduced"),
    ("ES32+xC2", "< a,b,c,d,e | a^4, b^2, b*a*b = a^-1, c^4, d^2, d*c*d = c^-1, "
     "a^2 = c^2, a*c = c*a, a*d = d*a, b*c = c*b, b*d = d*b, "
     "e^2, a*e = e*a, b*e = e*b, c*e = e*c, d*e = e*d >",
     "regular control: extraspecial(32,+) x C2; 60-regular, not reduced"),
]


def write_catalogs(labels8, labels16, labels32, labels64, pres64):
    """Write the four .cat files, each label in the order given: as its
    presentation where one is known, checked against the class, and otherwise
    as its regular permutation representation."""

    def write(fname, notes, labels, presmap, extra=()):
        blocks = ["# generated by tools/gen_catalogs.py; do not edit by hand", *notes]
        for label, g in labels.items():
            if label in presmap:
                expect(is_isomorphic(pres(presmap[label]), g),
                       f"{label}: presentation matches its class")
                blocks.append(pres_entry(label, g.order, presmap[label]))
            else:
                blocks.append(perm_entry(label, g))
        (OUT_DIR / fname).write_text("\n\n".join([*blocks, *extra]) + "\n", encoding="utf-8")
        print(f"  wrote {fname}")

    for order, labels, presmap in ((8, labels8, PRES8), (16, labels16, PRES16),
                                   (32, labels32, PRES32)):
        notes = [f"# all {len(labels)} groups of order {order}, one entry per isomorphism class"]
        if order == 32:
            notes.append("# label pairing: abelian types, maximal-class and modular "
                         "groups, extraspecial\n# groups, and named products are "
                         "structurally pinned; remaining ids fill their\n# generator-rank "
                         "blocks in a deterministic invariant order")
        write(f"order{order}.cat", notes, labels, presmap)
    controls = []
    for name, text, comment in CONTROLS64:
        g = pres(text)
        expect(g.order == 64 and analysis.is_reduced_regular(g) is False,
               f"control {name} is a regular non-reduced order-64 group")
        controls.append(pres_entry(name, 64, text, comment))
    write("order64.cat", ["# order-64 groups named in the reduced-regular table rows "
                          "n=48, n=56, n=60,\n# plus five regular-but-not-reduced controls. "
                          "The n=56 row is read as the ten\n# groups [64,73]..[64,82]. "
                          "M(64) is pinned to [64,51]; other ids fill their\n# generator-rank "
                          "blocks in a deterministic invariant order"],
          labels64, pres64, controls)


def main():
    t0 = time.time()
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    c2 = families.cyclic(2)
    order8 = classify_order([families.cyclic(4), direct_product(c2, c2)])
    print(f"order 8: {len(order8)} classes ({time.time() - t0:.1f}s)")
    expect(len(order8) == 5, "5 groups of order 8")
    order16 = classify_order(order8)
    print(f"order 16: {len(order16)} classes ({time.time() - t0:.1f}s)")
    expect(len(order16) == 14, "14 groups of order 16")
    order32 = classify_order(order16)
    print(f"order 32: {len(order32)} classes ({time.time() - t0:.1f}s)")
    expect(len(order32) == 51, "51 groups of order 32")

    refs8, refs16, refs32 = build_references()
    labels8 = assign_labels(order8, 8, refs8)
    labels16 = assign_labels(order16, 16, refs16)
    labels32 = assign_labels(order32, 32, refs32, BLOCKS32)
    for order, labels in ((8, labels8), (16, labels16), (32, labels32)):
        expect(list(labels) == [f"[{order},{i}]" for i in range(1, len(labels) + 1)],
               f"the order-{order} ids are 1..{len(labels)}")
    print(f"labels assigned ({time.time() - t0:.1f}s)")

    # Table 1 sanity before writing anything
    t1 = {}
    for label, g in {**labels8, **labels16, **labels32}.items():
        if analysis.is_reduced_regular(g):
            t1.setdefault(analysis.is_regular(g), []).append(label)
    for deg in sorted(t1):
        print(f"  reduced {deg}-regular: {t1[deg]}")
    expect(t1.get(6) == ["[8,3]", "[8,4]"], "Table 1 row n=6")
    expect(t1.get(12) == ["[16,3]", "[16,4]", "[16,6]", "[16,13]"], "Table 1 row n=12")
    expect(t1.get(24) == [f"[32,{i}]" for i in (2, 4, 5, 12, 17, 24, 38)], "Table 1 row n=24")
    expect(t1.get(30) == ["[32,49]", "[32,50]"], "Table 1 row n=30")

    # cross-validate the class-2 machinery against the cocycle-based
    # classification at order 32 before trusting it for order 64
    reg32 = []
    for factors in ((8,), (4, 2), (2, 2, 2)):
        reg32.extend(g for g, _, _ in class2_groups(factors, 2))
    es32 = [g for g, _, _ in class2_groups((2,), 4)]
    ref24 = [g for g in order32 if analysis.is_regular(g) == 24]
    ref30 = [g for g in order32 if analysis.is_regular(g) == 30]
    expect(len(reg32) == len(ref24) == 15, "15 class-2 24-regular groups of order 32")
    expect(len(es32) == len(ref30) == 2, "2 class-2 30-regular groups of order 32")
    for g in reg32:
        match_label(ref24, g)
    for g in es32:
        match_label(ref30, g)
    print(f"class-2 machinery cross-validated at order 32 ({time.time() - t0:.1f}s)")

    rows = order64_rows()
    degrees = {d: sum(analysis.is_regular(g) == d for g in rows) for d in (48, 56, 60)}
    print(f"order-64 rows: {degrees} ({time.time() - t0:.1f}s)")
    expect(degrees == {48: 10, 56: 10, 60: 20}, "order-64 rows of 10, 10 and 20 groups")
    labels64 = assign_labels(list(rows), 64, {"[64,51]": families.modular_M(64)}, BLOCKS64)
    print(f"order-64 labels assigned ({time.time() - t0:.1f}s)")

    write_catalogs(labels8, labels16, labels32, labels64,
                   {label: rows[g] for label, g in labels64.items()})
    print(f"catalogs written to {OUT_DIR} ({time.time() - t0:.1f}s)")


if __name__ == "__main__":
    main()
