"""Catalog curation tool.

Regenerates the shipped .cat files from first principles:

* every 2-group of order 8, 16, 32 is built by enumerating central extensions
  1 -> C2 -> G -> Q -> 1 over H^2(Q, C2) for each group Q of half the order,
  then deduplicating up to isomorphism (counts must come out 5 / 14 / 51);
* the order-64 catalog rows are built from class-2 data: an abelian center Z,
  an exact alternating commutator pairing c on G/Z = C2^k with values in the
  2-torsion of Z, and a squaring map q determined by its basis values mod 2Z.

Labels follow the standard small-group numbering.  Structurally forced
identifications (abelian types, maximal-class families, extraspecial groups,
named products) are pinned by explicit reference constructions; remaining
labels within a structure block are assigned in the order of the isomorphism
invariant `noncent.core.fingerprint`, which the shipped annotations document.

Usage: python tools/gen_catalogs.py
"""

from __future__ import annotations

import itertools
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from noncent import analysis, core, families
from noncent.core import FiniteGroup, fingerprint, from_table, direct_product, is_isomorphic
from noncent.presentation import enumerate_presentation, parse

OUT_DIR = Path(__file__).resolve().parent.parent / "src" / "noncent" / "data"


# --- GF(2) linear algebra on bitmask vectors --------------------------------

def reduce_vec(v: int, pivots: dict[int, int]) -> int:
    """Fully reduce v against RREF pivot rows (one downward bit scan)."""
    b = v.bit_length() - 1
    while b >= 0:
        if (v >> b) & 1 and b in pivots:
            v ^= pivots[b]
        b -= 1
    return v


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
    pivots = rref(rows)
    free = [c for c in range(nvars) if c not in pivots]
    basis = []
    for fc in free:
        v = 1 << fc
        for pb, row in pivots.items():
            if row >> fc & 1:
                v |= 1 << pb
        basis.append(v)
    return basis


# --- central extensions by C2 ------------------------------------------------

def cocycle_reps(tq: np.ndarray) -> list[int]:
    """Representatives of H^2(Q, C2) as normalized cocycle bitmasks."""
    n = tq.shape[0]
    if n == 1:
        return [0]
    m = n - 1

    def vid(a, b):
        return (a - 1) * m + (b - 1)

    eqs = []
    for a in range(1, n):
        for b in range(1, n):
            ab = int(tq[a, b])
            base = 1 << vid(a, b)
            for c in range(1, n):
                bc = int(tq[b, c])
                mask = base ^ (1 << vid(b, c))
                if ab != 0:
                    mask ^= 1 << vid(ab, c)
                if bc != 0:
                    mask ^= 1 << vid(a, bc)
                if mask:
                    eqs.append(mask)
    z_basis = nullspace(eqs, m * m)

    b_vecs = []
    for q0 in range(1, n):
        mask = 0
        for a in range(1, n):
            for b in range(1, n):
                if ((a == q0) ^ (b == q0) ^ (int(tq[a, b]) == q0)):
                    mask |= 1 << vid(a, b)
        b_vecs.append(mask)
    b_pivots = rref(b_vecs)

    quot: list[int] = []
    acc = dict(b_pivots)
    for v in z_basis:
        r = rref_insert(acc, v)
        if r:
            quot.append(r)

    reps = [0]
    for qv in quot:
        reps = reps + [r ^ qv for r in reps]
    return reps


def build_extension(tq: np.ndarray, f: int) -> np.ndarray:
    """Order-2n table for the central extension of Q by C2 with cocycle f."""
    n = tq.shape[0]
    m = n - 1
    fmat = np.zeros((n, n), dtype=np.int64)
    for a in range(1, n):
        for b in range(1, n):
            fmat[a, b] = (f >> ((a - 1) * m + (b - 1))) & 1
    tq2 = np.kron(tq, np.ones((2, 2), dtype=np.int64))
    f2 = np.kron(fmat, np.ones((2, 2), dtype=np.int64))
    u = np.tile(np.array([[0, 1], [1, 0]]), (n, n))
    return 2 * tq2 + (u ^ f2)


# --- the class store: one group per isomorphism class --------------------------

class Store:
    def __init__(self):
        self.buckets: dict[tuple, list[FiniteGroup]] = {}
        self.classes: list[FiniteGroup] = []
        self.iso_calls = 0

    def add(self, g: FiniteGroup) -> bool:
        fp = fingerprint(g)
        for other in self.buckets.get(fp, ()):
            self.iso_calls += 1
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

def abelian_data(factors: tuple[int, ...]):
    """Tables and torsion structure for Z = prod C_{factors[i]}."""
    nz = int(np.prod(factors))
    radix = []
    acc = 1
    for f in reversed(factors):
        radix.append(acc)
        acc *= f
    radix = list(reversed(radix))  # mixed-radix place values

    def decode(i):
        out = []
        for place, f in zip(radix, factors):
            out.append((i // place) % f)
        return tuple(out)

    def encode(t):
        return sum(v * place for v, place in zip(t, radix))

    add = np.empty((nz, nz), dtype=np.int64)
    for i in range(nz):
        ti = decode(i)
        for j in range(nz):
            tj = decode(j)
            add[i, j] = encode(tuple((a + b) % f for a, b, f in zip(ti, tj, factors)))
    two_torsion = [i for i in range(nz)
                   if all((2 * v) % f == 0 for v, f in zip(decode(i), factors))]
    doubles = sorted({encode(tuple((2 * v) % f for v, f in zip(decode(i), factors)))
                      for i in range(nz)})
    # coset representatives of 2Z in Z
    seen = set()
    q_reps = []
    for i in range(nz):
        if i in seen:
            continue
        q_reps.append(i)
        for d in doubles:
            seen.add(int(add[i, d]))
    return nz, add, two_torsion, q_reps, decode


def pair_phi(k: int, nz: int, zadd: np.ndarray,
             cpairs: dict[tuple[int, int], int]) -> np.ndarray:
    """Commutator part of the collection cocycle: sum of c[(j, i)] over bits
    i of v and j of w with i > j."""
    nv = 1 << k
    phi = np.zeros((nv, nv), dtype=np.int64)
    for v in range(nv):
        for w in range(nv):
            acc = 0
            for i in range(k):
                for j in range(i):
                    if (v >> i & 1) and (w >> j & 1):
                        acc = int(zadd[acc, cpairs[(j, i)]])
            phi[v, w] = acc
    return phi


def class2_table(k: int, nz: int, zadd: np.ndarray, phi_c: np.ndarray,
                 qvals: list[int]) -> np.ndarray:
    """Table of the class-2 group with center data (Z, c, q).

    Elements are (v, z) with v in F2^k (bitmask, bit i = generator x_i) and
    z in Z; index = v * nz + z.  Multiplication collects commutators
    (phi_c, from the pairing) and squares q[i] on shared bits of v and w.
    """
    nv = 1 << k
    subset_q = np.zeros(nv, dtype=np.int64)
    for m in range(1, nv):
        low = m & -m
        i = low.bit_length() - 1
        subset_q[m] = zadd[subset_q[m ^ low], qvals[i]]
    av = np.repeat(np.arange(nv), nz)
    az = np.tile(np.arange(nz), nv)
    phi = zadd[phi_c, subset_q[np.arange(nv)[:, None] & np.arange(nv)[None, :]]]
    vx = av[:, None] ^ av[None, :]
    zsum = zadd[az[:, None], az[None, :]]
    total = zadd[zsum, phi[av[:, None], av[None, :]]]
    return vx * nz + total


def comm_map(k: int, nz: int, zadd: np.ndarray, cpairs) -> np.ndarray:
    nv = 1 << k
    cm = np.zeros((nv, nv), dtype=np.int64)
    for v in range(nv):
        for w in range(nv):
            acc = 0
            for i in range(k):
                for j in range(i):
                    if ((v >> i & 1) and (w >> j & 1)) ^ ((w >> i & 1) and (v >> j & 1)):
                        acc = int(zadd[acc, cpairs[(j, i)]])
            cm[v, w] = acc
    return cm


def eval_form(cpairs: dict, zadd: np.ndarray, k: int, u: int, w: int) -> int:
    """Bilinear expansion of the pairing at bitmask vectors u, w."""
    acc = 0
    for i in range(k):
        for j in range(i):
            if ((u >> i & 1) and (w >> j & 1)) ^ ((u >> j & 1) and (w >> i & 1)):
                acc = int(zadd[acc, cpairs[(j, i)]])
    return acc


def eval_square(cpairs: dict, qvals, zadd: np.ndarray, k: int, m: int) -> int:
    """Z-part of the square of the normal-form monomial with support m."""
    acc = 0
    for i in range(k):
        if not (m >> i & 1):
            continue
        acc = int(zadd[acc, qvals[i]])
        for j in range(i):
            if m >> j & 1:
                acc = int(zadd[acc, cpairs[(j, i)]])
    return acc


def gl_matrices(k: int) -> list[list[int]]:
    """All of GL(k, 2) as column-image lists, closed under the generators."""
    ident = [1 << i for i in range(k)]

    def mul(m, n):  # (m*n)(e_i) = m(n(e_i))
        return [_apply(m, col) for col in n]

    seen = {tuple(ident)}
    queue = [ident]
    out = [ident]
    gens = _gl_generators(k)
    while queue:
        cur = queue.pop()
        for gmat in gens:
            nxt = mul(cur, gmat)
            key = tuple(nxt)
            if key not in seen:
                seen.add(key)
                out.append(nxt)
                queue.append(nxt)
    return out


def _apply(m: list[int], v: int) -> int:
    out = 0
    for i in range(len(m)):
        if v >> i & 1:
            out ^= m[i]
    return out


def abelian_automorphisms(factors: tuple[int, ...]) -> list[np.ndarray]:
    """Every automorphism of Z = prod C_{factors[i]} as a permutation of
    element indices."""
    nz, zadd, _, _, decode = abelian_data(factors)
    orders = np.empty(nz, dtype=np.int64)
    for z in range(nz):
        o, acc = 1, z
        while acc != 0:
            acc = int(zadd[acc, z])
            o += 1
        orders[z] = o

    def power(z, e):
        acc = 0
        for _ in range(e):
            acc = int(zadd[acc, z])
        return acc

    basis = []
    place = nz
    for f in factors:
        place //= f
        basis.append(place)  # element with a single unit digit

    candidates = [[z for z in range(nz) if orders[z] == f] for f in factors]
    out = []
    for images in itertools.product(*candidates):
        # the image map z = sum(d_i * basis_i) -> sum(d_i * images_i)
        perm = np.zeros(nz, dtype=np.int64)
        ok = True
        for z in range(nz):
            digits = decode(z)
            acc = 0
            for d, img in zip(digits, images):
                acc = int(zadd[acc, power(img, d)])
            perm[z] = acc
        if len(set(int(x) for x in perm)) == nz:
            out.append(perm)
    return out


def _gl_generators(k: int) -> list[list[int]]:
    """Generators of GL(k, 2) as column-image lists (e_i -> bitmask)."""
    ident = [1 << i for i in range(k)]
    gens = []
    if k >= 2:
        swap = list(ident)
        swap[0], swap[1] = swap[1], swap[0]
        gens.append(swap)
        cyc = [1 << ((i + 1) % k) for i in range(k)]
        gens.append(cyc)
        trans = list(ident)
        trans[0] = (1 << 0) | (1 << 1)
        gens.append(trans)
    return gens


def form_orbit_reps(k: int, nz: int, zadd, two_torsion: list[int],
                    val_gens: list) -> list[dict]:
    """One commutator pairing per orbit under basis changes of G/Z and the
    given value-side permutations of Z."""
    pairs = [(j, i) for i in range(k) for j in range(i)]
    gl_gens = _gl_generators(k)

    def key(cpairs):
        return tuple(cpairs[p] for p in pairs)

    seen: set[tuple] = set()
    reps = []
    for combo in itertools.product(two_torsion, repeat=len(pairs)):
        cpairs = dict(zip(pairs, combo))
        k0 = key(cpairs)
        if k0 in seen:
            continue
        reps.append(cpairs)
        frontier = [cpairs]
        seen.add(k0)
        while frontier:
            cur = frontier.pop()
            images = []
            for m in gl_gens:
                images.append({(j, i): eval_form(cur, zadd, k, m[j], m[i])
                               for (j, i) in pairs})
            for perm in val_gens:
                images.append({p: int(perm[v]) for p, v in cur.items()})
            for img in images:
                ki = key(img)
                if ki not in seen:
                    seen.add(ki)
                    frontier.append(img)
    return reps


def class2_groups(factors: tuple[int, ...], k: int,
                  require_regular: bool) -> list[tuple[FiniteGroup, dict, list]]:
    """All class-2 groups with center exactly Z and G/Z = C2^k, up to iso.

    Isomorphism classes are exactly the orbits of the (pairing, squaring)
    data under GL(G/Z) x Aut(Z), with the squaring map read modulo 2Z, so
    deduplication marks whole stabilizer orbits of q instead of running
    group-level isomorphism searches.
    """
    nz, zadd, two_torsion, q_reps, _ = abelian_data(factors)
    pairs = [(j, i) for i in range(k) for j in range(i)]
    gl = gl_matrices(k)
    auts = abelian_automorphisms(factors)
    # canonical coset representative of z modulo 2Z
    doubles = sorted({int(zadd[z, z]) for z in range(nz)})
    rep_of = np.empty(nz, dtype=np.int64)
    for z in range(nz):
        rep_of[z] = min(int(zadd[z, d]) for d in doubles)
    # distinct value-side actions on the 2-torsion drive the form orbits
    val_gens = list({tuple(int(s[t]) for t in two_torsion): s for s in auts}.values())

    found = []
    for cpairs in form_orbit_reps(k, nz, zadd, two_torsion, val_gens):
        cm = comm_map(k, nz, zadd, cpairs)
        if not all((cm[:, v] != 0).any() for v in range(1, 1 << k)):
            continue  # center would be bigger than Z
        if require_regular:
            kernels = [frozenset(int(w) for w in range(1 << k) if cm[w, v] == 0)
                       for v in range(1, 1 << k)]
            if len(set(kernels)) != len(kernels):
                continue
        stab = []
        for m in gl:
            cm_form = {(j, i): eval_form(cpairs, zadd, k, m[j], m[i])
                       for (j, i) in pairs}
            for sigma in auts:
                if all(int(sigma[cm_form[p]]) == cpairs[p] for p in pairs):
                    stab.append((m, sigma))
        phi_c = pair_phi(k, nz, zadd, cpairs)
        seen: set[tuple] = set()
        for qvals in itertools.product(q_reps, repeat=k):
            if qvals in seen:
                continue
            for m, sigma in stab:
                img = tuple(int(rep_of[int(sigma[eval_square(cpairs, qvals, zadd, k, m[i])])])
                            for i in range(k))
                seen.add(img)
            table = class2_table(k, nz, zadd, phi_c, list(qvals))
            g = from_table(table)
            assert g.center().size == nz
            if require_regular:
                assert analysis.is_regular(g) is not None
            found.append((g, dict(cpairs), list(qvals)))
    return found


# --- structure identification -------------------------------------------------

def pres(text: str) -> FiniteGroup:
    return enumerate_presentation(parse(text))


def dp(*gs: FiniteGroup) -> FiniteGroup:
    out = gs[0]
    for g in gs[1:]:
        out = direct_product(out, g)
    return out


def semidihedral(order: int) -> FiniteGroup:
    m = order // 2
    return pres(f"< a,b | a^{m}, b^2, b*a*b = a^{m // 2 - 1} >")


def min_generators(g: FiniteGroup) -> int:
    phi = g.frattini()
    d = 0
    q = g.order // phi.size
    while q > 1:
        q //= 2
        d += 1
    return d


def match_label(classes: list[FiniteGroup], ref: FiniteGroup) -> int:
    hits = [i for i, g in enumerate(classes)
            if g.order == ref.order and is_isomorphic(g, ref)]
    if len(hits) != 1:
        raise RuntimeError(f"reference matched {len(hits)} classes")
    return hits[0]


# --- reference constructions for pinned labels --------------------------------

def pauli16() -> FiniteGroup:
    # central product D8 o C4 (= Q8 o C4)
    return pres("< a,b,c | a^4, b^2, b*a*b = a^-1, c^2 = a^2, a*c = c*a, b*c = c*b >")


def build_references():
    c2 = families.cyclic(2)
    c4 = families.cyclic(4)
    refs8 = {
        "[8,1]": families.cyclic(8),
        "[8,2]": dp(c4, c2),
        "[8,3]": families.dihedral(4),
        "[8,4]": families.generalized_quaternion(8),
        "[8,5]": families.elementary_abelian(2, 3),
    }
    refs16 = {
        "[16,1]": families.cyclic(16),
        "[16,2]": dp(c4, c4),
        "[16,3]": pres("< a,b,c | a^4, b^2, c^2, a*b = b*a, c*a*c = a*b, c*b*c = b >"),
        "[16,4]": pres("< a,b | a^4, b^4, b*a*b^-1 = a^-1 >"),
        "[16,5]": dp(families.cyclic(8), c2),
        "[16,6]": families.modular_M(16),
        "[16,7]": families.dihedral(8),
        "[16,8]": semidihedral(16),
        "[16,9]": families.generalized_quaternion(16),
        "[16,10]": dp(c4, c2, c2),
        "[16,11]": dp(families.dihedral(4), c2),
        "[16,12]": dp(families.generalized_quaternion(8), c2),
        "[16,13]": pauli16(),
        "[16,14]": families.elementary_abelian(2, 4),
    }
    # Pins for order 32.  Structurally forced: abelians, maximal-class trio,
    # modular group, extraspecials, direct/central products of order-16
    # groups.  The two-generator reduced block {2,4,5,12} and the products at
    # 22/23/25/26/37/39/40/41 follow the standard numbering as published.
    refs32 = {
        "[32,1]": families.cyclic(32),
        "[32,2]": pres("< a,b | a^4, b^4, (a^-1*b^-1*a*b)^2, "
                       "a^-1*b^-1*a*b*a = a*(a^-1*b^-1*a*b), "
                       "a^-1*b^-1*a*b*b = b*(a^-1*b^-1*a*b) >"),
        "[32,3]": dp(families.cyclic(8), c4),
        "[32,4]": pres("< a,b | a^8, b^4, b*a*b^-1 = a^5 >"),
        "[32,5]": pres("< a,c | a^2, c^8, (c*a*c^-1)*a = a*(c*a*c^-1), "
                       "c^2*a = a*c^2 >"),
        "[32,12]": pres("< a,b | a^4, b^8, b*a*b^-1 = a^-1 >"),
        "[32,16]": dp(families.cyclic(16), c2),
        "[32,17]": families.modular_M(32),
        "[32,18]": families.dihedral(16),
        "[32,19]": semidihedral(32),
        "[32,20]": families.generalized_quaternion(32),
        "[32,21]": dp(c4, c4, c2),
        "[32,22]": dp(pres("< a,b,c | a^4, b^2, c^2, a*b = b*a, c*a*c = a*b, c*b*c = b >"), c2),
        "[32,23]": dp(pres("< a,b | a^4, b^4, b*a*b^-1 = a^-1 >"), c2),
        "[32,25]": dp(families.dihedral(4), c4),
        "[32,26]": dp(families.generalized_quaternion(8), c4),
        "[32,34]": pres("< a,b,c | a^4, b^4, a*b = b*a, c^2, c*a*c = a^-1, c*b*c = b^-1 >"),
        "[32,36]": dp(families.cyclic(8), c2, c2),
        "[32,37]": dp(families.modular_M(16), c2),
        "[32,38]": pres("< a,b,c | a^4, b^2, b*a*b = a^-1, c^8, c^4 = a^2, "
                        "a*c = c*a, b*c = c*b >"),
        "[32,39]": dp(families.dihedral(8), c2),
        "[32,40]": dp(semidihedral(16), c2),
        "[32,41]": dp(families.generalized_quaternion(16), c2),
        "[32,45]": dp(c4, c2, c2, c2),
        "[32,46]": dp(families.dihedral(4), c2, c2),
        "[32,47]": dp(families.generalized_quaternion(8), c2, c2),
        "[32,48]": dp(pauli16(), c2),
        "[32,51]": families.elementary_abelian(2, 5),
    }
    return refs8, refs16, refs32


def assign_labels(classes: list[FiniteGroup], order: int,
                  refs: dict[str, FiniteGroup]) -> dict[str, FiniteGroup]:
    """Pin reference labels, then fill remaining ids deterministically within
    structure blocks (generator rank, special quotient shape)."""
    n_ids = {8: 5, 16: 14, 32: 51}[order]
    assigned: dict[int, FiniteGroup] = {}
    used = set()
    for label, ref in refs.items():
        gid = int(label.strip("[]").split(",")[1])
        idx = match_label(classes, ref)
        if idx in used:
            raise RuntimeError(f"{label}: class already pinned")
        assigned[gid] = classes[idx]
        used.add(idx)
    if order == 32:
        # extraspecial pair: plus type has 19 involutions, minus type 11
        es = [i for i, g in enumerate(classes)
              if i not in used and g.center().size == 2 and min_generators(g) == 4]
        es.sort(key=lambda i: -dict(classes[i].order_histogram()).get(2, 0))
        assigned[49], assigned[50] = classes[es[0]], classes[es[1]]
        used.update(es)
        remaining = [i for i in range(len(classes)) if i not in used]

        def take(ids: list[int], pick):
            chosen = sorted((i for i in remaining if pick(classes[i])),
                            key=lambda i: fingerprint(classes[i]))
            if len(chosen) != len(ids):
                raise RuntimeError(f"block {ids}: {len(chosen)} classes")
            for gid, i in zip(ids, chosen):
                assigned[gid] = classes[i]
                remaining.remove(i)

        def is_c23_quotient(g):
            if g.is_abelian or g.center().size != 4:
                return False
            quo = g.quotient(g.center())
            return quo.order == 8 and quo.is_abelian and quo.order_histogram() == ((1, 1), (2, 7))

        def is_reduced24(g):
            return (not g.is_abelian and analysis.is_regular(g) == 24
                    and analysis.is_reduced_regular(g))

        take([24], lambda g: is_reduced24(g) and min_generators(g) == 3)
        take([27, 28, 29, 30, 31, 32, 33, 35], is_c23_quotient)
        take([6, 7, 8, 9, 10, 11, 13, 14, 15], lambda g: min_generators(g) == 2)
        take([42, 43, 44], lambda g: min_generators(g) == 3)
        if remaining:
            raise RuntimeError(f"unassigned classes: {remaining}")
    else:
        if len(used) != len(classes):
            raise RuntimeError("orders 8/16 must be fully pinned")
    if set(assigned) != set(range(1, n_ids + 1)):
        raise RuntimeError(f"label set incomplete: {sorted(assigned)}")
    return {f"[{order},{gid}]": assigned[gid] for gid in sorted(assigned)}


# --- order-64 rows -------------------------------------------------------------

Z_TYPES = {
    16: [(16,), (8, 2), (4, 4), (4, 2, 2), (2, 2, 2, 2)],
    8: [(8,), (4, 2), (2, 2, 2)],
    4: [(4,), (2, 2)],
}


def order64_rows():
    """Reduced regular order-64 groups grouped by degree, with class-2 data."""
    rows: dict[int, list[tuple[FiniteGroup, tuple, dict, list]]] = {48: [], 56: [], 60: []}
    for zsize, k, degree in ((16, 2, 48), (8, 3, 56), (4, 4, 60)):
        store = Store()
        for factors in Z_TYPES[zsize]:
            for g, cpairs, qvals in class2_groups(factors, k, require_regular=True):
                if store.add(g):
                    assert analysis.is_regular(g) == degree
                    if analysis.is_reduced_regular(g):
                        rows[degree].append((g, factors, cpairs, qvals))
    return rows


def assign_labels64(rows) -> dict[str, tuple]:
    """Names for the Table-1 order-64 rows.

    The modular group M(64) is pinned; remaining ids fill their generator-rank
    blocks in deterministic invariant order (documented in the catalog)."""
    id_blocks = {
        48: {2: [3, 17, 27, 29, 44, 51], 3: [57, 86, 112, 185]},
        56: {3: [73, 74, 75, 76, 77, 78, 79, 80, 81, 82]},
        60: {4: [199, 200, 201, 226, 227, 228, 229, 230, 231, 232, 233, 234,
                 235, 236, 237, 238, 239, 240, 249], 5: [266]},
    }
    m64 = families.modular_M(64)
    out: dict[str, tuple] = {}
    for degree, entries in rows.items():
        by_rank: dict[int, list[tuple]] = {}
        pinned = None
        for e in entries:
            g = e[0]
            if degree == 48 and is_isomorphic(g, m64):
                pinned = e
                continue
            by_rank.setdefault(min_generators(g), []).append(e)
        blocks = id_blocks[degree]
        expected = {r: len(ids) for r, ids in blocks.items()}
        if pinned is not None:
            expected[2] -= 1
        got = {r: len(v) for r, v in by_rank.items()}
        if got != {r: c for r, c in expected.items() if c}:
            raise RuntimeError(f"degree {degree}: rank counts {got} != expected {expected}")
        for rank, ids in blocks.items():
            ids = list(ids)
            if pinned is not None and rank == 2:
                out["[64,51]"] = pinned
                ids.remove(51)
            for gid, e in zip(ids, sorted(by_rank.get(rank, []),
                                          key=lambda e: fingerprint(e[0]))):
                out[f"[64,{gid}]"] = e
    return out


# --- catalog emission ----------------------------------------------------------

def perm_entry(label: str, g: FiniteGroup, comment: str = "") -> str:
    gens = core.greedy_generators(g.table)
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines += [f"name: {label}", "kind: perm", f"order: {g.order}",
              f"degree: {g.order}"]
    for x in gens:
        images = " ".join(str(int(g.table[x, j])) for j in range(g.order))
        lines.append(f"gen: {images}")
    return "\n".join(lines)


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
    nz, zadd, _, _, decode = abelian_data(factors)
    znames = [f"z{i+1}" for i in range(len(factors))]
    xnames = [f"x{i+1}" for i in range(k)]

    def zword(idx: int) -> str:
        parts = [f"{nm}^{e}" if e > 1 else nm
                 for nm, e in zip(znames, decode(idx)) if e]
        return "*".join(parts) if parts else "1"

    rels = [f"{nm}^{o}" for nm, o in zip(znames, factors)]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            rels.append(f"{znames[i]}*{znames[j]} = {znames[j]}*{znames[i]}")
    for xn in xnames:
        for zn in znames:
            rels.append(f"{xn}*{zn} = {zn}*{xn}")
    for i, xn in enumerate(xnames):
        rels.append(f"{xn}^2 = {zword(qvals[i])}")
    for j in range(k):
        for i in range(j + 1, k):
            # x_i x_j = x_j x_i [x_i, x_j] with [x_i, x_j] = c[(j, i)]
            com = zword(cpairs[(j, i)])
            rhs = f"{xnames[j]}*{xnames[i]}"
            if com != "1":
                rhs += f"*{com}"
            rels.append(f"{xnames[i]}*{xnames[j]} = {rhs}")
    return f"< {', '.join(znames + xnames)} | {', '.join(rels)} >"


def main():
    t0 = time.time()
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    c2 = families.cyclic(2)
    order4 = [families.cyclic(4), dp(c2, c2)]
    order8 = classify_order(order4)
    print(f"order 8: {len(order8)} classes ({time.time() - t0:.1f}s)")
    assert len(order8) == 5
    order16 = classify_order(order8)
    print(f"order 16: {len(order16)} classes ({time.time() - t0:.1f}s)")
    assert len(order16) == 14
    order32 = classify_order(order16)
    print(f"order 32: {len(order32)} classes ({time.time() - t0:.1f}s)")
    assert len(order32) == 51

    refs8, refs16, refs32 = build_references()
    labels8 = assign_labels(order8, 8, refs8)
    labels16 = assign_labels(order16, 16, refs16)
    labels32 = assign_labels(order32, 32, refs32)
    print(f"labels assigned ({time.time() - t0:.1f}s)")

    # Table 1 sanity before writing anything
    t1 = {}
    for label, g in {**labels8, **labels16, **labels32}.items():
        if not g.is_abelian and g.is_p_group() == 2:
            deg = analysis.is_regular(g)
            if deg and analysis.is_reduced_regular(g):
                t1.setdefault(deg, []).append(label)
    for deg in sorted(t1):
        print(f"  reduced {deg}-regular: {sorted(t1[deg])}")
    assert sorted(t1[6]) == ["[8,3]", "[8,4]"]
    assert sorted(t1[12]) == ["[16,13]", "[16,3]", "[16,4]", "[16,6]"]
    assert len(t1[24]) == 7 and len(t1[30]) == 2
    assert sorted(int(l.strip("[]").split(",")[1]) for l in t1[24]) == [2, 4, 5, 12, 17, 24, 38]
    assert sorted(int(l.strip("[]").split(",")[1]) for l in t1[30]) == [49, 50]

    # cross-validate the class-2 machinery against the cocycle-based
    # classification at order 32 before trusting it for order 64
    reg32 = []
    for factors in ((8,), (4, 2), (2, 2, 2)):
        reg32.extend(g for g, _, _ in class2_groups(factors, 2, require_regular=True))
    es32 = [g for g, _, _ in class2_groups((2,), 4, require_regular=True)]
    ref24 = [g for g in order32 if analysis.is_regular(g) == 24]
    ref30 = [g for g in order32 if analysis.is_regular(g) == 30]
    assert len(reg32) == len(ref24) == 15
    assert len(es32) == len(ref30) == 2
    for g in reg32:
        assert sum(1 for h in ref24 if is_isomorphic(g, h)) == 1
    for g in es32:
        assert sum(1 for h in ref30 if is_isomorphic(g, h)) == 1
    print(f"class-2 machinery cross-validated at order 32 ({time.time() - t0:.1f}s)")

    rows = order64_rows()
    print(f"order-64 rows: { {d: len(v) for d, v in rows.items()} } ({time.time() - t0:.1f}s)")
    assert len(rows[48]) == 10 and len(rows[56]) == 10 and len(rows[60]) == 20
    labels64 = assign_labels64(rows)
    print(f"order-64 labels assigned ({time.time() - t0:.1f}s)")

    write_catalogs(labels8, labels16, labels32, labels64, refs8, refs16, refs32)
    print(f"catalogs written to {OUT_DIR} ({time.time() - t0:.1f}s)")


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


def write_catalogs(labels8, labels16, labels32, labels64, refs8, refs16, refs32):
    header = "# generated by tools/gen_catalogs.py; do not edit by hand\n"

    def verify_pres(label, text, g):
        h = enumerate_presentation(parse(text))
        if not is_isomorphic(h, g):
            raise RuntimeError(f"{label}: presentation does not match class")

    for order, labels, presmap, fname in (
            (8, labels8, PRES8, "order8.cat"),
            (16, labels16, PRES16, "order16.cat"),
            (32, labels32, PRES32, "order32.cat")):
        blocks = [header.rstrip()]
        blocks.append(f"# all {len(labels)} groups of order {order}, one entry per "
                      "isomorphism class")
        if order == 32:
            blocks.append("# label pairing: abelian types, maximal-class and modular "
                          "groups, extraspecial\n# groups, and named products are "
                          "structurally pinned; remaining ids fill their\n# generator-rank "
                          "blocks in a deterministic invariant order")
        for label in sorted(labels, key=lambda l: int(l.strip("[]").split(",")[1])):
            g = labels[label]
            if label in presmap:
                verify_pres(label, presmap[label], g)
                blocks.append(pres_entry(label, g.order, presmap[label]))
            else:
                blocks.append(perm_entry(label, g))
        (OUT_DIR / fname).write_text("\n\n".join(blocks) + "\n", encoding="utf-8")
        print(f"  wrote {fname}")

    blocks = [header.rstrip()]
    blocks.append("# order-64 groups named in the reduced-regular table rows "
                  "n=48, n=56, n=60,\n# plus five regular-but-not-reduced controls. "
                  "The n=56 row is read as the ten\n# groups [64,73]..[64,82]. "
                  "M(64) is pinned to [64,51]; other ids fill their\n# generator-rank "
                  "blocks in a deterministic invariant order")
    for label in sorted(labels64, key=lambda l: int(l.strip("[]").split(",")[1])):
        g, factors, cpairs, qvals = labels64[label]
        text = class2_presentation(factors, len(qvals), cpairs, qvals)
        verify_pres(label, text, g)
        blocks.append(pres_entry(label, 64, text))
    for name, text, comment in CONTROLS64:
        g = enumerate_presentation(parse(text))
        if g.order != 64 or analysis.is_regular(g) is None or analysis.is_reduced_regular(g):
            raise RuntimeError(f"control {name} is not a regular non-reduced order-64 group")
        blocks.append(pres_entry(name, 64, text, comment))
    (OUT_DIR / "order64.cat").write_text("\n\n".join(blocks) + "\n", encoding="utf-8")
    print("  wrote order64.cat")


if __name__ == "__main__":
    main()
