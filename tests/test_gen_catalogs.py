"""The array helpers of tools/gen_catalogs.py cross-checked against the
per-element loops they replaced, which are kept here as test-only oracles,
its labeling routine checked against the shipped catalogs and its rules, and
its class store shown to accept every shipped catalog entry."""

import ast
import importlib.util
import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from noncent import catalog, families
from noncent.core import direct_product, from_permutations, from_table, is_isomorphic

_ROOT = Path(__file__).resolve().parent.parent
_TOOL = _ROOT / "tools" / "gen_catalogs.py"
_spec = importlib.util.spec_from_file_location("gen_catalogs", _TOOL)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


# --- oracles -----------------------------------------------------------------

def slow_abelian_data(factors):
    """Addition table, 2-torsion and 2Z coset minima of prod C_f, one
    mixed-radix digit tuple at a time (first factor most significant)."""
    nz = int(np.prod(factors))
    radix = [int(np.prod(factors[i + 1:])) for i in range(len(factors))]

    def decode(i):
        return tuple((i // place) % f for place, f in zip(radix, factors))

    def encode(t):
        return sum(v * place for v, place in zip(t, radix))

    add = np.empty((nz, nz), dtype=np.int64)
    for i in range(nz):
        for j in range(nz):
            add[i, j] = encode(tuple((a + b) % f
                                     for a, b, f in zip(decode(i), decode(j), factors)))
    two_torsion = [i for i in range(nz)
                   if all((2 * v) % f == 0 for v, f in zip(decode(i), factors))]
    doubles = {encode(tuple((2 * v) % f for v, f in zip(decode(i), factors)))
               for i in range(nz)}
    seen, q_reps = set(), []
    for i in range(nz):
        if i not in seen:
            q_reps.append(i)
            seen.update(int(add[i, d]) for d in doubles)
    return add, two_torsion, q_reps, decode


def slow_eval_form(cpairs, zadd, k, u, w):
    """Bilinear expansion of the pairing at bitmask vectors u, w."""
    acc = 0
    for i in range(k):
        for j in range(i):
            if ((u >> i & 1) and (w >> j & 1)) ^ ((u >> j & 1) and (w >> i & 1)):
                acc = int(zadd[acc, cpairs[(j, i)]])
    return acc


def slow_eval_square(cpairs, qvals, zadd, k, m):
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


def slow_build_extension(tq, f):
    """The extension table with the cocycle matrix read one bit at a time."""
    n = tq.shape[0]
    fmat = np.zeros((n, n), dtype=np.int64)
    for a in range(1, n):
        for b in range(1, n):
            fmat[a, b] = (f >> ((a - 1) * (n - 1) + (b - 1))) & 1
    tq2 = np.kron(tq, np.ones((2, 2), dtype=np.int64))
    return 2 * tq2 + (np.tile(np.array([[0, 1], [1, 0]]), (n, n))
                      ^ np.kron(fmat, np.ones((2, 2), dtype=np.int64)))


def parent_reduce_vec(v, pivots):
    """Fully reduce v against RREF pivot rows (one downward bit scan)."""
    b = v.bit_length() - 1
    while b >= 0:
        if (v >> b) & 1 and b in pivots:
            v ^= pivots[b]
        b -= 1
    return v


def parent_cocycle_reps(tq):
    """Representatives of H^2(Q, C2) as normalized cocycle bitmasks, with the
    equations built in a triple loop over Q^3 (run it with gen.reduce_vec
    replaced by parent_reduce_vec)."""
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
    z_basis = gen.nullspace(eqs, m * m)

    b_vecs = []
    for q0 in range(1, n):
        mask = 0
        for a in range(1, n):
            for b in range(1, n):
                if ((a == q0) ^ (b == q0) ^ (int(tq[a, b]) == q0)):
                    mask |= 1 << vid(a, b)
        b_vecs.append(mask)
    b_pivots = gen.rref(b_vecs)

    quot = []
    acc = dict(b_pivots)
    for v in z_basis:
        r = gen.rref_insert(acc, v)
        if r:
            quot.append(r)

    reps = [0]
    for qv in quot:
        reps = reps + [r ^ qv for r in reps]
    return reps


def slow_gl_matrices(k):
    """GL(k, 2) as the tool enumerated it before: every k-tuple of nonzero
    columns in lexicographic order, kept when row reduction finds rank k."""
    return np.array([m for m in itertools.product(range(1, 1 << k), repeat=k)
                     if len(gen.rref(list(m))) == k])


def parent_gl_matrices(k: int) -> np.ndarray:
    """All of GL(k, 2), one row of column images (bitmasks) per matrix: the
    k-tuples of linearly independent nonzero columns, in lexicographic order.

    Built column by column: each new column ranges, ascending, over the
    nonzero vectors outside the span of the columns before it, so every
    prefix extends in order and no tuple is row-reduced.  span[i] is the
    membership mask of the span of row i's columns; adding v gives S | S ^ v.
    """
    vecs = np.arange(1, 1 << k)
    gl = np.zeros((1, 0), dtype=np.int64)
    span = np.arange(1 << k)[None, :] == 0
    for _ in range(k):
        rows, cols = np.nonzero(~span[:, vecs])  # row-major: prefixes, then columns ascending
        v, span = vecs[cols], span[rows]
        gl = np.column_stack([gl[rows], v])
        span = span | np.take_along_axis(span, np.arange(1 << k) ^ v[:, None], axis=1)
    gl.setflags(write=False)
    return gl


def parent_abelian_automorphisms(factors: tuple[int, ...]) -> np.ndarray:
    """Every automorphism of Z = prod C_{factors[i]}, one row per map, as a
    permutation of element indices.

    A candidate sends the i-th unit digit to an element of order factors[i]
    and extends additively: digit column by digit column, each image is a
    zadd gather of the images so far with the multiples of the new one.  The
    bijective candidates are the automorphisms.
    """
    z = gen.abelian_data(factors)[0]
    zadd = z.table
    mult = np.zeros((z.order, max(factors)), dtype=np.int64)  # mult[x, e] = e*x
    for e in range(1, max(factors)):
        mult[:, e] = zadd[mult[:, e - 1], np.arange(z.order)]
    maps = np.zeros((1, 1), dtype=np.int64)
    for f in factors:
        gens = mult[np.flatnonzero(z.element_orders() == f), :f]
        maps = zadd[maps[:, None, :, None], gens[None, :, None, :]]
        maps = maps.reshape(maps.shape[0] * maps.shape[1], -1)
    auts = maps[(np.sort(maps, axis=1) == np.arange(z.order)).all(axis=1)]
    auts.setflags(write=False)
    return auts


def all_automorphisms_of(auts, g):
    """Each row of auts is a bijective homomorphism of g to itself over its
    whole table (checked 1024 rows at a time), and no row repeats."""
    table = g.table
    for rows in np.array_split(auts, -(-len(auts) // 1024)):
        if not ((np.sort(rows, axis=1) == np.arange(g.order)).all()
                and (rows[:, table] == table[rows[:, :, None], rows[:, None, :]]).all()):
            return False
    return len(np.unique(auts, axis=0)) == len(auts)


# --- tests -------------------------------------------------------------------

ALL_Z_TYPES = [f for types in gen.Z_TYPES.values() for f in types]


def test_abelian_data_is_digitwise_addition():
    for factors in ALL_Z_TYPES + [(2,), (3, 2), (6,), (3, 3)]:
        z, two_torsion, rep_of = gen.abelian_data(factors)
        add, slow_two, slow_reps, decode = slow_abelian_data(factors)
        assert (z.table == add).all(), factors
        assert two_torsion == slow_two, factors
        assert np.unique(rep_of).tolist() == slow_reps, factors
        digits = np.transpose(np.unravel_index(np.arange(z.order), factors))
        assert [tuple(d) for d in digits.tolist()] == [decode(i) for i in range(z.order)]


def test_automorphism_counts():
    expected = {(16,): 8, (8, 2): 16, (4, 4): 96, (4, 2, 2): 192, (2, 2, 2, 2): 20160,
                (8,): 4, (4, 2): 8, (2, 2, 2): 168, (4,): 2, (2, 2): 6}
    assert set(ALL_Z_TYPES) <= set(expected)
    for factors, count in expected.items():
        z = gen.abelian_data(factors)[0]
        auts = gen.automorphisms(z)
        assert auts.shape == (count, z.order), factors
        assert all_automorphisms_of(auts, z), factors


def test_automorphisms_match_parent_enumerators():
    for k in (2, 3, 4):
        gl = gen.automorphisms(families.elementary_abelian(2, k))[:, 1 << np.arange(k)]
        assert np.array_equal(gl, parent_gl_matrices(k)), k
        assert np.array_equal(gen.gl_matrices(k), gl), k
    for factors in ALL_Z_TYPES:
        auts = gen.automorphisms(gen.abelian_data(factors)[0])
        parent = parent_abelian_automorphisms(factors)
        assert len(auts) == len(parent), factors
        assert set(map(tuple, auts.tolist())) == set(map(tuple, parent.tolist())), factors


def test_order8_automorphism_group_orders():
    counts = []
    for g in _order8():
        auts = gen.automorphisms(g)
        assert all_automorphisms_of(auts, g), g
        counts.append(len(auts))
    assert counts == [4, 8, 8, 24, 168]


def test_gl_orders():
    for k, count in ((2, 6), (3, 168), (4, 20160)):
        gl = gen.gl_matrices(k)
        assert gl.shape == (count, k)
        assert len({tuple(m) for m in gl.tolist()}) == count
        assert all(len(gen.rref(m)) == k for m in gl[::97].tolist())


def test_gl_matrices_match_rref_filter_in_order():
    # the enumeration order decides which catalog representatives are kept
    for k in (2, 3, 4):
        assert np.array_equal(gen.gl_matrices(k), slow_gl_matrices(k)), k


def test_commutator_form_and_squares_match_per_pair_loops():
    k, factors = 3, (2, 2)
    z, two_torsion, rep_of = gen.abelian_data(factors)
    zadd = z.table
    pairs = [(j, i) for i in range(k) for j in range(i)]
    monomials = range(1 << k)
    q_reps = np.unique(rep_of).tolist()
    for combo in itertools.product(two_torsion, repeat=len(pairs)):
        cpairs = dict(zip(pairs, combo))
        phi = gen.pair_phi(k, zadd, cpairs)
        form = zadd[phi, phi.T]
        assert form.tolist() == [[slow_eval_form(cpairs, zadd, k, u, w) for w in monomials]
                                 for u in monomials], cpairs
        for qvals in itertools.product(q_reps, repeat=k):
            squares = zadd[gen.subset_sums(k, zadd, qvals), np.diag(phi)]
            assert squares.tolist() == [slow_eval_square(cpairs, qvals, zadd, k, m)
                                        for m in monomials], (cpairs, qvals)


def test_build_extension_matches_bitwise_cocycle_read():
    rng = random.Random(7)
    for q in (families.cyclic(4), families.dihedral(4), families.modular_M(16)):
        tq = np.asarray(q.table, dtype=np.int64)
        bits = (q.order - 1) ** 2
        cocycles = gen.cocycle_reps(tq) if q.order < 16 else []
        for f in cocycles + [0, (1 << bits) - 1] + [rng.getrandbits(bits) for _ in range(3)]:
            assert np.array_equal(gen.build_extension(tq, f), slow_build_extension(tq, f)), (q.order, f)


def _relabeled(tq, rng):
    """tq under a random relabeling that keeps the identity at 0."""
    perm = np.concatenate([[0], 1 + rng.permutation(len(tq) - 1)])
    out = np.empty_like(tq)
    out[np.ix_(perm, perm)] = perm[tq]
    return out


@pytest.fixture(scope="module")
def quotients():
    """The 23 quotient tables the tool extends (trivial, C2, C4, C2^2 and the
    classes of order 8 and 16 as it enumerates them), then a seeded relabeled
    copy of each order-8 class."""
    c2 = families.cyclic(2)
    groups = [families.cyclic(1), c2, families.cyclic(4), direct_product(c2, c2)]
    order8 = gen.classify_order(groups[2:])
    tables = [np.asarray(g.table, dtype=np.int64) for g in groups + order8
              + gen.classify_order(order8)]
    rng = np.random.default_rng(24)
    return tables, [_relabeled(tq, rng) for tq in tables[4:9]]


def test_reduce_vec_matches_parent_bit_scan():
    rng = random.Random(24)
    for _ in range(200):
        pivots = gen.rref([rng.getrandbits(60) for _ in range(rng.randrange(1, 40))])
        v = rng.getrandbits(64)
        assert gen.reduce_vec(v, pivots) == parent_reduce_vec(v, pivots)


def test_cocycle_reps_list_equal_to_parent(quotients, monkeypatch):
    # enumeration order decides which extension represents each class
    tables, relabeled = quotients
    assert [len(tq) for tq in tables] == [1, 2, 4, 4] + [8] * 5 + [16] * 14
    new = [gen.cocycle_reps(tq) for tq in tables + relabeled]
    monkeypatch.setattr(gen, "reduce_vec", parent_reduce_vec)
    old = [parent_cocycle_reps(tq) for tq in tables + relabeled]
    for i, (a, b) in enumerate(zip(new, old)):
        assert a == b, i


def test_cocycle_class_counts_are_second_cohomology_orders():
    # |H^2(Q; F2)| for Q = 1, C2, C4, C2^2, C8, C4xC2, D8, Q8, C2^3
    c2, c4 = families.cyclic(2), families.cyclic(4)
    groups = [families.cyclic(1), c2, c4, direct_product(c2, c2), families.cyclic(8),
              direct_product(c4, c2), families.dihedral(4),
              families.generalized_quaternion(8), families.elementary_abelian(2, 3)]
    counts = []
    for q in groups:
        tq = np.asarray(q.table, dtype=np.int64)
        reps = gen.cocycle_reps(tq)
        counts.append(len(reps))
        for f in reps:  # from_table rejects a table that is not a group
            assert from_table(gen.build_extension(tq, f)).order == 2 * q.order
    assert counts == [1, 2, 2, 8, 2, 8, 8, 4, 64]


def test_perm_entry_lists_generator_rows():
    g = families.dihedral(4)
    gens = gen.core.greedy_generators(g.table)
    assert gen.perm_entry("[8,3]", g).splitlines() == (
        ["name: [8,3]", "kind: perm", "order: 8", "degree: 8"]
        + ["gen: " + " ".join(str(int(g.table[x, j])) for j in range(8)) for x in gens])


def test_checks_raise_instead_of_asserting():
    # python -O strips assert statements; the tool's and the library's checks must survive it
    for path in [_TOOL, *sorted((_ROOT / "src" / "noncent").glob("*.py"))]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)], path
    gen.expect(True, "holds")
    with pytest.raises(RuntimeError, match="check failed: 51 groups"):
        gen.expect(False, "51 groups")


def test_orders_8_and_16_label_as_shipped():
    c2 = families.cyclic(2)
    order8 = gen.classify_order([families.cyclic(4), direct_product(c2, c2)])
    order16 = gen.classify_order(order8)
    refs8, refs16, _ = gen.build_references()
    for order, classes, refs in ((8, order8, refs8), (16, order16, refs16)):
        labels = gen.assign_labels(classes, order, refs)
        shipped = {e.label: e.group()
                   for e in catalog.load(catalog.shipped_path(f"order{order}.cat"))}
        assert list(labels) == list(shipped)
        for label, g in labels.items():
            assert is_isomorphic(g, shipped[label]), label


def _order8():
    c2, c4 = families.cyclic(2), families.cyclic(4)
    return [families.cyclic(8), direct_product(c4, c2), families.dihedral(4),
            families.generalized_quaternion(8), families.elementary_abelian(2, 3)]


def _abelian(g):
    return g.is_abelian


def _non_abelian(g):
    return not g.is_abelian


def test_label_blocks_fill_in_fingerprint_order_ties_in_enumeration_order():
    classes = _order8()
    labels = gen.assign_labels(classes, 8, {"[8,1]": families.cyclic(8)},
                               [([5, 2], _abelian), ([4, 3], _non_abelian)])
    assert list(labels) == ["[8,1]", "[8,2]", "[8,3]", "[8,4]", "[8,5]"]
    for ids in (("[8,5]", "[8,2]"), ("[8,4]", "[8,3]")):
        fps = [gen.fingerprint(labels[label]) for label in ids]
        assert fps[0] < fps[1], ids
    twins = [families.cyclic(8), families.cyclic(8)]
    for pair in (twins, twins[::-1]):
        labels = gen.assign_labels(pair, 8, {}, [([1, 2], _abelian)])
        assert list(labels.values()) == pair


@pytest.mark.parametrize("refs, blocks, message", [
    ({}, [([1, 2], _abelian)], r"block \[1, 2\] takes 2 classes, not 3"),
    ({"[8,1]": families.cyclic(8)}, [([3, 4], _non_abelian)], "every class has a label"),
    ({"[8,1]": families.cyclic(8)}, [([1, 5], _abelian)], r"\[8,1\] is given once"),
    ({}, [([1, 2, 3], _abelian), ([3, 4], _non_abelian)], r"\[8,3\] is given once"),
    ({"[8,1]": families.cyclic(8), "[8,2]": families.cyclic(8)}, [],
     "each reference pins its own class"),
    ({"[16,1]": families.cyclic(16)}, [], "a reference matches one class, not 0"),
])
def test_label_rules_raise(refs, blocks, message):
    with pytest.raises(RuntimeError, match=message):
        gen.assign_labels(_order8(), 8, refs, blocks)


def test_reference_matching_two_classes_raises():
    with pytest.raises(RuntimeError, match="a reference matches one class, not 2"):
        gen.assign_labels(_order8() + [families.cyclic(8)], 8, {"[8,1]": families.cyclic(8)})


# --- the shipped catalogs hold one entry per isomorphism class ---------------

def _refused_by_one_store(entries):
    store = gen.Store()
    return [e.label for e in entries if not store.add(e.group())]


def test_order8_pairwise_distinct(order8_entries):
    assert _refused_by_one_store(order8_entries) == []


def test_order16_no_duplicates(order16_entries):
    assert _refused_by_one_store(order16_entries) == []


def test_order32_and_64_pairwise_distinct(order32_entries, order64_entries):
    assert _refused_by_one_store(order32_entries) == []
    assert _refused_by_one_store(order64_entries) == []


def test_family_instance_matches_catalog(order8_entries):
    d8 = next(e.group() for e in order8_entries if e.label == "[8,3]")
    store = gen.Store()
    assert store.add(d8)
    assert not store.add(from_permutations(4, [[1, 2, 3, 0], [2, 1, 0, 3]]))
    assert store.classes == [d8]
    assert is_isomorphic(families.dihedral(4), d8)
