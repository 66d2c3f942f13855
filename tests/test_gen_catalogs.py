"""The array helpers of tools/gen_catalogs.py cross-checked against the
per-element loops they replaced, which are kept here as test-only oracles."""

import ast
import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "gen_catalogs.py"
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


def slow_gl_matrices(k):
    """GL(k, 2) as the tool enumerated it before: every k-tuple of nonzero
    columns in lexicographic order, kept when row reduction finds rank k."""
    return np.array([m for m in itertools.product(range(1, 1 << k), repeat=k)
                     if len(gen.rref(list(m))) == k])


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
        auts = gen.abelian_automorphisms(factors)
        assert auts.shape == (count, int(np.prod(factors))), factors
        assert len(np.unique(auts, axis=0)) == count, factors
        assert (auts[:, 0] == 0).all(), factors
        if count <= 200:  # each row is a bijective homomorphism
            zadd = gen.abelian_data(factors)[0].table
            assert (np.sort(auts, axis=1) == np.arange(len(zadd))).all(), factors
            assert (auts[:, zadd] == zadd[auts[:, :, None], auts[:, None, :]]).all(), factors


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


def test_checks_raise_instead_of_asserting():
    # python -O strips assert statements; the tool's checks must survive it
    tree = ast.parse(_TOOL.read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    gen.expect(True, "holds")
    with pytest.raises(RuntimeError, match="check failed: 51 groups"):
        gen.expect(False, "51 groups")
