import tracemalloc

import numpy as np
import pytest

import oracles
from noncent import analysis, core, families, graph
from oracles import degree_sequence, is_elementary_p


class TestCyclic:
    def test_trivial(self):
        assert families.cyclic(1).order == 1

    def test_c2(self):
        g = families.cyclic(2)
        assert g.order == 2 and g.element_orders()[1] == 2

    def test_c6_has_order_6_element(self):
        g = families.cyclic(6)
        assert g.is_abelian
        assert max(g.element_orders()) == 6

    def test_bad_order(self):
        with pytest.raises(ValueError):
            families.cyclic(0)


class TestElementaryAbelian:
    def test_klein(self):
        g = families.elementary_abelian(2, 2)
        assert g.order == 4 and g.order_histogram() == ((1, 1), (2, 3))

    def test_exponent_two_order_eight(self):
        g = families.elementary_abelian(2, 3)
        assert g.order == 8 and is_elementary_p(g) == 2

    def test_c3_squared(self):
        g = families.elementary_abelian(3, 2)
        assert g.order == 9 and is_elementary_p(g) == 3

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            families.elementary_abelian(4, 2)


class TestDihedral:
    def test_d8_structure(self):
        g = families.dihedral(4)
        assert g.center().size == 2
        assert len(g.beta_classes()) == 4

    def test_s3(self):
        g = families.dihedral(3)
        assert g.order == 6 and g.center().members == (0,)

    def test_m2_is_klein(self):
        g = families.dihedral(2)
        assert g.is_abelian and g.order_histogram() == ((1, 1), (2, 3))

    def test_too_small(self):
        with pytest.raises(ValueError):
            families.dihedral(1)


class TestQuaternion:
    def test_q8_one_involution(self):
        g = families.generalized_quaternion(8)
        assert g.order_histogram() == ((1, 1), (2, 1), (4, 6))

    def test_q8_cent_count(self):
        assert len(families.generalized_quaternion(8).beta_classes()) == 4

    def test_q16(self):
        g = families.generalized_quaternion(16)
        assert g.order == 16 and g.center().size == 2
        assert np.count_nonzero(g.element_orders() == 2) == 1

    def test_needs_power_of_two(self):
        with pytest.raises(ValueError):
            families.generalized_quaternion(12)
        with pytest.raises(ValueError):
            families.generalized_quaternion(4)


class TestModular:
    def test_m8_is_regular_degree_6(self):
        # k=3 has degree 3 * 2^(k-2) = 6
        assert analysis.is_regular(families.modular_M(8)) == 6

    def test_m16_degree_12(self):
        assert analysis.is_regular(families.modular_M(16)) == 12

    def test_m32_center(self):
        g = families.modular_M(32)
        z = g.center()
        assert z.size == 8
        # Z = <a^2> is cyclic
        assert g.element_orders()[list(z.members)].max() == 8

    @pytest.mark.parametrize("k", range(3, 9))
    def test_index_of_center_is_four(self, k):
        g = families.modular_M(2 ** k)
        assert g.order // g.center().size == 4


class TestHeisenberg:
    def test_order_27(self):
        g = families.heisenberg(3)
        assert g.order == 27 and g.center().size == 3

    def test_induced_regular_class_size(self):
        g = families.heisenberg(3)
        classes = analysis.beta_partition(g)
        assert set(map(len, classes[1:])) == {6}
        assert analysis.is_induced_regular(g) is not None

    def test_h125_cent_count(self):
        # p + 2 distinct centralizers
        assert len(families.heisenberg(5).beta_classes()) == 7

    def test_central_quotient(self):
        g = families.heisenberg(3)
        q = g.quotient(g.center())
        assert q.order == 9 and q.is_abelian

    def test_needs_odd_prime(self):
        with pytest.raises(ValueError):
            families.heisenberg(2)
        with pytest.raises(ValueError):
            families.heisenberg(9)


class TestFingerprintCollision:
    def test_d8_q8_same_counts_not_isomorphic(self):
        """D8 and Q8 share (|Z|, |Cent|, degree sequence) yet differ."""
        d8 = families.dihedral(4)
        q8 = families.generalized_quaternion(8)
        assert d8.center().size == q8.center().size
        assert len(d8.beta_classes()) == len(q8.beta_classes())
        assert degree_sequence(graph.build_graph(d8)) == degree_sequence(graph.build_graph(q8))
        assert not core.is_isomorphic(d8, q8)


# (family, its int64 constructor from tests/oracles.py, argument tuples)
INT64_ORACLES = {
    "cyclic": (families.cyclic, oracles.parent_cyclic, [(n,) for n in [*range(1, 131), 1024]]),
    "dihedral": (families.dihedral, oracles.parent_dihedral, [(m,) for m in [*range(2, 65), 512]]),
    "generalized_quaternion": (families.generalized_quaternion,
                               oracles.parent_generalized_quaternion,
                               [(1 << k,) for k in range(3, 11)]),
    "modular_M": (families.modular_M, oracles.parent_modular_M, [(1 << k,) for k in range(3, 11)]),
    "heisenberg": (families.heisenberg, oracles.parent_heisenberg, [(3,), (5,), (7,), (11,)]),
    "elementary_abelian": (families.elementary_abelian, oracles.parent_elementary_abelian,
                           [(2, k) for k in range(1, 10)] + [(3, k) for k in range(1, 6)]),
    "direct_product": (lambda: core.direct_product(families.dihedral(64), families.cyclic(5)),
                       lambda: oracles.parent_direct_product(oracles.parent_dihedral(64),
                                                             oracles.parent_cyclic(5)),
                       [()]),
}

PEAK_BUILDS = {
    "cyclic(1024)": lambda: families.cyclic(1024),
    "dihedral(512)": lambda: families.dihedral(512),
    "modular_M(512)": lambda: families.modular_M(512),
    "heisenberg(7)": lambda: families.heisenberg(7),
    "elementary_abelian(2, 9)": lambda: families.elementary_abelian(2, 9),
    "dihedral(64) x cyclic(5)": lambda: core.direct_product(families.dihedral(64),
                                                            families.cyclic(5)),
}


class TestInt32Tables:
    @pytest.mark.parametrize("family", list(INT64_ORACLES))
    def test_match_the_int64_constructors(self, family):
        build, oracle, cases = INT64_ORACLES[family]
        for args in cases:
            g, ref = build(*args), oracle(*args)
            assert (g.table == ref.table).all() and g.labels == ref.labels, args
            t = g.table
            assert t.dtype == np.int32 and t.flags.c_contiguous and not t.flags.writeable, args
            again = core.from_table(t.tolist(), g.labels)
            assert (again.table == t).all() and again.labels == g.labels, args

    @pytest.mark.parametrize("name", list(PEAK_BUILDS))
    def test_construction_peak_memory(self, name):
        # the finished table, at most one n x n int32 buffer beside it, and
        # n^2 bytes of boolean scratch
        tracemalloc.start()
        try:
            g = PEAK_BUILDS[name]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * g.table.nbytes + g.order ** 2, (name, peak)
