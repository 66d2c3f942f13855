"""Direct table constructors for the standard small-group families.

These are built straight from normal forms (not via coset enumeration), so
they double as independent oracles for the presentation machinery.  Each is
computed in one int32 buffer, which from_table's checks validate in place.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import FiniteGroup, _adopt_table, check_table_budget, direct_product, is_prime

__all__ = [
    "cyclic",
    "elementary_abelian",
    "dihedral",
    "generalized_quaternion",
    "modular_M",
    "heisenberg",
]


def cyclic(n: int) -> FiniteGroup:
    """C_n as addition mod n: row i is the window i..i+n-1 of (0..2n-2) mod n."""
    if n < 1:
        raise ValueError("cyclic order must be >= 1")
    check_table_budget(n)
    table = sliding_window_view(np.arange(2 * n - 1, dtype=np.int32) % n, n).copy()
    labels = ["e"] + [f"a{i}" if i > 1 else "a" for i in range(1, n)]
    return _adopt_table(table, labels[:n])


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    """Direct product of k copies of C_p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("need k >= 1")
    check_table_budget(p ** k)
    return direct_product(*[cyclic(p)] * k)


def _cyclic_by_c2(m: int, twist: int, b_square: int = 0) -> np.ndarray:
    """int32 table of <a, b | a^m, b^2 = a^b_square, a b = b a^twist> on the
    elements b^f a^i, indexed f*m + i: (b^fx a^ix)(b^fy a^iy) is
    b^(fx^fy) a^(ix*twist^fy + iy + b_square*fx*fy), built in place."""
    i = np.arange(2 * m, dtype=np.int32) % m
    k = np.ones(2 * m, dtype=np.int32)
    k[m:] = twist
    table = np.multiply.outer(i, k)
    table += i
    table[m:, m:] += b_square
    table %= m
    table[:m, m:] += m
    table[m:, :m] += m
    return table


def dihedral(m: int) -> FiniteGroup:
    """Dihedral group of order 2m: <r, s | r^m = s^2 = e, s r s = r^-1>.

    Element i < m is r^i; element m + i is s * r^i.
    """
    if m < 2:
        raise ValueError("dihedral needs m >= 2")
    check_table_budget(2 * m)
    labels = ["e"] + [f"r{i}" if i > 1 else "r" for i in range(1, m)]
    labels += ["s"] + [f"sr{i}" if i > 1 else "sr" for i in range(1, m)]
    return _adopt_table(_cyclic_by_c2(m, -1), labels)


def generalized_quaternion(order: int) -> FiniteGroup:
    """Q_{2^k}: <a, b | a^{2^{k-1}} = e, b^2 = a^{2^{k-2}}, b a b^-1 = a^-1>.

    Element i < m = 2^{k-1} is a^i; element m + i is b * a^i.
    """
    k = order.bit_length() - 1
    if order != 1 << k or k < 3:
        raise ValueError("generalized quaternion is defined for orders 2^k, k >= 3")
    check_table_budget(order)
    m = order // 2
    labels = ["e"] + [f"a{i}" if i > 1 else "a" for i in range(1, m)]
    labels += ["b"] + [f"ba{i}" if i > 1 else "ba" for i in range(1, m)]
    return _adopt_table(_cyclic_by_c2(m, -1, m // 2), labels)


def modular_M(order: int) -> FiniteGroup:
    """Modular maximal-cyclic group of order 2^k, k >= 3:
    <a, b | a^{2^{k-1}} = b^2 = e, b a b = a^{2^{k-2}+1}>.
    """
    k = order.bit_length() - 1
    if order != 1 << k or k < 3:
        raise ValueError("modular_M is defined for orders 2^k, k >= 3")
    check_table_budget(order)
    m = order // 2
    labels = ["e"] + [f"a{i}" if i > 1 else "a" for i in range(1, m)]
    labels += ["b"] + [f"ba{i}" if i > 1 else "ba" for i in range(1, m)]
    return _adopt_table(_cyclic_by_c2(m, m // 2 + 1), labels)


def heisenberg(p: int) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over F_p (odd p): extraspecial of
    order p^3 and exponent p.

    Element index encodes the matrix entries as a*p^2 + b*p + c for
    [[1, a, c], [0, 1, b], [0, 0, 1]].
    """
    if not is_prime(p) or p == 2:
        raise ValueError("heisenberg needs an odd prime")
    n = p ** 3
    check_table_budget(n)
    a, b = np.divmod(np.arange(p * p, dtype=np.int32), p)  # u = a*p + b
    c = b[:p]
    # the table on axes (u1, c1, u2, c2): c1 + c2 + a1*b2 mod p, then the
    # (a, b) part adds as in C_p x C_p
    table = np.empty((p * p, p, p * p, p), dtype=np.int32)
    np.add(np.multiply.outer(a, b)[:, None, :, None], np.add.outer(c, c)[None, :, None, :],
           out=table)
    table %= p
    table += (np.add.outer(a, a) % p * p + np.add.outer(b, b) % p)[:, None, :, None] * p
    labels = [f"t({x // (p * p)},{(x // p) % p},{x % p})" for x in range(n)]
    return _adopt_table(table.reshape(n, n), labels)
