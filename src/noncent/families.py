"""Direct table constructors for the standard small-group families.

These are built straight from normal forms (not via coset enumeration), so
they double as independent oracles for the presentation machinery.
"""

from __future__ import annotations

import numpy as np

from .core import FiniteGroup, check_table_budget, from_table, direct_product, is_prime

__all__ = [
    "cyclic",
    "elementary_abelian",
    "dihedral",
    "generalized_quaternion",
    "modular_M",
    "heisenberg",
]


def cyclic(n: int) -> FiniteGroup:
    """C_n as addition mod n."""
    if n < 1:
        raise ValueError("cyclic order must be >= 1")
    check_table_budget(n)
    idx = np.arange(n)
    table = idx[:, None] + idx
    table[table >= n] -= n
    labels = ["e"] + [f"a{i}" if i > 1 else "a" for i in range(1, n)]
    return from_table(table, labels[:n])


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    """Direct product of k copies of C_p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("need k >= 1")
    check_table_budget(p ** k)
    g = cyclic(p)
    for _ in range(k - 1):
        g = direct_product(g, cyclic(p))
    return g


def _split_grid(n: int, m: int):
    """(fa, ia, fb, ib) with divmod(a, m) = (fa, ia) down the rows and
    divmod(b, m) = (fb, ib) across the columns of an n x n grid."""
    f, i = np.divmod(np.arange(n), m)
    return f[:, None], i[:, None], f[None, :], i[None, :]


def dihedral(m: int) -> FiniteGroup:
    """Dihedral group of order 2m: <r, s | r^m = s^2 = e, s r s = r^-1>.

    Element i < m is r^i; element m + i is s * r^i.
    """
    if m < 2:
        raise ValueError("dihedral needs m >= 2")
    check_table_budget(2 * m)
    fa, ia, fb, ib = _split_grid(2 * m, m)
    # (s^fa r^ia)(s^fb r^ib): pushing r^ia past s flips its sign
    table = (fa ^ fb) * m + np.where(fb == 1, ib - ia, ia + ib) % m
    labels = ["e"] + [f"r{i}" if i > 1 else "r" for i in range(1, m)]
    labels += ["s"] + [f"sr{i}" if i > 1 else "sr" for i in range(1, m)]
    return from_table(table, labels)


def generalized_quaternion(order: int) -> FiniteGroup:
    """Q_{2^k}: <a, b | a^{2^{k-1}} = e, b^2 = a^{2^{k-2}}, b a b^-1 = a^-1>.

    Element i < m = 2^{k-1} is a^i; element m + i is b * a^i.
    """
    k = order.bit_length() - 1
    if order != 1 << k or k < 3:
        raise ValueError("generalized quaternion is defined for orders 2^k, k >= 3")
    check_table_budget(order)
    m = order // 2
    half = m // 2  # b^2 = a^half
    fa, ia, fb, ib = _split_grid(order, m)
    # as in the dihedral case, plus b^2 = a^half when both factors carry b
    table = (fa ^ fb) * m + np.where(fb == 1, ib - ia + half * fa, ia + ib) % m
    labels = ["e"] + [f"a{i}" if i > 1 else "a" for i in range(1, m)]
    labels += ["b"] + [f"ba{i}" if i > 1 else "ba" for i in range(1, m)]
    return from_table(table, labels)


def modular_M(order: int) -> FiniteGroup:
    """Modular maximal-cyclic group of order 2^k, k >= 3:
    <a, b | a^{2^{k-1}} = b^2 = e, b a b = a^{2^{k-2}+1}>.
    """
    k = order.bit_length() - 1
    if order != 1 << k or k < 3:
        raise ValueError("modular_M is defined for orders 2^k, k >= 3")
    check_table_budget(order)
    m = order // 2
    t = m // 2 + 1  # b a b = a^t
    fa, ia, fb, ib = _split_grid(order, m)
    # a^ia b = b a^{ia*t}, so (b^fa a^ia)(b a^ib) = b^{fa+1} a^{ia*t+ib}
    table = (fa ^ fb) * m + (np.where(fb == 1, ia * t, ia) + ib) % m
    labels = ["e"] + [f"a{i}" if i > 1 else "a" for i in range(1, m)]
    labels += ["b"] + [f"ba{i}" if i > 1 else "ba" for i in range(1, m)]
    return from_table(table, labels)


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
    a, r = np.divmod(np.arange(n), p * p)
    b, c = np.divmod(r, p)
    a1, b1, c1 = a[:, None], b[:, None], c[:, None]
    a2, b2, c2 = a[None, :], b[None, :], c[None, :]
    table = ((a1 + a2) % p) * p * p + ((b1 + b2) % p) * p + (c1 + c2 + a1 * b2) % p
    labels = [f"t({x // (p * p)},{(x // p) % p},{x % p})" for x in range(n)]
    return from_table(table, labels)
