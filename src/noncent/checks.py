"""Executable verifiers for the structure theory of regular and induced
regular groups.

Every check takes a group, decides whether the statement's hypotheses apply,
and measures the claimed conclusion, returning a CheckResult rather than
asserting: on user catalogs a failure usually means bad catalog data, and on
curated data a failure would be a falsification witness, so full measured
context is always reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Iterable, Optional

import numpy as np

from .core import (FiniteGroup, _cached, _prime_factors, _quotient_histogram, is_prime,
                   is_prime_power)
from . import analysis

__all__ = ["CheckResult", "CHECK_IDS", "run_suite", "run_check",
           "scan_conjecture_tconj", "scan_conjecture_lco",
           "failures", "format_results", "results_to_kv"]


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    group_label: str
    applicable: bool
    passed: bool
    witness: tuple = ()
    details: dict = field(default_factory=dict)
    reason: str = ""

    def line(self) -> str:
        if not self.applicable:
            status = "n/a "
        else:
            status = "pass" if self.passed else "FAIL"
        extra = f" ({self.reason})" if self.reason else ""
        return f"{status}  {self.check_id:<14} {self.group_label}{extra}"


def _na(cid, label, reason) -> CheckResult:
    return CheckResult(cid, label, False, True, (), {}, reason)


def _result(cid, label, passed, witness=(), details=None, reason="") -> CheckResult:
    return CheckResult(cid, label, True, bool(passed), () if passed else tuple(witness),
                       details or {}, reason)


def _index(g: FiniteGroup) -> int:
    """[G:Z(G)]."""
    return g.order // int(g.beta_class_sizes()[0])


@_cached
def _centralizer_rows(g: FiniteGroup) -> np.ndarray:
    """The mask of C(x) for one member x of each beta class, indexed by class
    id: a commuting-matrix row."""
    return g.commuting_matrix()[[c[0] for c in g.beta_classes()]]


def _centralizer_indices(g: FiniteGroup) -> list[int]:
    """Distinct indices [G:C(x)] over the non-central beta classes, ascending."""
    return sorted(set((g.order // _centralizer_rows(g)[1:].sum(axis=1)).tolist()))


@_cached
def _quotient_exponent(g: FiniteGroup) -> Optional[int]:
    """The prime p when every non-central element has coset order p, that is
    when G/Z(G) is an elementary p-group; None otherwise."""
    orders = g.center_coset_orders()
    p = int(orders.max())
    return p if is_prime(p) and bool((orders[orders > 1] == p).all()) else None


@_cached
def _center_histogram(g: FiniteGroup) -> tuple[tuple[int, int], ...]:
    """order_histogram of G/Z(G)."""
    return _quotient_histogram(g.center_coset_orders(), g.beta_class_sizes()[0])


def _embeds_in_center(g: FiniteGroup, cents: np.ndarray) -> np.ndarray:
    """For each row C of cents, a normal centralizer with G/C abelian:
    whether G/C embeds in Z(G), by the Omega-counts of check_ncen."""
    n, central = g.order, g.beta_class_ids() == 0
    ok = np.ones(len(cents), dtype=bool)
    for p, e in _prime_factors(n).items():
        pw = g.power_maps(p)  # x -> x^(p^k) for k = 0..e
        # hits[k, y]: the x with x^(p^k) = y; a[c, k]: |C| |Omega_k(G/C)| for row c
        hits = np.bincount((pw + n * np.arange(e + 1)[:, None]).ravel(), minlength=(e + 1) * n)
        a = cents @ hits.reshape(e + 1, n).T.astype(np.int32)  # cents is cast to int32
        b = np.count_nonzero(pw[:, central] == 0, axis=1)  # |Omega_k(Z)|
        ok &= (a[:, 1:] * b[:-1] <= b[1:] * a[:, :-1]).all(axis=1)
    return ok


@_cached
def _exceeds_beta_z(g: FiniteGroup) -> np.ndarray:
    """Per class id: whether C(x), which contains beta(x) u Z(G), exceeds it."""
    ids = g.beta_class_ids()
    cents = _centralizer_rows(g)
    return (cents != ((ids == np.arange(len(cents))[:, None]) | (ids == 0))).any(axis=1)


def _first_open(g: FiniteGroup, cids: list[int]) -> Optional[tuple[int, str]]:
    """The first class in cids whose beta(x) u Z(G) is not a subgroup, with
    h_subgroup's message, or None; one gather per class size (see check_lg)."""
    ids, classes, found = g.beta_class_ids(), g.beta_classes(), []
    sizes = g.beta_class_sizes().tolist()
    for size in sorted({sizes[c] for c in cids}):
        same = np.array([c for c in cids if sizes[c] == size])
        members = np.array([classes[c] for c in same])
        prod = ids[g.table[members[:, :, None], members[:, None, :]]]
        found += same[((prod != same[:, None, None]) & (prod != 0)).any(axis=(1, 2))].tolist()
    for cid in sorted(found):
        try:
            analysis.h_subgroup(g, cid)
        except analysis.NotASubgroup as exc:
            return cid, str(exc)
    return None


def _witness_rows(g: FiniteGroup, cids: list[int]) -> np.ndarray:
    """Per class id in cids: C(x) minus beta(x), prime coset orders only;
    is_prime runs once per distinct order."""
    ids, orders = g.beta_class_ids(), g.center_coset_orders()
    vals = np.flatnonzero(np.bincount(orders))
    prime = np.zeros(vals[-1] + 1, dtype=bool)
    prime[vals] = [is_prime(v) for v in vals.tolist()]
    return _centralizer_rows(g)[cids] & (ids != np.array(cids)[:, None]) & prime[orders]


# --- section 2: the full graph ------------------------------------------------

def check_be0(g, label="G") -> CheckResult:
    """Non-abelian groups have at least four distinct centralizers."""
    if g.is_abelian:
        return _na("be0", label, "abelian")
    n = len(g.beta_classes())
    return _result("be0", label, n >= 4, witness=(("cent_count", n),),
                   details={"cent_count": n})


def check_be(g, label="G") -> CheckResult:
    """G/Z isomorphic to Cp x Cp forces exactly p + 2 centralizers."""
    if g.is_abelian:
        return _na("be", label, "abelian")
    p = _quotient_exponent(g)
    if p is None or _index(g) != p * p:
        return _na("be", label, "G/Z not of shape Cp x Cp")
    n = len(g.beta_classes())
    return _result("be", label, n == p + 2, witness=(("cent_count", n), ("p", p)),
                   details={"p": p, "cent_count": n, "expected": p + 2})


def check_ba(g, label="G") -> CheckResult:
    """Index p^3 over the center: |Cent| is p^2+p+2 when every non-central
    centralizer has index p^2, else p^2+2."""
    if g.is_abelian:
        return _na("ba", label, "abelian")
    pk = is_prime_power(_index(g))
    fac_p = min(_prime_factors(g.order))
    if pk is None or pk[1] != 3 or pk[0] != fac_p:
        return _na("ba", label, "[G:Z] is not p^3 for the smallest prime p")
    p = pk[0]
    indices = _centralizer_indices(g)
    expected = p * p + p + 2 if indices == [p * p] else p * p + 2
    n = len(g.beta_classes())
    return _result("ba", label, n == expected,
                   witness=(("cent_count", n), ("indices", tuple(indices))),
                   details={"p": p, "indices": tuple(indices),
                            "expected": expected, "cent_count": n})


def check_ereg1(g, label="G") -> CheckResult:
    """Regular iff every class is exactly one center coset (both directions)."""
    if g.is_abelian:
        return _na("ereg1", label, "abelian")
    lhs = analysis.is_regular(g) is not None
    ids, coset = g.beta_class_ids(), g.center().coset_index()
    # C(xz) = C(x) for central z, so a class is a union of center cosets and
    # is one coset exactly when every member lies in its first member's coset
    bad = ids[coset != coset[[c[0] for c in g.beta_classes()]][ids]]
    rhs = bad.size == 0
    bad = None if rhs else int(bad.min())
    return _result("ereg1", label, lhs == rhs,
                   witness=(("regular", lhs), ("all_classes_are_cosets", rhs),
                            ("first_non_coset_class", bad)),
                   details={"regular": lhs, "all_classes_are_cosets": rhs})


def check_ereg2(g, label="G") -> CheckResult:
    """Regular iff the number of centralizers equals [G:Z] (both directions)."""
    if g.is_abelian:
        return _na("ereg2", label, "abelian")
    lhs = analysis.is_regular(g) is not None
    n, index = len(g.beta_classes()), _index(g)
    return _result("ereg2", label, lhs == (n == index),
                   witness=(("regular", lhs), ("cent_count", n), ("index", index)),
                   details={"cent_count": n, "index": index})


def check_creg(g, label="G") -> CheckResult:
    """Regular groups have elementary abelian 2-group central quotients."""
    if g.is_abelian or analysis.is_regular(g) is None:
        return _na("creg", label, "not a non-abelian regular group")
    return _result("creg", label, _quotient_exponent(g) == 2,
                   witness=(("quotient_order_histogram", _center_histogram(g)),),
                   details={"quotient_order": _index(g)})


def check_ccreg_c2c2(g, label="G") -> CheckResult:
    """G/Z isomorphic to C2 x C2 forces regularity."""
    if g.is_abelian:
        return _na("ccreg_c2c2", label, "abelian")
    if _index(g) != 4 or _quotient_exponent(g) != 2:
        return _na("ccreg_c2c2", label, "G/Z not C2 x C2")
    deg = analysis.is_regular(g)
    return _result("ccreg_c2c2", label, deg is not None,
                   witness=(("class_sizes", tuple(g.beta_class_sizes().tolist())),),
                   details={"degree": deg})


def check_ccreg_c2cubed(g, label="G") -> CheckResult:
    """Under G/Z = C2^3: regular iff every non-central centralizer has index 4."""
    if g.is_abelian:
        return _na("ccreg_c2cubed", label, "abelian")
    if _index(g) != 8 or _quotient_exponent(g) != 2:
        return _na("ccreg_c2cubed", label, "G/Z not C2 x C2 x C2")
    lhs = analysis.is_regular(g) is not None
    indices = _centralizer_indices(g)
    rhs = indices == [4]
    return _result("ccreg_c2cubed", label, lhs == rhs,
                   witness=(("regular", lhs), ("indices", tuple(indices))),
                   details={"regular": lhs, "indices": tuple(indices)})


def check_ncen(g, label="G") -> CheckResult:
    """In regular groups every centralizer is normal with G/C embedding in Z.

    C = C(x) is normal with G/C abelian exactly when C contains G' (every
    subgroup above G' is; an abelian G/C kills every commutator), and, C
    being a subgroup, when it holds every commutator: one gather over the
    commutator set decides that for every class, without building G'.

    With Omega_k the elements whose order divides p^k, abelian A embeds in
    abelian B exactly when |Omega_k(A)|/|Omega_k-1(A)| <= |Omega_k(B)|/
    |Omega_k-1(B)| for every prime p and k >= 1, each ratio being p to the
    number of cyclic factors of order at least p^k (Macdonald, Symmetric
    Functions and Hall Polynomials, ch. II; the counts alone do not decide
    it: C4 and C2 x C2).  The x with x^(p^k) in C are |C| times
    Omega_k(G/C), counted for every class at once from the histogram of the
    power map.  A p not dividing |G/C|, or a k past its exponent, leaves
    Omega_k(G/C) = Omega_k-1(G/C) while Omega_k(Z) only grows, so running
    p^k over every prime power dividing |G| is exact.
    """
    if g.is_abelian or analysis.is_regular(g) is None:
        return _na("ncen", label, "not a non-abelian regular group")
    cents = _centralizer_rows(g)[1:]
    above = cents[:, g._commutators()].all(axis=1)
    bad = np.flatnonzero(~(above & _embeds_in_center(g, cents)))
    if not bad.size:
        return _result("ncen", label, True, details={"classes_checked": len(cents)})
    cid, inside = int(bad[0]) + 1, cents[bad[0]]
    if not above[bad[0]]:
        normal = g.is_normal(g.centralizer(g.beta_classes()[cid][0]))
        return _result("ncen", label, False, witness=(
            ("class", cid), ("quotient_abelian" if normal else "normal", False)))
    hist = _quotient_histogram(g.orders_modulo(inside), np.count_nonzero(inside))
    return _result("ncen", label, False, witness=(("class", cid), ("quotient_histogram", hist)))


def check_preg(g, label="G") -> CheckResult:
    """The degree of a regular graph on a non-abelian group is never a prime
    power."""
    n = analysis.is_regular(g)
    if g.is_abelian or n is None:
        return _na("preg", label, "not a non-abelian regular group")
    pk = is_prime_power(n)
    return _result("preg", label, pk is None, witness=(("degree", n), ("prime_power", pk)),
                   details={"degree": n})


def check_bound(g, label="G") -> CheckResult:
    """For n-regular non-abelian groups: n even, 8 divides |G|, and
    n+2 <= |G| <= 4n/3."""
    n = analysis.is_regular(g)
    if g.is_abelian or n is None:
        return _na("bound", label, "not a non-abelian regular group")
    order = g.order
    ok = (n % 2 == 0) and (order % 8 == 0) and (n + 2 <= order) and (3 * order <= 4 * n)
    return _result("bound", label, ok, witness=(("degree", n), ("order", order)),
                   details={"degree": n, "order": order})


@_cached
def _p_part_decomposition(g: FiniteGroup, p: int):
    """Split G as (p-elements) x (central p'-part): (|H|, |A|), or None with
    a witness when the p-elements fail to form a subgroup of the right order.

    The p-elements, the x with x^(p^a) = 1 for p^a the p-part of |G|, hold
    the identity, so one gather of their products decides whether they form
    a subgroup H; when they are all of G it is true on every table (G is
    closed under products), so it runs only when H != G.  A, the p'-elements
    of the abelian Z(G) = Z_p x Z_p', is one without a test (commuting
    p'-elements multiply to one), and |A| = |Z|/|Z_p| with Z_p = Z n H.  H
    holds only p-elements and A only p'-elements, so H n A = 1.
    """
    p_elems = g.p_element_mask(p)
    h = np.flatnonzero(p_elems)
    if h.size < g.order and not p_elems[g.table[np.ix_(h, h)]].all():
        return None, (("p_elements_closed", False),)
    a = int(g.beta_class_sizes()[0]) // int(np.count_nonzero(p_elems[g.beta_class_ids() == 0]))
    if h.size * a != g.order:
        return None, (("sizes", (h.size, a)),)
    return (h.size, a), ()


def check_big(g, label="G") -> CheckResult:
    """Regular groups split as (regular 2-group) x (odd abelian).

    _p_part_decomposition finds H, the 2-elements, checked to be a subgroup
    (so normal: conjugation keeps element orders), and A, the central
    elements of odd order, with H n A = 1 and |H||A| = |G|.  As A is central,
    (h, a) -> h*a is a homomorphism H x A -> G; H n A = 1 makes it
    injective, and |H||A| = |G| onto.  So G = H x A, and |A| is odd: by
    Cauchy's theorem an even |A| would put an element of order 2 in A.  H is
    regular because G is, so nothing is left to measure: with A central,
    C_G(ha) = C_H(h) x A, so beta_G(ha) = beta_H(h) x A and Z(G) = Z(H) x A,
    every class of G has |Z(G)| members exactly when every class of H has
    |Z(H)|, and deg H = |H| - |Z(H)| = deg G / |A|.
    """
    deg = analysis.is_regular(g)
    if g.is_abelian or deg is None:
        return _na("big", label, "not a non-abelian regular group")
    split, witness = _p_part_decomposition(g, 2)
    if split is None:
        return _result("big", label, False, witness=witness)
    h, a = split
    return _result("big", label, True, details={
        "sylow2_order": h, "abelian_order": a, "sylow2_degree": deg // a})


# --- section 3: the induced graph ----------------------------------------------

def check_lg(g, label="G") -> CheckResult:
    """beta(x) union Z(G) is a subgroup whenever C(x) is maximal.

    A class is a union of center cosets (C(xz) = C(x) for central z), so
    Z beta(x) and beta(x) Z lie in beta(x) and Z Z in Z: beta(x) u Z, which
    holds the identity, is a subgroup exactly when every product of two
    members of beta(x) lands in beta(x) or in Z.  _first_open tests that for
    all maximal classes of one size by one gather.
    """
    if g.is_abelian:
        return _na("lg", label, "abelian")
    maximal = list(g.maximal_class_ids())
    bad = _first_open(g, maximal)
    if bad:
        return _result("lg", label, False, witness=(("class", bad[0]), ("error", bad[1])))
    return _result("lg", label, True, details={"maximal_classes": len(maximal)})


def check_lg1(g, label="G") -> CheckResult:
    """Induced regular with C(x) strictly above beta(x) u Z: some y in
    C(x) minus beta(x) has prime coset order."""
    if g.is_abelian or analysis.is_induced_regular(g) is None:
        return _na("lg1", label, "not induced regular")
    exceeds = _exceeds_beta_z(g)
    strict = [cid for cid in g.maximal_class_ids() if exceeds[cid]]
    if not strict:
        return _na("lg1", label, "no maximal centralizer exceeds beta u Z")
    rows = _witness_rows(g, strict)
    found = rows.any(axis=1)
    if not found.all():
        return _result("lg1", label, False, witness=(("class", strict[int(np.argmin(found))]),))
    return _result("lg1", label, True,
                   details={"witnesses": dict(zip(strict, rows.argmax(axis=1).tolist()))})


def check_lg2(g, label="G") -> CheckResult:
    """Odd-prime coset-order witness in C(x) minus beta(x) forces
    (beta(x) u Z)/Z to be an elementary p-group: in G/Z its non-identity
    elements are the cosets of beta(x), so each member of beta(x) must have
    coset order p."""
    if g.is_abelian or analysis.is_induced_regular(g) is None:
        return _na("lg2", label, "not induced regular")
    ids, coset_orders = g.beta_class_ids(), g.center_coset_orders()
    maximal = list(g.maximal_class_ids())
    rows = _witness_rows(g, maximal) & (coset_orders != 2)
    witnessed = [cid for cid, row in zip(maximal, rows) if row.any()]
    if not witnessed:
        return _na("lg2", label, "no odd-prime coset-order witness")
    bad = _first_open(g, witnessed) or (None, "")
    for cid, row in zip(maximal, rows):
        if cid == bad[0]:
            return _result("lg2", label, False, witness=(("class", cid), ("error", bad[1])))
        for p in np.flatnonzero(np.bincount(coset_orders[row])).tolist():
            if (coset_orders[ids == cid] != p).any():
                hist = _quotient_histogram(coset_orders[(ids == cid) | (ids == 0)],
                                           g.beta_class_sizes()[0])
                return _result("lg2", label, False, witness=(
                    ("class", cid), ("p", p), ("hx_quotient_histogram", hist)))
    return _result("lg2", label, True)


def check_mg(g, label="G") -> CheckResult:
    """Induced regular groups have prime-power central quotients."""
    if g.is_abelian or analysis.is_induced_regular(g) is None:
        return _na("mg", label, "not a non-abelian induced regular group")
    index = _index(g)
    pk = is_prime_power(index)
    return _result("mg", label, pk is not None, witness=(("quotient_order", index),),
                   details={"quotient_order": index, "p": pk[0] if pk else None})


def check_pq_index(g, label="G") -> CheckResult:
    """[G:Z] = p^q with q prime (induced regular): G/Z is elementary p and
    every class has size (p-1)|Z|."""
    if g.is_abelian or analysis.is_induced_regular(g) is None:
        return _na("pq_index", label, "not induced regular")
    pk = is_prime_power(_index(g))
    if pk is None or not is_prime(pk[1]):
        return _na("pq_index", label, "[G:Z] not p^q with q prime")
    p, _ = pk
    elem_ok = _quotient_exponent(g) == p
    zsize, *rest = g.beta_class_sizes().tolist()
    sizes = tuple(sorted(set(rest)))
    sizes_ok = sizes == ((p - 1) * zsize,)
    return _result("pq_index", label, elem_ok and sizes_ok,
                   witness=(("elementary", elem_ok), ("class_sizes", sizes)),
                   details={"p": p, "expected_class_size": (p - 1) * zsize})


def check_cmg(g, label="G") -> CheckResult:
    """Odd-order induced regular groups with every C(x) above beta u Z have
    elementary p-group central quotients."""
    if g.is_abelian or analysis.is_induced_regular(g) is None:
        return _na("cmg", label, "not induced regular")
    if g.order % 2 == 0:
        return _na("cmg", label, "even order")
    if not _exceeds_beta_z(g)[1:].all():
        return _na("cmg", label, "some centralizer equals beta u Z")
    return _result("cmg", label, _quotient_exponent(g) is not None,
                   witness=(("quotient_histogram", _center_histogram(g)),))


def check_pp(g, label="G") -> CheckResult:
    """G/Z isomorphic to Cp x Cp forces induced regularity."""
    if g.is_abelian:
        return _na("pp", label, "abelian")
    p = _quotient_exponent(g)
    if p is None or _index(g) != p * p:
        return _na("pp", label, "G/Z not of shape Cp x Cp")
    deg = analysis.is_induced_regular(g)
    return _result("pp", label, deg is not None,
                   witness=(("class_sizes", tuple(g.beta_class_sizes().tolist())),),
                   details={"p": p, "induced_degree": deg})


def check_big1(g, label="G") -> CheckResult:
    """Induced regular groups split as (induced regular p-group) x abelian.

    With p the prime of [G:Z], _p_part_decomposition finds H, the
    p-elements, checked to be a subgroup (so normal), and A, the central
    p'-elements, with H n A = 1 and |H||A| = |G|; as in check_big,
    (h, a) -> h*a is then an isomorphism H x A -> G.  H is a p-group, as by
    Cauchy's theorem any other prime dividing |H| would give it an element
    of that order.  H is induced regular because G is: as in check_big, the
    non-central classes of G are the beta_H(h) x A with h outside Z(H), so
    they share one size exactly when those of H do.
    """
    if g.is_abelian or analysis.is_induced_regular(g) is None:
        return _na("big1", label, "not a non-abelian induced regular group")
    pk = is_prime_power(_index(g))
    if pk is None:
        return _result("big1", label, False,
                       witness=(("central_quotient_not_p_group", _index(g)),))
    p = pk[0]
    split, witness = _p_part_decomposition(g, p)
    if split is None:
        return _result("big1", label, False, witness=witness)
    h, a = split
    return _result("big1", label, True, details={"p": p, "p_part_order": h, "abelian_order": a})


# --- conjecture scans -----------------------------------------------------------

def scan_conjecture_tconj(g, label="G") -> CheckResult:
    """Flag any regular group whose degree is prime (none should exist)."""
    deg = analysis.is_regular(g)
    if g.is_abelian or deg is None:
        return _na("tconj", label, "not a non-abelian regular group")
    return _result("tconj", label, not is_prime(deg), witness=(("degree", deg),),
                   details={"degree": deg})


def scan_conjecture_lco(g, label="G") -> CheckResult:
    """Report whether G/Z is an elementary p-group for induced regular G.

    Open conjecture: counterexamples are flagged in the details, never
    asserted as failures.
    """
    if g.is_abelian or analysis.is_induced_regular(g) is None:
        return _na("lco", label, "not a non-abelian induced regular group")
    p = _quotient_exponent(g)
    status = "consistent" if p is not None else "COUNTEREXAMPLE CANDIDATE"
    return _result("lco", label, True,
                   details={"elementary_p": p, "status": status,
                            "quotient_histogram": _center_histogram(g)},
                   reason=status)


CHECK_IDS: dict[str, Callable] = {
    "be0": check_be0, "be": check_be, "ba": check_ba, "ereg1": check_ereg1,
    "ereg2": check_ereg2, "creg": check_creg, "ccreg_c2c2": check_ccreg_c2c2,
    "ccreg_c2cubed": check_ccreg_c2cubed, "ncen": check_ncen, "preg": check_preg,
    "bound": check_bound, "big": check_big, "lg": check_lg, "lg1": check_lg1,
    "lg2": check_lg2, "mg": check_mg, "pq_index": check_pq_index, "cmg": check_cmg,
    "pp": check_pp, "big1": check_big1, "tconj": scan_conjecture_tconj,
    "lco": scan_conjecture_lco,
}

CONJECTURE_IDS = frozenset({"tconj", "lco"})


def run_check(check_id: str, g: FiniteGroup, label: str = "G") -> CheckResult:
    return run_suite([(label, g)], [check_id])[0]


def run_suite(groups: Iterable[tuple[str, FiniteGroup]],
              check_ids: Optional[Iterable[str]] = None) -> list[CheckResult]:
    """Run the selected checks over (label, group) pairs, group by group in
    input order and each group's in the given id order; an unknown id raises
    before the first pair is drawn.  Output is sorted stably by (group order,
    label, check id): the groups are sorted once, and each run of them with
    one order and label gives its results id by id."""
    ids = list(CHECK_IDS) if check_ids is None else list(dict.fromkeys(check_ids))
    for cid in ids:
        if cid not in CHECK_IDS:
            raise KeyError(f"unknown check id: {cid!r}")
    runs = [(g.order, label, [CHECK_IDS[cid](g, label) for cid in ids]) for label, g in groups]
    runs.sort(key=lambda run: run[:2])
    cols = sorted(range(len(ids)), key=ids.__getitem__)
    ties = [list(tie) for _, tie in groupby(runs, key=lambda run: run[:2])]
    return [run[2][j] for tie in ties for j in cols for run in tie]


def failures(results: list[CheckResult]) -> list[CheckResult]:
    """The applicable results that did not pass, conjecture scans excepted."""
    return [r for r in results if r.applicable and not r.passed
            and r.check_id not in CONJECTURE_IDS]


def format_results(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    failed = failures(results)
    lines.append(f"-- {len(results)} results, "
                 f"{sum(1 for r in results if r.applicable)} applicable, "
                 f"{len(failed)} failures")
    lines += [f"   witness {r.check_id} on {r.group_label}: {r.witness}" for r in failed]
    return "\n".join(lines)


def results_to_kv(results: list[CheckResult]) -> str:
    return "\n".join(
        f"check={r.check_id} group={r.group_label} "
        f"applicable={str(r.applicable).lower()} passed={str(r.passed).lower()}"
        + (f" reason={r.reason!r}" if r.reason else "") for r in results)
