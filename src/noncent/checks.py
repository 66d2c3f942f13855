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
from typing import Callable, Iterable, Optional

import numpy as np

from .core import (FiniteGroup, Subgroup, TooLarge, _prime_factors, all_subgroups,
                   direct_product, is_isomorphic, is_prime, is_prime_power)
from . import analysis
from .analysis import BetaPartition, beta_partition

__all__ = ["CheckResult", "CHECK_IDS", "run_suite", "run_check",
           "scan_conjecture_tconj", "scan_conjecture_lco",
           "format_results", "results_to_kv"]

ISO_CONFIRM_CAP = 128
EMBED_CAP = 128


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


class _Ctx:
    """Per-group cache shared by the checks."""

    def __init__(self, g: FiniteGroup, label: str):
        self.g = g
        self.label = label
        self._part: Optional[BetaPartition] = None
        self._gz = None
        self._coset_index = None
        self._maximal = None

    @property
    def part(self) -> BetaPartition:
        if self._part is None:
            self._part = beta_partition(self.g)
        return self._part

    @property
    def center(self) -> Subgroup:
        return self.part.center()

    @property
    def quotient_by_center(self) -> FiniteGroup:
        if self._gz is None:
            self._gz = self.g.quotient(self.center)
        return self._gz

    @property
    def coset_index(self):
        """Center coset of every element, numbered as in G/Z(G)."""
        if self._coset_index is None:
            self._coset_index = self.center.coset_index()
        return self._coset_index

    def coset_order(self, x: int) -> int:
        """Order of the image of x in G/Z(G)."""
        return self.quotient_by_center.element_order(int(self.coset_index[x]))

    def beta_mask(self, cid: int):
        """Membership mask of beta-class cid."""
        return np.asarray(self.part.class_of) == cid

    def beta_union_center(self, cid: int):
        """Membership mask of beta(x) union Z(G) for class cid."""
        return self.beta_mask(cid) | self.beta_mask(0)

    @property
    def maximal_classes(self):
        if self._maximal is None:
            self._maximal = analysis.maximal_centralizers(self.g, self.part)
        return self._maximal

    @property
    def cent_count(self) -> int:
        return self.part.cent_count

    @property
    def index(self) -> int:
        return self.g.order // self.center.size

    def regular_degree(self) -> Optional[int]:
        return analysis.is_regular(self.g)

    def induced_degree(self) -> Optional[int]:
        return analysis.is_induced_regular(self.g)


def _ctx(g, label):
    return g if isinstance(g, _Ctx) else _Ctx(g, label)


def _na(cid, ctx, reason) -> CheckResult:
    return CheckResult(cid, ctx.label, applicable=False, passed=True, reason=reason)


def _result(cid, ctx, passed, witness=(), details=None, reason="") -> CheckResult:
    return CheckResult(cid, ctx.label, applicable=True, passed=bool(passed),
                       witness=tuple(witness) if not passed else (),
                       details=details or {}, reason=reason)


def _elementary_abelian_quotient_prime(q: FiniteGroup) -> Optional[int]:
    """Prime p when q is elementary abelian of rank >= 1, else None."""
    if q.order == 1 or not q.is_abelian:
        return None
    return q.is_elementary_p()


# --- section 2: the full graph ------------------------------------------------

def check_be0(g, label="G") -> CheckResult:
    """Non-abelian groups have at least four distinct centralizers."""
    ctx = _ctx(g, label)
    if ctx.g.is_abelian:
        return _na("be0", ctx, "abelian")
    n = ctx.cent_count
    return _result("be0", ctx, n >= 4, witness=(("cent_count", n),),
                   details={"cent_count": n})


def check_be(g, label="G") -> CheckResult:
    """G/Z isomorphic to Cp x Cp forces exactly p + 2 centralizers."""
    ctx = _ctx(g, label)
    if ctx.g.is_abelian:
        return _na("be", ctx, "abelian")
    quo = ctx.quotient_by_center
    p = _elementary_abelian_quotient_prime(quo)
    if p is None or quo.order != p * p:
        return _na("be", ctx, "G/Z not of shape Cp x Cp")
    n = ctx.cent_count
    return _result("be", ctx, n == p + 2, witness=(("cent_count", n), ("p", p)),
                   details={"p": p, "cent_count": n, "expected": p + 2})


def check_ba(g, label="G") -> CheckResult:
    """Index p^3 over the center: |Cent| is p^2+p+2 when every non-central
    centralizer has index p^2, else p^2+2."""
    ctx = _ctx(g, label)
    if ctx.g.is_abelian:
        return _na("ba", ctx, "abelian")
    pk = is_prime_power(ctx.index)
    fac_p = min(_prime_factors(ctx.g.order))
    if pk is None or pk[1] != 3 or pk[0] != fac_p:
        return _na("ba", ctx, "[G:Z] is not p^3 for the smallest prime p")
    p = pk[0]
    indices = sorted({ctx.g.order // ctx.part.centralizer_of_class(cid).size
                      for cid in range(1, len(ctx.part.classes))})
    expected = p * p + p + 2 if indices == [p * p] else p * p + 2
    n = ctx.cent_count
    return _result("ba", ctx, n == expected,
                   witness=(("cent_count", n), ("indices", tuple(indices))),
                   details={"p": p, "indices": tuple(indices),
                            "expected": expected, "cent_count": n})


def check_ereg1(g, label="G") -> CheckResult:
    """Regular iff every class is exactly one center coset (both directions)."""
    ctx = _ctx(g, label)
    if ctx.g.is_abelian:
        return _na("ereg1", ctx, "abelian")
    lhs = ctx.regular_degree() is not None
    cidx = ctx.coset_index
    rhs = True
    bad = None
    for cid, members in enumerate(ctx.part.classes):
        coset = np.flatnonzero(cidx == cidx[members[0]])
        if tuple(coset.tolist()) != members:
            rhs = False
            bad = cid
            break
    return _result("ereg1", ctx, lhs == rhs,
                   witness=(("regular", lhs), ("all_classes_are_cosets", rhs),
                            ("first_non_coset_class", bad)),
                   details={"regular": lhs, "all_classes_are_cosets": rhs})


def check_ereg2(g, label="G") -> CheckResult:
    """Regular iff the number of centralizers equals [G:Z] (both directions)."""
    ctx = _ctx(g, label)
    if ctx.g.is_abelian:
        return _na("ereg2", ctx, "abelian")
    lhs = ctx.regular_degree() is not None
    rhs = ctx.cent_count == ctx.index
    return _result("ereg2", ctx, lhs == rhs,
                   witness=(("regular", lhs), ("cent_count", ctx.cent_count),
                            ("index", ctx.index)),
                   details={"cent_count": ctx.cent_count, "index": ctx.index})


def check_creg(g, label="G") -> CheckResult:
    """Regular groups have elementary abelian 2-group central quotients."""
    ctx = _ctx(g, label)
    if ctx.g.is_abelian or ctx.regular_degree() is None:
        return _na("creg", ctx, "not a non-abelian regular group")
    quo = ctx.quotient_by_center
    p = _elementary_abelian_quotient_prime(quo)
    return _result("creg", ctx, p == 2,
                   witness=(("quotient_order_histogram", quo.order_histogram()),),
                   details={"quotient_order": quo.order})


def check_ccreg_c2c2(g, label="G") -> CheckResult:
    """G/Z isomorphic to C2 x C2 forces regularity."""
    ctx = _ctx(g, label)
    if ctx.g.is_abelian:
        return _na("ccreg_c2c2", ctx, "abelian")
    quo = ctx.quotient_by_center
    if quo.order != 4 or _elementary_abelian_quotient_prime(quo) != 2:
        return _na("ccreg_c2c2", ctx, "G/Z not C2 x C2")
    deg = ctx.regular_degree()
    return _result("ccreg_c2c2", ctx, deg is not None,
                   witness=(("class_sizes", ctx.part.class_sizes()),),
                   details={"degree": deg})


def check_ccreg_c2cubed(g, label="G") -> CheckResult:
    """Under G/Z = C2^3: regular iff every non-central centralizer has index 4."""
    ctx = _ctx(g, label)
    if ctx.g.is_abelian:
        return _na("ccreg_c2cubed", ctx, "abelian")
    quo = ctx.quotient_by_center
    if quo.order != 8 or _elementary_abelian_quotient_prime(quo) != 2:
        return _na("ccreg_c2cubed", ctx, "G/Z not C2 x C2 x C2")
    lhs = ctx.regular_degree() is not None
    indices = sorted({ctx.g.order // ctx.part.centralizer_of_class(cid).size
                      for cid in range(1, len(ctx.part.classes))})
    rhs = indices == [4]
    return _result("ccreg_c2cubed", ctx, lhs == rhs,
                   witness=(("regular", lhs), ("indices", tuple(indices))),
                   details={"regular": lhs, "indices": tuple(indices)})


def check_ncen(g, label="G") -> CheckResult:
    """In regular groups every centralizer is normal with G/C embedding in Z."""
    ctx = _ctx(g, label)
    if ctx.g.is_abelian or ctx.regular_degree() is None:
        return _na("ncen", ctx, "not a non-abelian regular group")
    z_group = ctx.center.as_group()
    if z_group.order > EMBED_CAP:
        return _result("ncen", ctx, True,
                       reason="inconclusive: center above embedding cap")
    try:
        z_subs = all_subgroups(z_group)
    except TooLarge:
        return _result("ncen", ctx, True, reason="inconclusive: center too large "
                       "for subgroup enumeration")
    for cid in range(1, len(ctx.part.classes)):
        cent = ctx.part.centralizer_of_class(cid)
        if not ctx.g.is_normal(cent):
            return _result("ncen", ctx, False,
                           witness=(("class", cid), ("normal", False)))
        quo = ctx.g.quotient(cent)
        if not quo.is_abelian:
            return _result("ncen", ctx, False,
                           witness=(("class", cid), ("quotient_abelian", False)))
        embeds = any(s.size == quo.order and is_isomorphic(s.as_group(), quo)
                     for s in z_subs)
        if not embeds:
            return _result("ncen", ctx, False,
                           witness=(("class", cid),
                                    ("quotient_histogram", quo.order_histogram())))
    return _result("ncen", ctx, True,
                   details={"classes_checked": len(ctx.part.classes) - 1})


def check_preg(g, label="G") -> CheckResult:
    """The degree of a regular graph on a non-abelian group is never a prime
    power."""
    ctx = _ctx(g, label)
    if ctx.g.is_abelian or ctx.regular_degree() is None:
        return _na("preg", ctx, "not a non-abelian regular group")
    n = ctx.regular_degree()
    pk = is_prime_power(n)
    return _result("preg", ctx, pk is None, witness=(("degree", n), ("prime_power", pk)),
                   details={"degree": n})


def check_bound(g, label="G") -> CheckResult:
    """For n-regular non-abelian groups: n even, 8 divides |G|, and
    n+2 <= |G| <= 4n/3."""
    ctx = _ctx(g, label)
    n = ctx.regular_degree()
    if ctx.g.is_abelian or n is None:
        return _na("bound", ctx, "not a non-abelian regular group")
    order = ctx.g.order
    ok = (n % 2 == 0) and (order % 8 == 0) and (n + 2 <= order) and (3 * order <= 4 * n)
    return _result("bound", ctx, ok, witness=(("degree", n), ("order", order)),
                   details={"degree": n, "order": order})


def _p_part_decomposition(ctx: _Ctx, p: int):
    """Split G as (p-elements) x (central p'-part); None with a witness when
    the p-elements fail to form a subgroup of the right order."""
    g = ctx.g
    p_elems = g.p_element_mask(p)
    h = g.generated_subgroup(np.flatnonzero(p_elems))
    if not np.array_equal(h.mask, p_elems):
        return None, ("p_elements_not_closed",)
    a = g.subgroup(np.flatnonzero(ctx.center.mask & (g.element_orders() % p != 0)))
    if h.size * a.size != g.order:
        return None, ("sizes", h.size, a.size)
    if np.count_nonzero(h.mask & a.mask) != 1:
        return None, ("intersection_nontrivial",)
    return (h, a), ()


def check_big(g, label="G") -> CheckResult:
    """Regular groups split as (regular 2-group) x (odd abelian); the rebuilt
    product is itself regular (converse direction)."""
    ctx = _ctx(g, label)
    deg = ctx.regular_degree()
    if ctx.g.is_abelian or deg is None:
        return _na("big", ctx, "not a non-abelian regular group")
    split, witness = _p_part_decomposition(ctx, 2)
    if split is None:
        return _result("big", ctx, False, witness=witness)
    h, a = split
    h_group = h.as_group()
    h_deg = analysis.is_regular(h_group)
    if h_deg is None:
        return _result("big", ctx, False, witness=(("sylow2_not_regular", h.size),))
    if a.size % 2 == 0:
        return _result("big", ctx, False, witness=(("abelian_part_even", a.size),))
    rebuilt = direct_product(h_group, a.as_group())
    ok = analysis.is_regular(rebuilt) == deg
    details = {"sylow2_order": h.size, "abelian_order": a.size,
               "sylow2_degree": h_deg}
    if ok and ctx.g.order <= ISO_CONFIRM_CAP:
        ok = is_isomorphic(rebuilt, ctx.g)
        details["isomorphism_confirmed"] = ok
    return _result("big", ctx, ok, witness=(("rebuilt_regular", False),),
                   details=details)


# --- section 3: the induced graph ----------------------------------------------

def check_lg(g, label="G") -> CheckResult:
    """beta(x) union Z(G) is a subgroup whenever C(x) is maximal."""
    ctx = _ctx(g, label)
    if ctx.g.is_abelian:
        return _na("lg", ctx, "abelian")
    for cid, _ in ctx.maximal_classes:
        try:
            analysis.h_subgroup(ctx.g, cid, ctx.part)
        except analysis.NotASubgroup as exc:
            return _result("lg", ctx, False, witness=(("class", cid), ("error", str(exc))))
    return _result("lg", ctx, True,
                   details={"maximal_classes": len(ctx.maximal_classes)})


def check_lg1(g, label="G") -> CheckResult:
    """Induced regular with C(x) strictly above beta(x) u Z: some y in
    C(x) minus beta(x) has prime coset order."""
    ctx = _ctx(g, label)
    if ctx.g.is_abelian or ctx.induced_degree() is None:
        return _na("lg1", ctx, "not induced regular")
    strict = [(cid, cent) for cid, cent in ctx.maximal_classes
              if not np.array_equal(cent.mask, ctx.beta_union_center(cid))]
    if not strict:
        return _na("lg1", ctx, "no maximal centralizer exceeds beta u Z")
    found = {}
    for cid, cent in strict:
        ys = [y for y in np.flatnonzero(cent.mask & ~ctx.beta_mask(cid)).tolist()
              if is_prime(ctx.coset_order(y))]
        if not ys:
            return _result("lg1", ctx, False, witness=(("class", cid),))
        found[cid] = ys[0]
    return _result("lg1", ctx, True, details={"witnesses": found})


def check_lg2(g, label="G") -> CheckResult:
    """Odd-prime coset-order witness in C(x) minus beta(x) forces
    (beta(x) u Z)/Z to be an elementary p-group."""
    ctx = _ctx(g, label)
    if ctx.g.is_abelian or ctx.induced_degree() is None:
        return _na("lg2", ctx, "not induced regular")
    applicable = False
    for cid, cent in ctx.maximal_classes:
        primes = set()
        for y in np.flatnonzero(cent.mask & ~ctx.beta_mask(cid)).tolist():
            o = ctx.coset_order(y)
            if o != 2 and is_prime(o):
                primes.add(o)
        if not primes:
            continue
        applicable = True
        try:
            hx_sub = analysis.h_subgroup(ctx.g, cid, ctx.part)
        except analysis.NotASubgroup as exc:
            return _result("lg2", ctx, False, witness=(("class", cid), ("error", str(exc))))
        hq = _quotient_by_center_of(ctx, hx_sub)
        for p in sorted(primes):
            if hq.order == 1 or hq.is_elementary_p() != p:
                return _result("lg2", ctx, False,
                               witness=(("class", cid), ("p", p),
                                        ("hx_quotient_histogram", hq.order_histogram())))
    if not applicable:
        return _na("lg2", ctx, "no odd-prime coset-order witness")
    return _result("lg2", ctx, True)


def _quotient_by_center_of(ctx: _Ctx, sub: Subgroup) -> FiniteGroup:
    """(members of sub)/Z(G) as a group; Z(G) is central in sub."""
    hx_group = sub.as_group()
    # positions in sub.members of the center's elements
    z_in_h = hx_group.subgroup(np.flatnonzero(ctx.center.mask[sub.mask]))
    return hx_group.quotient(z_in_h)


def check_mg(g, label="G") -> CheckResult:
    """Induced regular groups have prime-power central quotients."""
    ctx = _ctx(g, label)
    if ctx.g.is_abelian or ctx.induced_degree() is None:
        return _na("mg", ctx, "not a non-abelian induced regular group")
    quo = ctx.quotient_by_center
    p = quo.is_p_group()
    return _result("mg", ctx, isinstance(p, int),
                   witness=(("quotient_order", quo.order),),
                   details={"quotient_order": quo.order,
                            "p": p if isinstance(p, int) else None})


def check_pq_index(g, label="G") -> CheckResult:
    """[G:Z] = p^q with q prime (induced regular): G/Z is elementary p and
    every class has size (p-1)|Z|."""
    ctx = _ctx(g, label)
    if ctx.g.is_abelian or ctx.induced_degree() is None:
        return _na("pq_index", ctx, "not induced regular")
    pk = is_prime_power(ctx.index)
    if pk is None or not is_prime(pk[1]):
        return _na("pq_index", ctx, "[G:Z] not p^q with q prime")
    p, _ = pk
    quo = ctx.quotient_by_center
    elem_ok = quo.is_elementary_p() == p
    zsize = ctx.center.size
    sizes = set(ctx.part.class_sizes()[1:])
    sizes_ok = sizes == {(p - 1) * zsize}
    return _result("pq_index", ctx, elem_ok and sizes_ok,
                   witness=(("elementary", elem_ok), ("class_sizes", tuple(sorted(sizes)))),
                   details={"p": p, "expected_class_size": (p - 1) * zsize})


def check_cmg(g, label="G") -> CheckResult:
    """Odd-order induced regular groups with every C(x) above beta u Z have
    elementary p-group central quotients."""
    ctx = _ctx(g, label)
    if ctx.g.is_abelian or ctx.induced_degree() is None:
        return _na("cmg", ctx, "not induced regular")
    if ctx.g.order % 2 == 0:
        return _na("cmg", ctx, "even order")
    for cid in range(1, len(ctx.part.classes)):
        cent = ctx.part.centralizer_of_class(cid)
        if np.array_equal(cent.mask, ctx.beta_union_center(cid)):
            return _na("cmg", ctx, "some centralizer equals beta u Z")
    quo = ctx.quotient_by_center
    p = quo.is_elementary_p() if quo.order > 1 else None
    return _result("cmg", ctx, p is not None,
                   witness=(("quotient_histogram", quo.order_histogram()),))


def check_pp(g, label="G") -> CheckResult:
    """G/Z isomorphic to Cp x Cp forces induced regularity."""
    ctx = _ctx(g, label)
    if ctx.g.is_abelian:
        return _na("pp", ctx, "abelian")
    quo = ctx.quotient_by_center
    p = _elementary_abelian_quotient_prime(quo)
    if p is None or quo.order != p * p:
        return _na("pp", ctx, "G/Z not of shape Cp x Cp")
    deg = ctx.induced_degree()
    return _result("pp", ctx, deg is not None,
                   witness=(("class_sizes", ctx.part.class_sizes()),),
                   details={"p": p, "induced_degree": deg})


def check_big1(g, label="G") -> CheckResult:
    """Induced regular groups split as (induced regular p-group) x abelian;
    the rebuilt product is itself induced regular (converse direction)."""
    ctx = _ctx(g, label)
    deg = ctx.induced_degree()
    if ctx.g.is_abelian or deg is None:
        return _na("big1", ctx, "not a non-abelian induced regular group")
    quo = ctx.quotient_by_center
    p = quo.is_p_group()
    if not isinstance(p, int):
        return _result("big1", ctx, False,
                       witness=(("central_quotient_not_p_group", quo.order),))
    split, witness = _p_part_decomposition(ctx, p)
    if split is None:
        return _result("big1", ctx, False, witness=witness)
    h, a = split
    h_group = h.as_group()
    if h_group.is_p_group() != p and h_group.order != 1:
        return _result("big1", ctx, False, witness=(("p_part_order", h.size),))
    if analysis.is_induced_regular(h_group) is None:
        return _result("big1", ctx, False,
                       witness=(("p_part_not_induced_regular", h.size),))
    rebuilt = direct_product(h_group, a.as_group())
    ok = analysis.is_induced_regular(rebuilt) == deg
    details = {"p": p, "p_part_order": h.size, "abelian_order": a.size}
    if ok and ctx.g.order <= ISO_CONFIRM_CAP:
        ok = is_isomorphic(rebuilt, ctx.g)
        details["isomorphism_confirmed"] = ok
    return _result("big1", ctx, ok, witness=(("rebuilt_induced_regular", False),),
                   details=details)


# --- conjecture scans -----------------------------------------------------------

def scan_conjecture_tconj(g, label="G") -> CheckResult:
    """Flag any regular group whose degree is prime (none should exist)."""
    ctx = _ctx(g, label)
    deg = ctx.regular_degree()
    if ctx.g.is_abelian or deg is None:
        return _na("tconj", ctx, "not a non-abelian regular group")
    return _result("tconj", ctx, not is_prime(deg), witness=(("degree", deg),),
                   details={"degree": deg})


def scan_conjecture_lco(g, label="G") -> CheckResult:
    """Report whether G/Z is an elementary p-group for induced regular G.

    Open conjecture: counterexamples are flagged in the details, never
    asserted as failures.
    """
    ctx = _ctx(g, label)
    if ctx.g.is_abelian or ctx.induced_degree() is None:
        return _na("lco", ctx, "not a non-abelian induced regular group")
    quo = ctx.quotient_by_center
    p = quo.is_elementary_p() if quo.order > 1 else None
    status = "consistent" if p is not None else "COUNTEREXAMPLE CANDIDATE"
    return _result("lco", ctx, True,
                   details={"elementary_p": p, "status": status,
                            "quotient_histogram": quo.order_histogram()},
                   reason=status)


CHECK_IDS: dict[str, Callable] = {
    "be0": check_be0,
    "be": check_be,
    "ba": check_ba,
    "ereg1": check_ereg1,
    "ereg2": check_ereg2,
    "creg": check_creg,
    "ccreg_c2c2": check_ccreg_c2c2,
    "ccreg_c2cubed": check_ccreg_c2cubed,
    "ncen": check_ncen,
    "preg": check_preg,
    "bound": check_bound,
    "big": check_big,
    "lg": check_lg,
    "lg1": check_lg1,
    "lg2": check_lg2,
    "mg": check_mg,
    "pq_index": check_pq_index,
    "cmg": check_cmg,
    "pp": check_pp,
    "big1": check_big1,
    "tconj": scan_conjecture_tconj,
    "lco": scan_conjecture_lco,
}

CONJECTURE_IDS = frozenset({"tconj", "lco"})


def run_check(check_id: str, g: FiniteGroup, label: str = "G") -> CheckResult:
    if check_id not in CHECK_IDS:
        raise KeyError(f"unknown check id: {check_id!r}")
    return CHECK_IDS[check_id](g, label)


def run_suite(groups: Iterable[tuple[str, FiniteGroup]],
              check_ids: Optional[Iterable[str]] = None) -> list[CheckResult]:
    """Run the selected checks over (label, group) pairs.

    Output is sorted by (group order, label, check id) regardless of input or
    evaluation order.
    """
    groups = list(groups)
    ids = list(CHECK_IDS) if check_ids is None else list(check_ids)
    for cid in ids:
        if cid not in CHECK_IDS:
            raise KeyError(f"unknown check id: {cid!r}")
    order_of = {label: g.order for label, g in groups}
    results = []
    for label, g in groups:
        ctx = _Ctx(g, label)
        for cid in ids:
            results.append(CHECK_IDS[cid](ctx, label))
    results.sort(key=lambda r: (order_of[r.group_label], r.group_label, r.check_id))
    return results


def format_results(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    failures = [r for r in results if r.applicable and not r.passed
                and r.check_id not in CONJECTURE_IDS]
    lines.append(f"-- {len(results)} results, "
                 f"{sum(1 for r in results if r.applicable)} applicable, "
                 f"{len(failures)} failures")
    for r in failures:
        lines.append(f"   witness {r.check_id} on {r.group_label}: {r.witness}")
    return "\n".join(lines)


def results_to_kv(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        lines.append(
            f"check={r.check_id} group={r.group_label} "
            f"applicable={str(r.applicable).lower()} passed={str(r.passed).lower()}"
            + (f" reason={r.reason!r}" if r.reason else ""))
    return "\n".join(lines)
