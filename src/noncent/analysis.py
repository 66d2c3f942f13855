"""Centralizer-derived structure: equal-centralizer classes and regularity tests.

The partition of G into classes of elements sharing a centralizer is the
backbone of the non-centralizer graph: its classes are the graph's parts,
class 0 is always the center, and every class is a union of center cosets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import FiniteGroup, Subgroup, _cached

__all__ = [
    "AbelianGroup", "NotMaximal", "NotASubgroup", "RegularityReport",
    "beta_partition", "is_regular", "is_induced_regular", "maximal_centralizers",
    "h_subgroup", "is_reduced_regular", "build_report",
]


class AbelianGroup(ValueError):
    """Operation requires a non-abelian group."""


class NotMaximal(ValueError):
    """The class's centralizer is not maximal."""


class NotASubgroup(RuntimeError):
    """beta(x) union Z(G) failed the subgroup axioms.

    Never expected on a valid group; raising it would falsify the structure
    theory this library verifies, so it carries the offending data.
    """


def beta_partition(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """The members of each class of elements with identical centralizers:
    g.beta_classes(), cached on g.  Class 0 is the center; g.beta_class_ids()
    gives each element's class."""
    return g.beta_classes()


@_cached
def is_regular(g: FiniteGroup) -> Optional[int]:
    """Degree of the non-centralizer graph when it is regular, else None.

    The graph is regular exactly when every class has |Z(G)| members, that
    is when every class is a single center coset, giving degree |G| - |Z(G)|;
    an abelian group is one class, so 0-regular (single-part, edgeless graph).
    """
    sizes = g.beta_class_sizes().tolist()
    if sizes.count(sizes[0]) != len(sizes):
        return None
    return g.order - sizes[0]


@_cached
def is_induced_regular(g: FiniteGroup) -> Optional[int]:
    """Degree of the induced graph (non-central vertices) when regular.

    All non-center classes must share one size s and the degree is
    (|G| - |Z(G)|) - s.  Abelian groups, with no such class, are vacuously
    induced regular (empty vertex set, degree 0).
    """
    z, *rest = g.beta_class_sizes().tolist()
    if len(set(rest)) > 1:
        return None
    return g.order - z - max(rest, default=0)


def maximal_centralizers(g: FiniteGroup) -> list[tuple[int, Subgroup]]:
    """Proper centralizers maximal under inclusion, as (class id, subgroup),
    for the class ids cached by g.maximal_class_ids()."""
    if g.is_abelian:
        raise AbelianGroup("no proper centralizers in an abelian group")
    classes = g.beta_classes()
    return [(cid, g.centralizer(classes[cid][0])) for cid in g.maximal_class_ids()]


def h_subgroup(g: FiniteGroup, class_id: int) -> Subgroup:
    """The set beta(x) union Z(G) for a maximal-centralizer class, verified
    to be a subgroup.

    NotASubgroup here would be a falsification witness, not a user error.
    """
    if g.is_abelian:
        raise AbelianGroup("no proper centralizers in an abelian group")
    if class_id not in g.maximal_class_ids():
        raise NotMaximal(f"class {class_id} does not have a maximal centralizer")
    classes = g.beta_classes()
    try:
        return g.subgroup(np.union1d(classes[class_id], classes[0]))
    except ValueError as exc:
        raise NotASubgroup(
            f"beta-class {class_id} union center is not a subgroup: {exc}") from exc


def _pure_cyclic(g: FiniteGroup, z: np.ndarray) -> np.ndarray:
    """For each central z[i] of the 2-group g: True iff <z[i]> is a direct
    factor of g (see is_reduced_regular).  One scatter marks, for every row k
    of the power chain x -> x^(2^k), the cosets xG' of 2^k A by smallest
    member; z of order 2^k passes when z^(2^(k-1))'s coset is unmarked in row k.
    """
    pw = g.power_maps(2)
    coset = g.table[:, g.commutator_subgroup().mask].min(axis=1)
    hit = np.zeros((len(pw), g.order), dtype=bool)
    hit[np.arange(len(pw))[:, None], coset[pw]] = True
    k = (pw[:, z] != 0).sum(axis=0)  # z^(2^k) = 1 from row k on
    return ~hit[k, coset[pw[k - 1, z]]]


def is_reduced_regular(g: FiniteGroup) -> Optional[bool]:
    """True iff a regular non-abelian 2-group admits no decomposition
    H x A with A a non-trivial abelian group; None off that domain (abelian,
    not a 2-group, or not regular).

    Any such decomposition yields a central cyclic direct factor, and a
    central <z> of order m splits off G exactly when its image in
    A = G/G' is a direct summand of order m: a projection A -> <zbar> pulls
    back to G -> <z> with a complement as kernel, and G = K x <z> gives
    A = K/K' x <z>.  A bounded pure subgroup of an abelian group is a direct
    summand (Fuchs, Infinite Abelian Groups I, 1970, sections 26-27), and
    <zbar> of order 2^k is pure exactly when 2^(k-1)zbar lies outside 2^k A.
    Since 2^k zbar = 0 and 0 lies in 2^k A, that condition alone forces zbar
    to have order m = 2^k.  So G is reduced iff no central z != 1 has
    2^(k-1)zbar outside 2^k A.  Cross-validated in the test suite against a
    homomorphism search and brute_force_abelian_factor (tests/oracles.py).
    """
    if g.is_abelian or g.is_p_group() != 2 or is_regular(g) is None:
        return None
    return not _pure_cyclic(g, np.asarray(g.center().members[1:])).any()


@dataclass(frozen=True)
class RegularityReport:
    """Flat summary of a group's centralizer structure; field order is the
    serialization order."""

    label: str
    order: int
    center_size: int
    cent_count: int
    index: int
    degree_sequence: tuple[int, ...]
    is_regular: bool
    regular_degree: Optional[int]
    is_induced_regular: bool
    induced_degree: Optional[int]
    is_reduced: Optional[bool]
    class_sizes: tuple[int, ...]

    def to_text(self) -> str:
        degseq = _compress_multiset(self.degree_sequence)
        lines = [
            f"group:            {self.label}",
            f"order:            {self.order}",
            f"center size:      {self.center_size}",
            f"|Cent(G)|:        {self.cent_count}",
            f"[G:Z(G)]:         {self.index}",
            f"degree sequence:  {degseq}",
            f"regular:          {_yn(self.is_regular)}",
            f"regular degree:   {_opt(self.regular_degree)}",
            f"induced regular:  {_yn(self.is_induced_regular)}",
            f"induced degree:   {_opt(self.induced_degree)}",
            f"reduced:          {_opt(self.is_reduced)}",
            f"class sizes:      {_compress_multiset(self.class_sizes)}",
        ]
        return "\n".join(lines)

    def to_kv(self) -> str:
        pairs = [
            ("label", self.label),
            ("order", self.order),
            ("center_size", self.center_size),
            ("cent_count", self.cent_count),
            ("index", self.index),
            ("degree_sequence", ",".join(map(str, self.degree_sequence))),
            ("regular", str(self.is_regular).lower()),
            ("regular_degree", _opt(self.regular_degree)),
            ("induced_regular", str(self.is_induced_regular).lower()),
            ("induced_degree", _opt(self.induced_degree)),
            ("reduced", "-" if self.is_reduced is None else str(self.is_reduced).lower()),
            ("class_sizes", ",".join(map(str, self.class_sizes))),
        ]
        return "\n".join(f"{k}={v}" for k, v in pairs)


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _opt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return _yn(v)
    return str(v)


def _compress_multiset(values: tuple[int, ...]) -> str:
    runs = sorted(Counter(values).items())
    return "[" + ", ".join(f"{v}" if c == 1 else f"{v}x{c}" for v, c in runs) + "]"


def build_report(g: FiniteGroup, label: str) -> RegularityReport:
    """Compute the full regularity report for one group."""
    ids, sizes = g.beta_class_ids(), g.beta_class_sizes()
    z = int(sizes[0])
    reg = is_regular(g)
    ind = is_induced_regular(g)
    return RegularityReport(
        label=label,
        order=g.order,
        center_size=z,
        cent_count=len(sizes),
        index=g.order // z,
        degree_sequence=tuple(np.sort(g.order - sizes[ids]).tolist()),
        is_regular=reg is not None,
        regular_degree=reg,
        is_induced_regular=ind is not None,
        induced_degree=ind,
        is_reduced=is_reduced_regular(g),
        class_sizes=tuple(sizes.tolist()),
    )
