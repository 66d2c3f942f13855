"""Loading and screening of labeled group catalogs.

Catalog files are line oriented: '#' starts a comment, blank lines separate
entries, and each entry carries name/kind/order headers followed by a
kind-specific payload (table rows, permutation generators, or a presentation
string).  Groups materialize lazily and are cached per entry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Optional, Sequence

from .core import (ISO_ORDER_CAP, FiniteGroup, TooLarge, fingerprint, from_table,
                   from_permutations, is_isomorphic)
from .analysis import is_regular, is_reduced_regular
from .presentation import enumerate_presentation, parse

__all__ = [
    "FormatError",
    "DuplicateLabel",
    "OrderMismatch",
    "CatalogEntry",
    "SHIPPED",
    "shipped_path",
    "load",
    "load_many",
    "dedup",
    "table1_search",
    "label_sort_key",
]

SHIPPED = ("order8.cat", "order16.cat", "order32.cat", "order64.cat")


def shipped_path(name: str) -> str:
    """Filesystem path of a catalog distributed with the package."""
    return str(resources.files("noncent").joinpath("data", name))


class FormatError(ValueError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class DuplicateLabel(ValueError):
    pass


class OrderMismatch(ValueError):
    def __init__(self, label: str, declared: int, actual: int):
        super().__init__(f"{label}: declared order {declared} but materialized {actual}")
        self.label = label
        self.declared = declared
        self.actual = actual


@dataclass
class CatalogEntry:
    """One labeled group definition; the group itself materializes on demand."""

    label: str
    kind: str
    order: int
    payload: object
    source: str
    line: int
    _group: Optional[FiniteGroup] = field(default=None, repr=False)

    def group(self) -> FiniteGroup:
        if self._group is None:
            if self.kind == "table":
                g = from_table(self.payload)
            elif self.kind == "perm":
                degree, gens = self.payload
                g = from_permutations(degree, gens)
            elif self.kind == "presentation":
                g = enumerate_presentation(parse(self.payload))
            else:  # unreachable: load() validates kinds
                raise FormatError(self.line, f"unknown kind {self.kind!r}")
            if g.order != self.order:
                raise OrderMismatch(self.label, self.order, g.order)
            self._group = g
        return self._group


def load(path: str) -> list[CatalogEntry]:
    """Parse and validate one catalog file; groups stay lazy."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    entries: list[CatalogEntry] = []
    seen: dict[str, CatalogEntry] = {}
    block: list[tuple[int, str]] = []

    def flush():
        if not block:
            return
        entry = _parse_block(block, path)
        _claim_label(seen, entry)
        entries.append(entry)
        block.clear()

    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            flush()  # blank lines separate entries
            continue
        content = line.split("#", 1)[0].strip()
        if not content:
            continue  # comment-only lines never separate
        block.append((lineno, content))
    flush()
    return entries


def load_many(paths: Sequence[str]) -> list[CatalogEntry]:
    """Parse several catalog files; a label may appear only once in all of them."""
    out = []
    seen: dict[str, CatalogEntry] = {}
    for p in paths:
        for entry in load(p):
            _claim_label(seen, entry)
            out.append(entry)
    return out


def _claim_label(seen: dict[str, CatalogEntry], entry: CatalogEntry) -> None:
    """Record entry under its label, or raise DuplicateLabel naming both places."""
    first = seen.setdefault(entry.label, entry)
    if first is not entry:
        raise DuplicateLabel(f"{entry.source}:{entry.line}: duplicate label {entry.label!r}"
                             f" (first at {first.source}:{first.line})")


_HEADER_RE = re.compile(r"(name|kind|order|degree|pres|gen)\s*:\s*(.*)")


def _parse_block(block: list[tuple[int, str]], path: str) -> CatalogEntry:
    headers: dict[str, str] = {}
    gens: list[list[int]] = []
    rows: list[list[int]] = []
    first_line = block[0][0]
    for lineno, text in block:
        m = _HEADER_RE.fullmatch(text)
        if m:
            key, value = m.group(1), m.group(2).strip()
            if key == "gen":
                try:
                    gens.append([int(t) for t in value.split()])
                except ValueError:
                    raise FormatError(lineno, f"bad generator line: {value!r}")
            elif key in headers:
                raise FormatError(lineno, f"repeated header {key!r}")
            else:
                headers[key] = value
        else:
            try:
                rows.append([int(t) for t in text.split()])
            except ValueError:
                raise FormatError(lineno, f"unrecognized line: {text!r}")

    for required in ("name", "kind", "order"):
        if required not in headers:
            raise FormatError(first_line, f"missing {required!r} header")
    label = headers["name"]
    kind = headers["kind"]
    try:
        order = int(headers["order"])
    except ValueError:
        raise FormatError(first_line, f"bad order: {headers['order']!r}")
    if order < 1:
        raise FormatError(first_line, "order must be positive")

    if kind == "table":
        if len(rows) != order or any(len(r) != order for r in rows):
            actual = len(rows)
            raise OrderMismatch(label, order, actual)
        payload: object = rows
    elif kind == "perm":
        if "degree" not in headers:
            raise FormatError(first_line, "perm entry needs a degree header")
        degree = int(headers["degree"])
        if not gens:
            raise FormatError(first_line, "perm entry needs at least one gen line")
        if any(len(g) != degree for g in gens):
            raise FormatError(first_line, "generator length does not match degree")
        payload = (degree, gens)
    elif kind == "presentation":
        if "pres" not in headers:
            raise FormatError(first_line, "presentation entry needs a pres line")
        payload = headers["pres"]
    else:
        raise FormatError(first_line, f"unknown kind {kind!r}")
    return CatalogEntry(label=label, kind=kind, order=order, payload=payload,
                        source=path, line=first_line)


def dedup(entries: Sequence[CatalogEntry]) -> list[tuple[CatalogEntry, Optional[str]]]:
    """Flag entries isomorphic to an earlier entry with the canonical label.

    Returns (entry, None) for originals and (entry, first_label) for
    duplicates.  Fingerprints bucket first; exact isomorphism decides.
    """
    for e in entries:
        if e.order > ISO_ORDER_CAP:
            raise TooLarge(f"{e.label}: dedup capped at order {ISO_ORDER_CAP}")
    buckets: dict[tuple, list[CatalogEntry]] = {}
    out: list[tuple[CatalogEntry, Optional[str]]] = []
    for e in entries:
        fp = fingerprint(e.group())
        dup_of = None
        for other in buckets.get(fp, ()):
            if is_isomorphic(e.group(), other.group()):
                dup_of = other.label
                break
        buckets.setdefault(fp, []).append(e)
        out.append((e, dup_of))
    return out


def label_sort_key(label: str):
    """Sort bracket labels numerically ([32,4] before [32,12]), others last."""
    m = re.fullmatch(r"\[\s*(\d+)\s*,\s*(\d+)\s*\]", label)
    if m:
        return (0, int(m.group(1)), int(m.group(2)), label)
    return (1, 0, 0, label)


def table1_search(entries: Iterable[CatalogEntry]) -> list[tuple[int, list[str]]]:
    """Rows (n, labels) of reduced n-regular 2-groups found in the entries."""
    rows: dict[int, list[str]] = {}
    for e in entries:
        g = e.group()
        if g.is_abelian or g.is_p_group() != 2:
            continue
        degree = is_regular(g)
        if degree is None:
            continue
        if is_reduced_regular(g):
            rows.setdefault(degree, []).append(e.label)
    return [(n, sorted(labels, key=label_sort_key)) for n, labels in sorted(rows.items())]
