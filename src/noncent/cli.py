"""Command-line front end: analyze, search, verify, graph.

Group sources are either catalog files (path, or path#label to pick one
entry) or family specs like `dihedral:4`, `quaternion:16`, `M:32`,
`cyclic:12`, `elem:2:3`, `heisenberg:5`, joined with `x` for direct
products: `dihedral:4 x cyclic:3`.

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import analysis, catalog, checks, families, graph
from .core import FiniteGroup, direct_product
from .presentation import CosetLimitExceeded


class SourceError(ValueError):
    pass


def _family_from_spec(spec: str) -> FiniteGroup:
    parts = spec.split(":")
    kind = parts[0].strip().lower()
    try:
        args = [int(p) for p in parts[1:]]
    except ValueError:
        raise SourceError(f"bad family spec {spec!r}: numeric arguments expected")
    try:
        if kind == "cyclic" and len(args) == 1:
            return families.cyclic(args[0])
        if kind == "elem" and len(args) == 2:
            return families.elementary_abelian(args[0], args[1])
        if kind == "dihedral" and len(args) == 1:
            return families.dihedral(args[0])
        if kind in ("quaternion", "q") and len(args) == 1:
            return families.generalized_quaternion(args[0])
        if kind in ("m", "modular") and len(args) == 1:
            return families.modular_M(args[0])
        if kind == "heisenberg" and len(args) == 1:
            return families.heisenberg(args[0])
    except ValueError as exc:
        raise SourceError(f"bad family spec {spec!r}: {exc}")
    raise SourceError(f"unknown family spec {spec!r}")


def resolve_source(text: str) -> tuple[str, FiniteGroup]:
    """Resolve a group source string to (label, group)."""
    factors = _split_product(text)
    labels, groups = zip(*map(_resolve_atom, factors))
    return " x ".join(labels), direct_product(*groups)


def _split_product(text: str) -> list[str]:
    toks = text.split()
    out = []
    cur: list[str] = []
    for t in toks:
        if t == "x":
            if not cur:
                raise SourceError("misplaced 'x' in group source")
            out.append(" ".join(cur))
            cur = []
        else:
            cur.append(t)
    if not cur:
        raise SourceError("misplaced 'x' in group source" if out else "empty group source")
    out.append(" ".join(cur))
    return out


def _resolve_atom(token: str) -> tuple[str, FiniteGroup]:
    path, _, wanted = token.partition("#")
    if os.path.exists(path):
        entries = catalog.load(path)
        if wanted:
            for e in entries:
                if e.label == wanted:
                    return e.label, e.group()
            raise SourceError(f"label {wanted!r} not found in {path}")
        if len(entries) != 1:
            raise SourceError(
                f"{path} holds {len(entries)} entries; pick one with {path}#LABEL")
        return entries[0].label, entries[0].group()
    if "#" in token:
        raise SourceError(f"catalog file {path!r} not found")
    return token, _family_from_spec(token)


def _load_catalogs(paths: list[str]) -> list[catalog.CatalogEntry]:
    expanded = []
    for p in paths:
        expanded.extend(s for s in p.split(",") if s)
    if not expanded:
        raise SourceError("no catalog files given")
    entries = catalog.load_many(expanded)
    if not entries:
        raise SourceError(f"no catalog entries in {', '.join(expanded)}")
    return entries


def cmd_analyze(args) -> int:
    label, g = resolve_source(" ".join(args.source))
    report = analysis.build_report(g, label)
    print(report.to_kv() if args.kv else report.to_text())
    return 0


def cmd_search(args) -> int:
    entries = _load_catalogs(args.catalog)
    if args.table1 or args.reduced:
        rows = [(n, labels) for n, labels in catalog.table1_search(entries)
                if args.degree in (None, n)]
        if args.table1:
            for n, labels in rows:
                print(f"n={n}: {', '.join(labels)}  ({len(labels)} groups)")
            return 0
        matches = [(label, n) for n, labels in rows for label in labels]
    else:
        degree_of = analysis.is_induced_regular if args.induced_regular else analysis.is_regular
        matches = [(e.label, deg) for e in entries
                   if (deg := degree_of(e.group())) is not None and args.degree in (None, deg)]
    for label, deg in sorted(matches, key=lambda t: catalog.label_sort_key(t[0])):
        print(f"{label}  degree={deg}")
    return 0


def cmd_verify(args) -> int:
    entries = _load_catalogs(args.catalog)
    ids = args.checks and [c for part in args.checks for c in part.split(",") if c]
    if ids == []:
        raise SourceError("no check ids given")
    results = checks.run_suite(((e.label, e.group()) for e in entries), ids)
    print(checks.results_to_kv(results) if args.kv else checks.format_results(results))
    return 1 if checks.failures(results) else 0


def cmd_graph(args) -> int:
    label, g = resolve_source(" ".join(args.source))
    rows = graph.export_rows(graph.build_graph(g, induced=args.induced), args.format)
    try:
        sys.stdout.writelines(rows)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left: end quietly, the exit flush going nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="noncent",
                                 description="finite-group non-centralizer graph toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="regularity report for one group")
    p.add_argument("source", nargs="+", help="catalog file[#label] or family spec")
    p.add_argument("--kv", action="store_true", help="machine-readable key=value output")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("search", help="scan catalogs for (induced/reduced) regular groups")
    p.add_argument("--catalog", action="append", required=True,
                   help="catalog file(s); repeatable or comma-separated")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--regular", action="store_true", help="regular groups (default)")
    mode.add_argument("--induced-regular", action="store_true")
    mode.add_argument("--reduced", action="store_true", help="reduced regular 2-groups")
    mode.add_argument("--table1", action="store_true",
                      help="print the reduced n-regular table rows")
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="run the theorem suite over catalogs")
    p.add_argument("--catalog", action="append", required=True)
    p.add_argument("--checks", action="append", default=None,
                   help="comma-separated check ids (default: all): " + ", ".join(checks.CHECK_IDS))
    p.add_argument("--kv", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("graph", help="export the non-centralizer graph")
    p.add_argument("source", nargs="+")
    p.add_argument("--induced", action="store_true", help="drop the center part")
    p.add_argument("--format", default="edge-list",
                   choices=["dot", "edge-list", "parts-json"])
    p.set_defaults(func=cmd_graph)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (CosetLimitExceeded, OSError, KeyError, ValueError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
