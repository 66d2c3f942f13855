"""Non-centralizer graphs as explicit complete multipartite structures.

Parts are the equal-centralizer classes; two vertices are adjacent exactly
when they sit in different parts, so edges stay implicit and are generated
on demand by the exporters.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass

from .core import FiniteGroup

__all__ = [
    "UnknownFormat",
    "NonCentralizerGraph",
    "build_graph",
    "export",
    "export_rows",
]


class UnknownFormat(ValueError):
    """Unrecognized export format name."""


@dataclass(frozen=True)
class NonCentralizerGraph:
    """Complete multipartite graph on (a subset of) the group's elements.

    Vertices keep their group element indices.  induced=True means the center
    part was removed (the graph on G minus Z(G)).
    """

    labels: tuple[str, ...]
    parts: tuple[tuple[int, ...], ...]
    induced: bool

    def vertices(self) -> list[int]:
        return sorted(v for p in self.parts for v in p)


def build_graph(g: FiniteGroup, induced: bool = False) -> NonCentralizerGraph:
    """Materialize the (induced) non-centralizer graph of g."""
    classes = g.beta_classes()
    return NonCentralizerGraph(g.labels, classes[1:] if induced else classes, induced)


def export(graph: NonCentralizerGraph, fmt: str) -> str:
    """Serialize deterministically as dot, edge-list, or parts-json."""
    return "".join(export_rows(graph, fmt))


def export_rows(graph: NonCentralizerGraph, fmt: str) -> Iterator[str]:
    """export's text in rows of at most one vertex's edges; a bad fmt raises at the call."""
    if fmt == "dot":
        return _export_dot(graph)
    if fmt == "edge-list":
        return _edge_rows(graph, "", " ", "\n")
    if fmt == "parts-json":  # tuples dump as JSON arrays
        return iter([json.dumps({"parts": graph.parts, "induced": graph.induced}) + "\n"])
    raise UnknownFormat(f"unknown export format: {fmt!r}")


def _edge_rows(graph: NonCentralizerGraph, pre: str, mid: str, end: str) -> Iterator[str]:
    """Every edge (u, v), u < v ascending, as pre + u + mid + v + end, a row per u. A part's
    list, built by slices at its first member and dropped after its last, is "" and then the
    later non-members named with end; u's row is pre + u + mid joined over the list from the
    entry before u's neighbours, once that entry (read by no later member) is set to ""."""
    if len(graph.parts) < 2:  # no edges
        return
    verts = graph.vertices()
    names, pos = [f"{v}{end}" for v in verts], {v: i for i, v in enumerate(verts)}
    parts, rest = [sorted(pos[v] for v in p) for p in graph.parts], {}
    for i, j, at in sorted((i, j, at) for at in parts for j, i in enumerate(at)):
        if j == 0:  # keyed by the part's first position
            rest[i] = r = [""]
            for a, b in zip(at, [*at[1:], len(names)]):
                r += names[a + 1:b]
        r, k = (rest.pop(at[0]) if j == len(at) - 1 else rest[at[0]]), i - at[0] - j
        if k + 1 < len(r):
            r[k] = ""
            yield f"{pre}{verts[i]}{mid}".join(r[k:])


def _export_dot(graph: NonCentralizerGraph) -> Iterator[str]:
    yield "graph noncentralizer {\n"
    for i, p in enumerate(graph.parts):
        yield f'  subgraph cluster_{i} {{\n    label="part {i}";\n'
        yield "".join(f'    n{v} [label="{graph.labels[v]}"];\n' for v in p) + "  }\n"
    yield from _edge_rows(graph, "  n", " -- n", ";\n")
    yield "}\n"
