"""Non-centralizer graphs as explicit complete multipartite structures.

Parts are the equal-centralizer classes; two vertices are adjacent exactly
when they sit in different parts, so edges stay implicit and are generated
on demand by the exporters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import FiniteGroup

__all__ = [
    "UnknownFormat",
    "NonCentralizerGraph",
    "build_graph",
    "export",
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

    def part_of(self) -> dict[int, int]:
        return {v: i for i, p in enumerate(self.parts) for v in p}


def build_graph(g: FiniteGroup, induced: bool = False) -> NonCentralizerGraph:
    """Materialize the (induced) non-centralizer graph of g."""
    classes = g.beta_classes()
    return NonCentralizerGraph(labels=g.labels, parts=classes[1:] if induced else classes,
                               induced=induced)


def export(graph: NonCentralizerGraph, fmt: str) -> str:
    """Serialize deterministically as dot, edge-list, or parts-json."""
    if fmt == "dot":
        return _export_dot(graph)
    if fmt == "edge-list":
        return _edge_text(graph, "", " ", "\n")
    if fmt == "parts-json":
        payload = {"parts": [list(p) for p in graph.parts], "induced": graph.induced}
        return json.dumps(payload, separators=(", ", ": ")) + "\n"
    raise UnknownFormat(f"unknown export format: {fmt!r}")


def _edge_text(graph: NonCentralizerGraph, pre: str, mid: str, end: str) -> str:
    """Every edge (u, v), u < v ascending, written as pre + u + mid + v + end.

    Row by row: u's later neighbours are the later vertices in other parts,
    picked by one mask, and the row is one str.join.
    """
    part_of = graph.part_of()
    verts = graph.vertices()
    part = np.array([part_of[v] for v in verts], dtype=np.int64)
    names = np.array([str(v) for v in verts], dtype=object)
    rows = []
    for i in range(names.size - 1):
        vs = names[i + 1:][part[i + 1:] != part[i]]
        if vs.size:
            head = f"{pre}{names[i]}{mid}"
            rows.append(head + (end + head).join(vs.tolist()) + end)
    return "".join(rows)


def _export_dot(graph: NonCentralizerGraph) -> str:
    lines = ["graph noncentralizer {"]
    for i, p in enumerate(graph.parts):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="part {i}";')
        for v in p:
            lines.append(f'    n{v} [label="{graph.labels[v]}"];')
        lines.append("  }")
    return "\n".join(lines) + "\n" + _edge_text(graph, "  n", " -- n", ";\n") + "}\n"
