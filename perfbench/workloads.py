"""The three benchmark workloads.

Each workload builds its inputs from a seed (untimed), hands out fresh inputs
for every pass (untimed), runs one timed pass, and splits the pass output into
operations that are compared with the reference outputs recorded from the
seed commit. A pass never reuses a FiniteGroup from an earlier pass, so no
group-level cache carries over.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from pathlib import Path

import numpy as np

# Library functions are looked up through their modules at call time, so
# the tracer's wrappers are the ones called.
from noncent import analysis, catalog, checks, cli, core, families, graph, presentation


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def shipped_catalogs() -> list[str]:
    return [catalog.shipped_path(name) for name in catalog.SHIPPED]


def family_instances() -> list[tuple[str, core.FiniteGroup]]:
    """The 24 family groups of the acceptance-5 corpus, without their
    products with C2..C5."""
    pairs = [(f"D{2 * m}", families.dihedral(m)) for m in range(2, 17)]
    pairs += [(f"Q{n}", families.generalized_quaternion(n)) for n in (8, 16, 32)]
    pairs += [(f"M{2 ** k}", families.modular_M(2 ** k)) for k in range(3, 7)]
    pairs += [(f"H{p ** 3}", families.heisenberg(p)) for p in (3, 5)]
    return pairs


def relabel(g: core.FiniteGroup, rng: random.Random) -> tuple[np.ndarray, list[str]]:
    """The table and element labels of g under a random permutation of the
    element indices that keeps the identity at 0."""
    n = g.order
    rest = list(range(1, n))
    rng.shuffle(rest)
    new_of_old = np.array([0] + rest, dtype=np.int64)
    old_of_new = np.argsort(new_of_old)
    table = np.asarray(g.table, dtype=np.int64)
    new_table = new_of_old[table[np.ix_(old_of_new, old_of_new)]]
    labels = [g.labels[int(i)] for i in old_of_new]
    return new_table, labels


class VerifySuite:
    """`checks.run_suite` over all check ids, then `checks.format_results`.

    Inputs are the 115 shipped catalog entries and the 24 family groups of
    the acceptance-5 corpus (139 groups, orders 8-125), each relabeled by the
    seed and built through `core.from_table`, in an order shuffled by the
    seed. The corpus leaves out acceptance 5's 96 products with C2..C5: with
    them a pass takes about 20 s, too long for several passes per run (see
    README.md). One operation is one group's result lines.
    """

    name = "verify-suite"

    def __init__(self, seed: int, root: Path):
        rng = random.Random(seed)
        corpus = [(e.label, e.group()) for p in shipped_catalogs() for e in catalog.load(p)]
        corpus += family_instances()
        self.labels = [label for label, _ in corpus]
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("verify-suite labels must be unique: outputs are split by label")
        self.inputs = [(label, *relabel(g, rng)) for label, g in corpus]
        rng.shuffle(self.inputs)

    def fresh(self):
        return [(label, core.from_table(table, elems)) for label, table, elems in self.inputs]

    def run(self, groups):
        results = checks.run_suite(groups)
        return results, checks.format_results(results)

    @staticmethod
    def outputs(raw) -> dict[str, str]:
        results, text = raw
        lines = text.split("\n")
        per_group: dict[str, list[str]] = {}
        for r, line in zip(results, lines):
            per_group.setdefault(r.group_label, []).append(line)
        out = {label: digest("\n".join(ls)) for label, ls in per_group.items()}
        out["summary"] = "\n".join(lines[len(results):])
        return out

    def operations(self) -> list[str]:
        return list(self.labels)


class Table1Search:
    """`noncent search --table1` over the four shipped catalogs, stdout captured.

    The catalogs are copies whose entry blocks are shuffled by the seed,
    written once under the scratch directory; entry text is unchanged. One
    operation is one printed row.
    """

    name = "table1-search"

    def __init__(self, seed: int, root: Path):
        rng = random.Random(seed)
        self.inputs = []
        self.argv = ["search", "--table1"]
        for src in shipped_catalogs():
            text = shuffle_blocks(Path(src).read_text(encoding="utf-8"), rng)
            dst = root / Path(src).name
            dst.write_text(text, encoding="utf-8")
            self.inputs.append(text)
            self.argv += ["--catalog", str(dst)]

    def fresh(self):
        return self.argv

    def run(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue()

    @staticmethod
    def outputs(raw) -> dict[str, str]:
        code, text = raw
        out = {"exit": str(code)}
        for line in text.splitlines():
            out[line.split(":", 1)[0]] = line
        return out

    def operations(self) -> list[str]:
        return [f"n={n}" for n in (6, 12, 24, 30, 48, 56, 60)]


def shuffle_blocks(text: str, rng: random.Random) -> str:
    """Shuffle the entry blocks of a catalog file; comment-only blocks stay first."""
    blocks = text.strip("\n").split("\n\n")
    entries = [b for b in blocks if any(ln.split("#", 1)[0].strip() for ln in b.splitlines())]
    header = [b for b in blocks if b not in entries]
    rng.shuffle(entries)
    return "\n\n".join(header + entries) + "\n"


LARGE_SPECS = ["cyclic:1024", "heisenberg:7", "M:512", "elem:2:9", "dihedral:64 x cyclic:5"]


def _large_builders():
    builders = {spec: (lambda spec=spec: cli.resolve_source(spec)[1]) for spec in LARGE_SPECS}
    builders["S6"] = lambda: core.from_permutations(6, [[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]])
    builders["D512 presentation"] = lambda: presentation.enumerate_presentation(
        presentation.parse("< r, s | r^256, s^2, s*r*s*r >"))
    return builders


class LargeGroups:
    """Seven groups of order 343-1024, in an order shuffled by the seed.

    Each is constructed (timed), then goes through `analysis.build_report`
    and an edge-list export of its non-centralizer graph. One operation is one
    group's report text, edge count and order. `cyclic:2048` and
    `dihedral:512` are left out: they alone take about 15 s a pass.
    """

    name = "large-groups"

    def __init__(self, seed: int, root: Path):
        self.inputs = list(_large_builders())
        random.Random(seed).shuffle(self.inputs)

    def fresh(self):
        return self.inputs

    def run(self, order):
        builders = _large_builders()
        out = []
        for label in order:
            try:
                g = builders[label]()
                report = analysis.build_report(g, label).to_text()
                edges = graph.export(graph.build_graph(g), "edge-list").count("\n")
                out.append((label, f"{report}\nedges: {edges}\norder: {g.order}"))
            except Exception as exc:  # counted as a failed operation
                out.append((label, f"raised {type(exc).__name__}: {exc}"))
            g = None  # release the table before the next group is built
        return out

    @staticmethod
    def outputs(raw) -> dict[str, str]:
        return dict(raw)

    def operations(self) -> list[str]:
        return list(_large_builders())


WORKLOADS = {w.name: w for w in (VerifySuite, Table1Search, LargeGroups)}


def check(workload, outputs: dict[str, str], reference: dict[str, str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one pass against the reference."""
    ops = workload.operations()
    failed = [op for op in ops if outputs.get(op) != reference.get(op)]
    extra = sorted(set(outputs) - set(ops) - set(reference))
    mismatched = [k for k in reference if k not in ops and outputs.get(k) != reference[k]]
    problems = [f"operation {op!r} differs" for op in failed]
    problems += [f"unexpected output {k!r}" for k in extra]
    problems += [f"{k!r} differs" for k in mismatched]
    return len(ops), len(failed), problems
