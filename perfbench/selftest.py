"""Self-test of the benchmark harness (takes about a minute).

    python3 perfbench/selftest.py

Checks that
- the tracer leaves no module, class or dict in noncent holding an unwrapped
  original of a traced function, counts calls made through copied names and
  the CHECK_IDS dict, and restores every original afterwards;
- BENCHMARK.json names exactly the workloads and metrics run.py reports;
- the reference rows are the paper's Table 1;
- two different seeds give different inputs but identical checked outputs,
  equal to the reference, on every workload.
"""

import json
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, run_pass
from tracer import Tracer, metric_specs, span_targets, unwrapped_references
from workloads import WORKLOADS, check

from noncent import catalog, checks, core, families

TABLE1_ROWS = {
    6: ["[8,3]", "[8,4]"],
    12: ["[16,3]", "[16,4]", "[16,6]", "[16,13]"],
    24: ["[32,2]", "[32,4]", "[32,5]", "[32,12]", "[32,17]", "[32,24]", "[32,38]"],
    30: ["[32,49]", "[32,50]"],
    48: ["[64,3]", "[64,17]", "[64,27]", "[64,29]", "[64,44]", "[64,51]",
         "[64,57]", "[64,86]", "[64,112]", "[64,185]"],
    56: [f"[64,{i}]" for i in range(73, 83)],
    60: (["[64,199]", "[64,200]", "[64,201]"]
         + [f"[64,{i}]" for i in range(226, 241)] + ["[64,249]", "[64,266]"]),
}

failures = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def test_tracer() -> None:
    originals = span_targets()
    tracer = Tracer()
    tracer.install()
    try:
        expect(unwrapped_references(originals.values()) == [],
               "no unwrapped original left in noncent while tracing")
        expect(catalog.from_table is tracer.wrappers["core.from_table"],
               "copied name catalog.from_table is wrapped")
        expect(all(checks.CHECK_IDS[cid] is tracer.wrappers[f"checks.{cid}"]
                   for cid in checks.CHECK_IDS), "every CHECK_IDS value is wrapped")
        g = families.dihedral(4)
        checks.run_suite([("D8", g)])
        tracer.end_pass(1.0)
    finally:
        tracer.uninstall()
    stats = tracer.stats
    expect(stats["families.dihedral"].calls == 1 and stats["core.from_table"].calls >= 1,
           "calls through families' copy of from_table are counted")
    expect(all(stats[f"checks.{cid}"].calls == 1 for cid in checks.CHECK_IDS),
           "run_suite's dispatch through CHECK_IDS reaches every check span")
    expect(stats["analysis.beta_partition"].calls > 0, "beta_partition calls are counted")
    wrappers = {id(w) for w in tracer.wrappers.values()}
    expect(unwrapped_references(tracer.wrappers.values()) == []
           and core.from_table is originals["core.from_table"]
           and all(id(f) not in wrappers for f in checks.CHECK_IDS.values()),
           "uninstall restores every original")


def test_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads match workloads.py")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == metric_specs(),
           "BENCHMARK.json per_layer metrics match what the traced run reports")
    expect({m["name"] for m in spec["end_to_end"]} == {"setup_s", "pass_norm_s", "cpu_norm_s", "peak_rss_mb"},
           "BENCHMARK.json end_to_end metrics match what run.py reports")


def test_table1_reference() -> None:
    reference = json.loads((HERE / "reference.json").read_text())["table1-search"]
    for n, labels in TABLE1_ROWS.items():
        row = f"n={n}: {', '.join(sorted(labels, key=catalog.label_sort_key))}  ({len(labels)} groups)"
        expect(reference[f"n={n}"] == row, f"reference row n={n} is the paper's row")


def test_seeds() -> None:
    reference = json.loads((HERE / "reference.json").read_text())
    for name, cls in WORKLOADS.items():
        outputs, inputs = [], []
        for seed in (1, 2):
            with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
                workload = cls(seed, Path(scratch))
                inputs.append(_input_fingerprint(workload))
                _, _, out = run_pass(workload)
            attempted, failed, problems = check(workload, out, reference[name])
            expect(failed == 0 and not problems,
                   f"{name} seed {seed}: {attempted} operations equal the reference")
            outputs.append(out)
        expect(inputs[0] != inputs[1], f"{name}: seeds 1 and 2 give different inputs")
        expect(outputs[0] == outputs[1], f"{name}: seeds 1 and 2 give identical outputs")


def _input_fingerprint(workload):
    """The seeded inputs, with tables as bytes so they compare by value."""
    return [tuple(x.tobytes() if hasattr(x, "tobytes") else x for x in item)
            if isinstance(item, tuple) else item for item in workload.inputs]


if __name__ == "__main__":
    test_tracer()
    test_benchmark_json()
    test_table1_reference()
    test_seeds()
    print(f"{len(failures)} failures")
    sys.exit(1 if failures else 0)
