"""noncent benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 35 --trace 0

With --trace 0 it measures set-up time in fresh interpreters, then runs timed
passes of the workload until --seconds is used up, and reports setup_s,
pass_norm_s, cpu_norm_s and peak_rss_mb (the raw pass_s and cpu_s are
printed above the result). With --trace 1 it alternates untraced and traced
passes (see tracer.py) and reports the per-layer metrics. Every pass is
checked against reference.json; the last line of stdout is the result as
one JSON object.
"""

from __future__ import annotations

import os

# One thread per process: set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import noncent  # noqa: E402

if Path(noncent.__file__).resolve().parent != SRC / "noncent":
    raise SystemExit(f"noncent was imported from {noncent.__file__}, not from {SRC}")

from tracer import Tracer, metric_specs  # noqa: E402
from workloads import WORKLOADS, check  # noqa: E402

# Set-up samples taken before and again after the passes, so that the
# median spans the run rather than one moment of the host's speed.
SETUP_RUNS = 6
SETUP_CODE = ("import noncent.cli\n"
              "from noncent import catalog\n"
              "for name in catalog.SHIPPED:\n"
              "    catalog.load(catalog.shipped_path(name))\n")


def measure_setup(runs: int, warm_up: bool) -> list[float]:
    """Wall time of fresh interpreters that import noncent.cli and load the
    four shipped catalogs (groups stay lazy). A warm-up interpreter, which may
    write bytecode caches, is not counted."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(runs + warm_up):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True)
        if i or not warm_up:
            times.append(time.perf_counter() - t0)
    return times


# Machine-speed calibration. On shared 2-core machines the CPU speed seen by
# one process switches between levels about 1.5x apart, for seconds to
# minutes at a time, so raw pass times of one seed differ by 20-30% from run
# to run. Each timed pass is bracketed by a fixed kernel (interpreter loop
# plus numpy gather, owned by the benchmark so no change to noncent moves
# it), and pass_norm_s scales the pass by CALIB_REF_S over the kernel's mean
# time around it: the pass time on a machine where the kernel takes
# CALIB_REF_S.
CALIB_REF_S = 0.016
_CAL_VALUES = np.arange(1 << 18, dtype=np.int64)
_CAL_INDEX = np.random.default_rng(0).integers(0, 1 << 18, 1 << 18)


def calibrate() -> float:
    """Median of three timings of the calibration kernel, in seconds."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        table: dict[int, int] = {}
        acc = 0
        for i in range(30000):
            table[i & 1023] = i
            acc += table.get((i * 7) & 1023, 0)
        for _ in range(5):
            acc += int(_CAL_VALUES[_CAL_INDEX].sum())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(workload, tracer=None):
    """One timed pass: (wall s, cpu s, outputs)."""
    inputs = workload.fresh()
    gc.collect()
    if tracer:
        tracer.install()
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            raw = workload.run(inputs)
        except Exception as exc:  # every operation of the pass fails
            print(f"pass raised {type(exc).__name__}: {exc}", file=sys.stderr)
            raw = None
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    finally:
        if tracer:
            tracer.uninstall()
    outputs = {} if raw is None else workload.outputs(raw)
    return wall, cpu, outputs


def describe(values: list[float]) -> str:
    return (f"median {statistics.median(values):.4f} of n={len(values)} "
            f"(min {min(values):.4f}, max {max(values):.4f})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"nproc {os.cpu_count()}, noncent {noncent.__version__}")
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]

    setup = [] if args.trace else measure_setup(SETUP_RUNS, warm_up=True)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, Path(scratch))
        print(f"{args.workload}: inputs for seed {args.seed} built in "
              f"{time.perf_counter() - t0:.2f} s (untimed)")

        tracer = Tracer() if args.trace else None
        walls, cpus = [], []
        norm_walls, norm_cpus = [], []
        calib = [] if tracer else [calibrate()]
        attempted = failed = 0
        problems: set[str] = set()
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            # A traced run alternates untraced and traced passes, so the
            # tracing overhead compares passes made close together.
            for t in ([None, tracer] if tracer else [None]):
                wall, cpu, outputs = run_pass(workload, t)
                n, bad, why = check(workload, outputs, reference)
                attempted, failed = attempted + n, failed + bad
                problems.update(why)
                if t is None:
                    walls.append(wall)
                    cpus.append(cpu)
                    if len(walls) == 1:  # later passes add allocator noise, not work
                        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    if not tracer:
                        calib.append(calibrate())
                        scale = CALIB_REF_S / ((calib[-2] + calib[-1]) / 2)
                        norm_walls.append(wall * scale)
                        norm_cpus.append(cpu * scale)
                else:
                    t.end_pass(wall)
            now = time.perf_counter()
            if now - start + (now - round_start) > args.seconds:
                break

    if not args.trace:
        setup += measure_setup(SETUP_RUNS, warm_up=False)
    for p in sorted(problems):
        print(f"check: {p}", file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "pass_norm_s": (statistics.median(norm_walls), "s"),
            "cpu_norm_s": (statistics.median(norm_cpus), "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }
        print(f"setup_s     {describe(setup)} s")
        print(f"pass_s      {describe(walls)} s (raw)")
        print(f"cpu_s       {describe(cpus)} s (raw)")
        print(f"calibration {describe(calib)} s (reference {CALIB_REF_S} s)")
        print(f"pass_norm_s {describe(norm_walls)} s")
        print(f"cpu_norm_s  {describe(norm_cpus)} s")
        print(f"peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB (this process, through its first pass)")
    else:
        values = tracer.metrics(untraced_pass_s=statistics.median(walls))
        metrics = {name: (values[name], unit) for name, unit, _ in metric_specs()}
        print(f"untraced pass_s {describe(walls)} s")
        print(f"traced pass_s   {describe(tracer.pass_walls)} s")
        print(f"coverage {values['coverage']:.4f}, unattributed {values['unattributed_s']:.4f} s, "
              f"overhead {values['overhead_s']:.4f} s (difference of medians)")
    print(f"fail_frac {failed / attempted:.6f} ratio ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
