"""Run every workload once and print the end-to-end metrics as one table.

    python3 perfbench/report.py [--seed 1] [--seconds 35]

Each workload runs in its own `run.py` process, so its peak RSS is its own.
Exits 1 if any workload reports an incorrect output.
"""

import argparse
import json
import subprocess
import sys

from run import HERE
from workloads import WORKLOADS

COLUMNS = [("setup_s", "s"), ("pass_norm_s", "s"), ("cpu_norm_s", "s"), ("peak_rss_mb", "MB")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    args = ap.parse_args()

    header = [f"{name} ({unit})" for name, unit in COLUMNS] + ["fail_frac (ratio)"]
    print(f"{'workload':<14} " + " ".join(f"{h:>18}" for h in header))
    all_correct = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        all_correct &= result["correct"]
        cells = [f"{result['metrics'][m]['value']:.4f}" for m, _ in COLUMNS]
        cells.append(f"{result['failed'] / result['attempted']:.4f}")
        print(f"{name:<14} " + " ".join(f"{c:>18}" for c in cells))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
