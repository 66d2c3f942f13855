"""Record the reference outputs every benchmark pass is checked against.

    python3 perfbench/record_reference.py

Runs one untimed pass of each workload with seed 0 and writes
perfbench/reference.json. The committed file was recorded from the code the
benchmark was introduced with; re-recording it hides any change in output,
so do it only for an output change that is intended and named in CHANGES.md.
"""

import json
import tempfile
from pathlib import Path

from run import HERE, ROOT, run_pass
from workloads import WORKLOADS


def main() -> None:
    reference = {}
    for name, cls in WORKLOADS.items():
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
            workload = cls(0, Path(scratch))
            _, _, outputs = run_pass(workload)
        missing = set(workload.operations()) - set(outputs)
        if missing:
            raise SystemExit(f"{name}: no output for {sorted(missing)}")
        reference[name] = outputs
        print(f"{name}: {len(outputs)} outputs")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
