"""Record the reference outputs that ``run.py`` checks every unit against.

    python3 perfbench/record_references.py --size tiny
    python3 perfbench/record_references.py --size full --workload dcp

Runs one untraced unit per workload at two seeds, requires the outputs to
agree (the references hold for every seed), and writes
``references/<size>/<workload>.json``.  Re-record only when a change to
the library is meant to change these outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from run import HERE, RUN_DEADLINE_S, normalized_report, spawn
from workloads import INSTANCES, WORKLOADS

SEEDS = (1, 2)


def record(workload, size):
    outputs = []
    for seed in SEEDS:
        deadline = time.monotonic() + RUN_DEADLINE_S
        res = spawn(workload, seed, size, "unit", 0, deadline)[2]
        out = res["outputs"]
        if workload == "verify":
            out["report"] = normalized_report(out["report"])
        outputs.append(out)
    if any(out != outputs[0] for out in outputs):
        raise SystemExit(f"{workload}: outputs differ between seeds {SEEDS}")
    path = HERE / "references" / size / f"{workload}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(outputs[0], fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path.relative_to(HERE.parent)}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--size", choices=tuple(INSTANCES), required=True)
    p.add_argument("--workload", choices=WORKLOADS, action="append",
                   help="default: every workload")
    opts = p.parse_args(argv)
    for workload in opts.workload or WORKLOADS:
        record(workload, opts.size)
    return 0


if __name__ == "__main__":
    sys.exit(main())
