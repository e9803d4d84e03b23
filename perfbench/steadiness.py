"""Repeat benchmark runs over seeds and summarize each metric's spread.

    python3 perfbench/steadiness.py --out perfbench/baseline.json

For each workload this runs ``run.py`` ``RUNS`` times untraced (seeds
``SEED_BASE`` on) and ``TRACED_RUNS`` times traced (seeds ``SEED_BASE`` on),
for ``run_seconds`` from ``BENCHMARK.json``, in fresh processes one after
another.  These are the settings ``baseline.json`` was taken with.  For every metric it records the values, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the sample count;
for end-to-end metrics also the spread, (q3 - q1) / median, next to the
bound from ``BENCHMARK.json``.  A spread counts as steady below a third of
its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUNS = 10
TRACED_RUNS = 3
SEED_BASE = 1000


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=200)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def summarize(values, bound=None):
    out = {"values": values, "n": len(values),
           "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
        if bound is not None and out["median"]:
            out["spread"] = (q3 - q1) / out["median"]
            out["bound"] = bound
    return out


def measure(workload, seconds, bounds):
    record = {"end_to_end": {}, "per_layer": {}, "runs": []}
    for trace, count, key in ((0, RUNS, "end_to_end"),
                              (1, TRACED_RUNS, "per_layer")):
        values = {}
        for k in range(count):
            seed = SEED_BASE + k
            env, result = one_run(workload, seed, seconds, trace)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: "
                                 f"{result['failed']} failed operations")
            record["runs"].append({"seed": seed, "trace": trace, "env": env,
                                   "attempted": result["attempted"],
                                   "failed": result["failed"]})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} trace={trace} seed={seed} " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
                if trace == 0), file=sys.stderr, flush=True)
        for name, vals in values.items():
            record[key][name] = summarize(vals, bounds.get(name) if trace == 0
                                          else None)
    return record


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in bench["workloads"]],
                   help="default: every workload")
    p.add_argument("--out", help="write the summary JSON here")
    opts = p.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": seconds, "workloads": {}}
    steady = True
    for w in opts.workload or [w["name"] for w in bench["workloads"]]:
        rec = measure(w, seconds, bounds)
        summary["workloads"][w] = rec
        for name, s in rec["end_to_end"].items():
            mark = ""
            if "spread" in s:
                ok = s["spread"] < s["bound"] / 3 or name == "setup_s"
                steady = steady and ok
                mark = f"spread={s['spread']:.4f} bound={s['bound']}" + \
                    ("" if ok else "  NOT STEADY")
            print(f"{w:8s} {name:14s} median={s['median']:.6g} {mark}")
    if opts.out:
        with open(opts.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
