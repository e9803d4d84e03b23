"""genschur benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload table --seed 7 --seconds 10 --trace 0

Run from the root of a checkout of the repository.  Each measured unit runs
in a fresh worker process (``workloads.py``).  With ``--trace 0`` the run
repeats units until ``--seconds`` have passed (at least one unit), adds
set-up-only workers until there are ``SETUP_SAMPLES`` set-up times, and
prints the end-to-end metrics.  With ``--trace 1`` it runs one untraced
and one traced unit and prints the per-layer metrics; the difference of
their verdict times is the tracing overhead.  Every unit's outputs are
checked against the references recorded in ``references/<size>/``.

Times are wall-clock seconds scaled to a nominal machine speed: each is
multiplied by ``PROBE_NOMINAL_S`` over the mean time the worker's speed
probe took during that interval (see ``workloads.SpeedProbe``).  The
unscaled medians are in the environment stamp.

Standard output ends with two JSON lines: an environment stamp
(``{"env": ...}``) and the result
``{"correct", "attempted", "failed", "metrics"}``.  A traced run also
writes its spans and aggregates to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import INSTANCES, PROBE_NOMINAL_S, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7       # set-up times per untraced run; the median is reported
RUN_DEADLINE_S = 170    # a run gives up (exit 1, no result) after this long

END_TO_END = (("setup_s", "s"), ("verdict_s", "s"), ("peak_rss_mb", "MB"),
              ("passed_ratio", "ratio"))


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# workers

def spawn(workload, seed, size, mode, trace, deadline):
    """Run one worker; returns (wall seconds from spawn to ready, mean probe
    loop time during set-up, result or None)."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--mode", mode,
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        setup_s = None
        for line in proc.stdout:
            if line.startswith("ready "):
                setup_s = time.perf_counter() - t0
                probe_s = float(line.split()[1])
                break
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or setup_s is None:
        raise BenchError(f"worker {' '.join(cmd[1:])} failed with exit code "
                         f"{code}")
    if mode == "setup":
        return setup_s, probe_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(cmd[1:])} printed no result")
    return setup_s, probe_s, json.loads(lines[-1])


def scaled(seconds, probe_s):
    """Seconds at the nominal speed, from seconds at the probed speed."""
    return seconds * PROBE_NOMINAL_S / probe_s


# ---------------------------------------------------------------------------
# checking outputs against the recorded references

def _compare_maps(got, want):
    """One operation per key of either map; returns (attempted, failed ids)."""
    keys = sorted(set(got) | set(want))
    return len(keys), [k for k in keys if got.get(k) != want.get(k)]


def normalized_report(report):
    if not isinstance(report, dict):
        return report
    report = dict(report)
    config = dict(report.get("config") or {})
    config["seed"] = None  # the only seed-dependent field of the report
    report["config"] = config
    return report


def compare(workload, outputs, reference):
    """(attempted, ids of failed operations) for one unit's outputs."""
    if workload == "table":
        return _compare_maps(outputs.get("rows", {}), reference["rows"])
    if workload == "dcp":
        return _compare_maps(outputs.get("reports", {}), reference["reports"])
    # verify: one operation per check, plus the exit code and report frame
    got = normalized_report(outputs.get("report"))
    want = normalized_report(reference["report"])
    got_checks = got.get("checks", []) if isinstance(got, dict) else []
    want_checks = want["checks"]
    failed = []
    for k in range(max(len(got_checks), len(want_checks))):
        a = got_checks[k] if k < len(got_checks) else None
        b = want_checks[k] if k < len(want_checks) else None
        if a != b:
            failed.append((b or a or {}).get("id", f"check {k}"))
    frame_ok = (outputs.get("exit_code") == reference["exit_code"]
                and isinstance(got, dict)
                and {k: v for k, v in got.items() if k != "checks"}
                == {k: v for k, v in want.items() if k != "checks"})
    if not frame_ok:
        failed.append("exit code")
    return max(len(got_checks), len(want_checks)) + 1, failed


def load_reference(ref_dir, workload):
    with open(Path(ref_dir) / f"{workload}.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# environment stamp

def _commit():
    """HEAD commit when the checkout is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    """sha256 over the library sources, which identifies a checkout that
    is not a git work tree."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(opts, sizes, units, setup_samples, overhead, missing,
                wall):
    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": opts.workload,
        "size": opts.size,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "instances": sizes,
        "units": units,
        "setup_samples": setup_samples,
        "tracing_overhead_s": overhead,
        "missing_hooks": missing,
        "unscaled": wall,
    }


# ---------------------------------------------------------------------------

def run(opts):
    deadline = time.monotonic() + RUN_DEADLINE_S
    reference = load_reference(opts.references, opts.workload)
    args = (opts.workload, opts.seed, opts.size)
    results = []
    setups = []  # (wall seconds, probe loop seconds)
    if opts.trace:
        results = [spawn(*args, "unit", trace, deadline)[2]
                   for trace in (0, 1)]
    else:
        start = time.monotonic()
        while not results or time.monotonic() - start < opts.seconds:
            setup_s, probe_s, res = spawn(*args, "unit", 0, deadline)
            results.append(res)
            setups.append((setup_s, probe_s))
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(*args, "setup", 0, deadline)[:2])
    for res in results:
        res["scaled_verdict_s"] = scaled(res["verdict_s"], res["probe_s"])

    attempted = 0
    failed = []
    for res in results:
        n, bad = compare(opts.workload, res["outputs"], reference)
        attempted += n
        failed.extend(bad)
    if failed:
        print(f"{len(failed)} failed operations, first: {failed[:5]}",
              file=sys.stderr)

    sizes = results[0]["sizes"]
    overhead = None
    missing = []
    if opts.trace:
        plain, traced = results
        overhead = traced["scaled_verdict_s"] - plain["scaled_verdict_s"]
        trace = traced["trace"]
        missing = trace["missing_hooks"]
        if missing:
            print(f"trace hooks not found: {missing}", file=sys.stderr)
        units = dict(tracing.PER_LAYER)
        values = dict(trace["metrics"])
        values["combinatorics.basis.s"] = traced["basis_s"]
        # per-layer times are scaled like the traced unit's verdict time
        values = {name: scaled(v, traced["probe_s"]) if units[name] == "s"
                  else v for name, v in values.items()}
        values["combinatorics.basis.size"] = sum(
            s["basis"] for s in sizes.values())
        values["bench.tracing_overhead_s"] = overhead
        wall = {"verdict_s": [r["verdict_s"] for r in results]}
    else:
        values = {
            "setup_s": statistics.median(scaled(*s) for s in setups),
            "verdict_s": statistics.median(r["scaled_verdict_s"]
                                           for r in results),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024
                                             for r in results),
            "passed_ratio": (attempted - len(failed)) / attempted,
        }
        units = dict(END_TO_END)
        wall = {"setup_s": statistics.median(s[0] for s in setups),
                "verdict_s": statistics.median(r["verdict_s"]
                                               for r in results)}
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in units.items()}

    env = environment(opts, sizes, len(results), len(setups), overhead,
                      missing, wall)
    if opts.trace:
        env["traced_matches_untraced"] = (results[0]["outputs"]
                                          == results[1]["outputs"])
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{opts.workload}-{opts.size}-{opts.seed}.json"
        with open(path, "w") as fh:
            json.dump({"env": env, "metrics": metrics,
                       "untraced_verdict_s": results[0]["scaled_verdict_s"],
                       "traced_verdict_s": results[1]["scaled_verdict_s"],
                       "covered": trace["covered"],
                       "spans": trace["spans"],
                       "aggregates": trace["aggregates"]}, fh, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="keep starting units until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(INSTANCES), default="full",
                   help="instance sizes; 'tiny' is for the self-test")
    p.add_argument("--references",
                   help="directory of reference outputs "
                        "(default: perfbench/references/<size>)")
    opts = p.parse_args(argv)
    if opts.references is None:
        opts.references = str(HERE / "references" / opts.size)
    if not (ROOT / "src" / "genschur").is_dir():
        print(f"no library sources at {ROOT / 'src' / 'genschur'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    try:
        run(opts)
    except (BenchError, OSError, ValueError, KeyError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
