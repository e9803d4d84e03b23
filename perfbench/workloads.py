"""One measured unit of a genschur benchmark workload, in its own process.

Run as a worker by ``run.py``:

    python3 perfbench/workloads.py --workload table --seed 7 --size full \
        --mode unit --trace 0

The worker builds its inputs from the seed (set-up), prints ``ready`` on
standard output, and in ``unit`` mode then computes the workload's
verdicts once and prints one JSON line with the verdict time, the outputs
to check, its peak memory and, when traced, the per-layer trace.  In
``setup`` mode it exits right after ``ready``, so that the parent can time
set-up alone.  Every unit runs in a fresh process, so no cache of the
library survives from one unit into the next.

On a shared virtual machine the CPU speed can drift by a quarter within
minutes (it did on the 2-core machine the baseline was taken on), so a
``SpeedProbe`` thread times a fixed pure-Python loop every 10 ms during
set-up and during the verdict, and the ``ready`` line and the result carry
the mean loop time.  ``run.py`` scales times to the speed at which the
loop takes ``PROBE_NOMINAL_S``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import threading
import time
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Instances per workload.  "full" is what the benchmark measures; "tiny" is
# for the self-test and finishes in well under a second per unit.
INSTANCES = {
    "full": {
        "table": {"algebra": "ext-zigzag:2", "n": 2, "d": 2},
        "dcp": [
            {"algebra": "ext-zigzag:1", "n": 2, "d": 2, "idempotent": {"e0": 1}},
            {"algebra": "even-matrix:2", "n": 2, "d": 2,
             "idempotent": {"E1_1": 1}},
        ],
        "verify": {"algebra": "zigzag:2", "n": 2, "d": 2},
    },
    "tiny": {
        "table": {"algebra": "ext-zigzag:1", "n": 1, "d": 2},
        "dcp": [
            {"algebra": "ext-zigzag:1", "n": 1, "d": 2, "idempotent": {"e0": 1}},
            {"algebra": "even-matrix:2", "n": 1, "d": 2,
             "idempotent": {"E1_1": 1}},
        ],
        "verify": {"algebra": "zigzag:1", "n": 1, "d": 2},
    },
}
WORKLOADS = ("table", "dcp", "verify")

PROBE_NOMINAL_S = 1.2e-4  # probe loop time at the speed times are scaled to
PROBE_PERIOD_S = 0.01


def probe_loop(n=2000):
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


class SpeedProbe(threading.Thread):
    """Times ``probe_loop`` in this thread's CPU time every 10 ms.

    The loop takes about 1% of the process's time; the GIL hands over at
    most every 10 ms, the same in every unit.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.samples = []
        self._done = threading.Event()

    def run(self):
        while not self._done.wait(PROBE_PERIOD_S):
            t0 = time.thread_time()
            probe_loop()
            self.samples.append(time.thread_time() - t0)

    def stop(self):
        self._done.set()
        self.join()

    def mean_since(self, k):
        """Mean loop time of the samples from index k on; one sample taken
        here when none was (a window shorter than the period)."""
        got = self.samples[k:]
        if not got:
            t0 = time.thread_time()
            probe_loop()
            got = [time.thread_time() - t0]
        return sum(got) / len(got)


def instance_key(cfg):
    return f"{cfg['algebra']} n={cfg['n']} d={cfg['d']}"


class Prepared(NamedTuple):
    """Inputs of one unit: ``run`` computes, ``finish`` turns its raw
    result into JSON-ready outputs outside the timed region."""

    run: Callable
    finish: Callable
    sizes: dict
    basis_s: float


def _ambient(cfg):
    from genschur import schur, superalgebra
    pres = superalgebra.builtin(cfg["algebra"])
    amb = schur.Ambient(pres, cfg["n"], cfg["d"])
    t0 = time.perf_counter()
    basis = amb.basis()
    return pres, amb, basis, time.perf_counter() - t0


def setup_table(cfg, seed):
    """Every ordered pair of scaled basis elements, as `genschur dump`
    multiplies them, in row and column orders the seed shuffles."""
    from genschur import schur
    _, amb, basis, basis_s = _ambient(cfg)
    elems = [amb.scaled_element(T) for T in basis]
    rng = random.Random(seed)
    rows = list(range(len(basis)))
    cols = list(range(len(basis)))
    rng.shuffle(rows)
    rng.shuffle(cols)

    def run():
        multiply = schur.multiply  # looked up here so a tracer sees the calls
        found = {}
        for i in rows:
            x = elems[i]
            got = []
            try:
                for j in cols:
                    p = multiply(x, elems[j])
                    if p.coeffs:
                        got.append((j, p.coeffs))
            except Exception as err:  # a raising row is a failed operation
                got = f"{type(err).__name__}: {err}"
            found[i] = got
        return found

    def finish(found):
        text = [schur.format_triple(amb, T) for T in basis]
        index = {T: k for k, T in enumerate(basis)}
        digests = {}
        for i, got in found.items():
            if isinstance(got, str):
                digests[text[i]] = got
                continue
            entries = sorted((text[j], text[index[V]], str(c))
                             for j, coeffs in got for V, c in coeffs.items())
            blob = json.dumps(entries, separators=(",", ":")).encode()
            digests[text[i]] = hashlib.sha256(blob).hexdigest()
        return {"rows": digests}

    sizes = {instance_key(cfg): {"basis": len(basis),
                                 "pairs": len(basis) ** 2}}
    return Prepared(run, finish, sizes, basis_s)


def setup_dcp(cfgs, seed):
    """`dcp.schur_dcp` on the standard truncation in the scaled basis, one
    fresh ambient per instance, instances in an order the seed picks."""
    from genschur import dcp, schur
    order = list(cfgs)
    random.Random(seed).shuffle(order)
    jobs = []
    sizes = {}
    basis_s = 0.0
    for cfg in order:
        pres, amb, basis, took = _ambient(cfg)
        basis_s += took
        jobs.append((instance_key(cfg), amb, pres.element(cfg["idempotent"])))
        sizes[instance_key(cfg)] = {"basis": len(basis),
                                    "pairs": len(basis) ** 2}

    def run():
        out = {}
        for key, amb, e in jobs:
            try:
                rep, _ = dcp.schur_dcp(amb, e, schur.SCALED)
                out[key] = rep.to_json_dict()
            except Exception as err:  # a raising verdict is a failed operation
                out[key] = f"{type(err).__name__}: {err}"
        return out

    return Prepared(run, lambda out: {"reports": out}, sizes, basis_s)


def setup_verify(cfg, seed):
    """`genschur verify ... --format json all`, in process through
    `cli.main`, with one job."""
    from genschur import cli
    _, _, basis, basis_s = _ambient(cfg)
    argv = ["verify", "--algebra", cfg["algebra"], "-n", str(cfg["n"]),
            "-d", str(cfg["d"]), "--seed", str(seed), "--format", "json",
            "--jobs", "1", "all"]

    def run():
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception as err:  # a raising command fails every check
            return {"exit_code": None, "report": None,
                    "error": f"{type(err).__name__}: {err}"}
        return {"exit_code": code, "report": buf.getvalue()}

    def finish(out):
        if out["report"] is not None:
            try:
                out["report"] = json.loads(out["report"])
            except ValueError:
                pass  # kept as text; it will not match the reference
        return out

    sizes = {instance_key(cfg): {"basis": len(basis),
                                 "pairs": len(basis) ** 2}}
    return Prepared(run, finish, sizes, basis_s)


SETUPS = {"table": setup_table, "dcp": setup_dcp, "verify": setup_verify}


def prepare(workload, size, seed):
    """Import the library and build one unit's inputs."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return SETUPS[workload](INSTANCES[size][workload], seed)


def measure(prep, tracer=None, probe=None):
    """Run one unit; returns (verdict seconds, mean probe loop seconds
    during the verdict or None, outputs, trace summary or None)."""
    k = len(probe.samples) if probe is not None else 0
    if tracer is not None:
        tracer.start()
    t0 = time.perf_counter()
    try:
        raw = prep.run()
        verdict_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.stop()
    probe_s = probe.mean_since(k) if probe is not None else None
    summary = tracer.summary(verdict_s) if tracer is not None else None
    return verdict_s, probe_s, prep.finish(raw), summary


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=tuple(INSTANCES), default="full")
    p.add_argument("--mode", choices=("unit", "setup"), default="unit")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = p.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    prep = prepare(opts.workload, opts.size, opts.seed)
    print(f"ready {probe.mean_since(0)!r}", flush=True)
    if opts.mode == "setup":
        probe.stop()
        return 0
    tracer = None
    if opts.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        verdict_s, probe_s, outputs, trace = measure(prep, tracer, probe)
    finally:
        if tracer is not None:
            tracer.uninstall()
        probe.stop()
    result = {
        "verdict_s": verdict_s,
        "probe_s": probe_s,
        "basis_s": prep.basis_s,
        "sizes": prep.sizes,
        "outputs": outputs,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": trace,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
