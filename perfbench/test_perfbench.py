"""Self-test of the benchmark on tiny instances (a few seconds in all).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
PASSED_BOUND = next(m["bound"] for m in BENCH["end_to_end"]
                    if m["name"] == "passed_ratio")

# The outermost traced calls of each workload's unit; each has per-layer
# metrics that give its total time.
COVERED = {
    "table": {"schur.multiply"},
    "dcp": {"dcp.schur_dcp"},
    "verify": {f"cli.suite.{s}" for s in tracing.CLI_SUITES} | {"cli.emit"},
}


def bench(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace),
           "--size", "tiny", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload):
    for trace, listed in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
        env, result = bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        printed = result["metrics"]
        assert set(printed) == {m["name"] for m in listed}
        for m in listed:
            assert printed[m["name"]]["unit"] == m["unit"]
            assert isinstance(printed[m["name"]]["value"], (int, float))
        assert env["instances"] and env["python"] and env["nproc"]
        if trace:
            assert env["missing_hooks"] == []
            assert env["traced_matches_untraced"]
            assert isinstance(env["tracing_overhead_s"], float)


def _library_bindings():
    """Every module global, class attribute and check of the library."""
    from genschur import cli
    out = {("CHECKS", k): v for k, v in cli.CHECKS.items()}
    for name, mod in sorted(sys.modules.items()):
        if not name.startswith("genschur."):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def test_traced_run_restores_the_library():
    prep = workloads.prepare("dcp", "tiny", 3)
    before = _library_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = _library_bindings()
        _, _, outputs, summary = workloads.measure(prep, tracer)
    finally:
        tracer.uninstall()
    after = _library_bindings()
    assert tracer.missing == []
    assert any(wrapped[k] is not before[k] for k in before)
    assert summary["metrics"]["schur.multiply.calls"] > 0
    assert summary["metrics"]["exactlin.integer_kernel.calls"] > 0
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    reference = json.loads((HERE / "references" / "tiny" / "dcp.json")
                           .read_text())
    assert outputs == reference


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_unattributed_time_is_what_no_metric_covers(workload):
    prep = workloads.prepare(workload, "tiny", 3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        verdict_s, _, _, summary = workloads.measure(prep, tracer)
    finally:
        tracer.uninstall()
    covered = summary["covered"]
    assert covered and set(covered) <= COVERED[workload]
    assert summary["metrics"]["bench.unattributed_s"] == pytest.approx(
        verdict_s - sum(covered.values()))


def _corrupt(workload, ref):
    if workload == "table":
        row = sorted(ref["rows"])[0]
        ref["rows"][row] = "0" * 64
    elif workload == "dcp":
        key = sorted(ref["reports"])[0]
        ref["reports"][key]["divisors"].append(7)
    else:
        ref["report"]["checks"][0]["status"] = "fail"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_reference_is_counted_as_failed(workload, tmp_path):
    shutil.copytree(HERE / "references" / "tiny", tmp_path, dirs_exist_ok=True)
    path = tmp_path / f"{workload}.json"
    ref = json.loads(path.read_text())
    _corrupt(workload, ref)
    path.write_text(json.dumps(ref))
    _, result = bench(workload, 0, "--references", str(tmp_path))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert 1 - result["metrics"]["passed_ratio"]["value"] > PASSED_BOUND


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_failed_operation_exceeds_the_bound_on_full_instances(workload):
    # every unit checks the same operations, so one wrong output per unit
    # lowers passed_ratio by 1 / (operations per unit), however many units
    reference = run.load_reference(HERE / "references" / "full", workload)
    per_unit, failed = run.compare(workload, {}, reference)
    assert len(failed) == per_unit
    assert 1 / per_unit > PASSED_BOUND
