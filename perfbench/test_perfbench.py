"""Self-test of the benchmark; it checks names and outputs, never timings.

    python -m pytest perfbench/test_perfbench.py -q

Each workload runs in its ``--smoke`` form (short job lists, one pass) in
a subprocess, untraced and traced, so every check of the workload runs to
its end and the printed metric names can be compared with BENCHMARK.json.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_declared_workloads_are_the_runnable_ones():
    sys.path.insert(0, BENCH)
    try:
        import run
    finally:
        sys.path.remove(BENCH)
    assert [w["name"] for w in SPEC["workloads"]] == ["identities", "evolve", "pointwise"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert all(m["better"] in ("lower", "higher")
               for m in SPEC["end_to_end"] + SPEC["per_layer"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["identities", "evolve", "pointwise"])
def test_smoke_run_prints_declared_metrics(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] > 0 and result["failed"] == 0
    declared = {m["name"]: m for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]["unit"], name
        assert isinstance(metric["value"], (int, float)), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("identities", 0, cwd=tmp_path,
                script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
