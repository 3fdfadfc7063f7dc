"""Smoke test of the benchmark: a tiny run of every workload, traced and untraced.

Run from the repository root with ``python3 -m pytest -q bench/test_smoke.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# screen-files usually passes the 100 operations that op_p90_s requires in 3 s
SECONDS = {"analyze-edge": 1, "screen-files": 3, "analyze-separable": 1}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", str(SECONDS[workload]), "--trace", str(trace)]
    done = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *argv], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2, done.stdout
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    fields = [line.split() for line in lines if line.startswith(f"metric {workload} ")]
    printed = {f[2]: f[4] for f in fields}
    samples = int(next(float(f[3]) for f in fields if f[2] == "samples"))
    extras = {"failed_frac": "ratio", "samples": "count"}
    if trace == 0:
        extras["op_p50_s"] = "s"
        extras["ops_per_s"] = "1/s"
        assert ("op_p90_s" in printed) == (samples >= run.P90_MIN_SAMPLES), samples
    for name, unit in {**expected, **extras}.items():
        assert printed.get(name) == unit, name
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert {"python", "numpy", "blas", "blas_version", "blas_threads", "nproc", "git_commit"} <= set(env)


@pytest.mark.parametrize("workload", ["screen-files", "analyze-separable"])
def test_inputs_are_a_pure_function_of_the_seed(workload, tmp_path):
    def files(seed, sub):
        workloads.build(workload, seed, tmp_path / sub)
        return {p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())}

    first = files(5, "a")
    assert first and first == files(5, "b")
    assert first != files(6, "c")


def test_corrupted_reference_turns_affected_ops_into_failures(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.TRACE_NORM, "rho_5_5", workloads.TRACE_NORM["rho_5_5"] + 1e-6)
    session = run.Session(run.load_cli(), workloads.build("analyze-edge", 1, tmp_path))
    times, _, _ = session.timed(0.0)
    assert len(times) == 2
    assert [f["input"] for f in session.failures] == ["rho_5_5"]
    assert any("realignment evidence" in p for p in session.failures[0]["problems"])
