"""Self-test of the benchmark at smoke sizes.

Checks that every metric named in BENCHMARK.json is printed with its unit,
that every per-layer metric carries a module prefix, that a deliberately
wrong reference turns into failed jobs, and that the benchmark refuses to
run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PREFIXES = ("words.", "fock.", "series.", "measure.", "lebesgue.", "factor.",
            "oracle1d.", "cli.", "trace.")
# at smoke sizes the d=1 coupled limit stops far short of its acceptance
# bounds (A1, A3, A10), so only the other workloads must pass their gates
GATES_HOLD_AT_SMOKE = {"d2_limit", "factor_forms", "kernels_eval"}


def _bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        assert all(name.startswith(PREFIXES) for name in result["metrics"])
    if workload in GATES_HOLD_AT_SMOKE:
        assert result["correct"] and result["failed"] == 0, proc.stdout


def test_wrong_reference_fails_jobs(tmp_path, monkeypatch):
    jobs = workloads.build("kernels_eval", 0, tmp_path / "in", smoke=True)
    good = worker.run_pass(jobs, tmp_path / "good")
    assert all(rec["ok"] for rec in good["jobs"])

    real = workloads.evaluate

    def wrong_evaluate(f, Z):
        res = real(f, Z)
        return res._replace(value=res.value + 1e-6)

    monkeypatch.setattr(workloads, "evaluate", wrong_evaluate)
    bad = worker.run_pass(jobs, tmp_path / "bad")
    report = {"passes": [bad["wall"]], "jobs": bad["jobs"], "peak_rss_mb": 1.0}
    attempted, failed, metrics = run.end_to_end(report, [0.1])
    assert failed >= 1
    assert metrics["pass_frac"][0] < 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench(tmp_path, "kernels_eval", 0)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
