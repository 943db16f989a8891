"""Run the benchmark over several seeds and summarize it per workload.

    python3 bench/sweep.py --seeds 1-10 --out bench/baseline.json [--workloads a,b]

For each workload: one untraced run per seed, then one traced run on the
first seed.  Each end-to-end metric is summarized by its median over the
seeds, its quartiles (``statistics.quantiles(values, n=4)``) and its spread
(quartile distance over median), the figure the benchmark's bounds are
judged against.  Run from the repository root, like run.py.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    seeds = list(range(first, last + 1))

    summary = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs, elapsed = [], []
        for seed in seeds:
            result, secs = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append(result)
            elapsed.append(secs)
            print(f"{workload} seed {seed}: {secs:.1f}s "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        traced, secs = run_once(workload, seeds[0], spec["run_seconds"], 1)
        summary["workloads"][workload] = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "run_elapsed_s": summarize(elapsed),
            "end_to_end": {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
                           for m in spec["end_to_end"]},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, s in summary["workloads"][workload]["end_to_end"].items():
            print(f"  {name}: median {s['median']:.5g} spread {s['spread']:.4f}", flush=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
