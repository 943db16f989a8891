"""Benchmark of the ncfatou experiment pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/ncfatou``).  One
closed-loop client runs the workload's jobs one after another in a fresh
worker process (bench/worker.py), with BLAS and OpenMP pinned to one
thread and the experiment runner at ``--threads 1``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json:
  wall_s          median seconds of one pass over the workload's jobs;
                  the quartiles and the pass count are printed above;
  setup_s         median, over several fresh processes, of the seconds
                  from process start until the first job can start
                  (interpreter, imports, input generation);
  peak_rss_mb     peak resident memory of the worker process over its
                  set-up and first pass;
  pass_frac       job runs that met their acceptance gate / job runs;
  ref_err_digits  -log10 of the geometric mean of the workload's
                  reference errors (see workloads.py), so that a speedup
                  bought with accuracy shows as a regression.
``--trace 1`` runs one untraced and one traced pass and prints the
per-layer metrics (self time, call counts, solver figures) together with
``trace.overhead_s``; the spans go to bench/.work/spans-<workload>-<seed>.jsonl.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A job that raises, exits
non-zero, misses its acceptance bound or changes its outputs between
passes counts as failed; the metrics are printed all the same.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
WORKLOADS = ("d1_limit", "d2_limit", "factor_forms", "kernels_eval")
SETUP_SAMPLES = 5          # fresh processes timed for setup_s (worker included)
RUN_LIMIT_S = 170.0        # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ERR_FLOOR = 1e-16          # an exact 0 error counts as 16 digits


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("NCFATOU_OUTDIR", None)
    env["PYTHONPATH"] = str(src)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(cmd, env, deadline):
    """Start a worker; return (process, seconds until it printed ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RuntimeError(f"worker did not start: {line.strip()!r}")
    return proc, ready


def finish(proc, deadline) -> str:
    """Wait for the worker within the deadline; kill it past that."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker exceeded the run time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end(report, setup):
    jobs = report["jobs"]
    attempted = len(jobs)
    failed = sum(not j["ok"] for j in jobs)
    first_pass = jobs[:len(jobs) // len(report["passes"])]
    errors = [e for j in first_pass for e in j["ref_errors"]]
    digits = statistics.fmean(-math.log10(max(e, ERR_FLOOR)) for e in errors)
    metrics = {
        "wall_s": (statistics.median(report["passes"]), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "pass_frac": ((attempted - failed) / attempted, "1"),
        "ref_err_digits": (digits, "digits"),
    }
    return attempted, failed, metrics


def per_layer(report):
    jobs = report["jobs"]
    untraced, traced = report["passes"]
    layers = dict(report["layers"], **{"trace.overhead_s": traced - untraced})
    metrics = {name: (layers[name], unit) for name, unit in tracer.layer_units().items()}
    return len(jobs), sum(not j["ok"] for j in jobs), metrics


def describe(workload, seed, report, setup, load, env):
    """Human-readable lines printed before the JSON result."""
    passes = report["passes"]
    q1, q2, q3 = quartiles(passes)
    print(f"workload {workload} seed {seed}: {len(passes)} pass(es), wall_s "
          f"median {q2:.4f} quartiles [{q1:.4f}, {q3:.4f}]; setup_s samples "
          + ", ".join(f"{s:.3f}" for s in setup))
    for j in report["jobs"][:len(report["jobs"]) // len(passes)]:
        figs = ", ".join(f"{k}={v!r}" for k, v in j["figures"].items())
        print(f"  {j['job']}: {'ok' if j['ok'] else 'FAILED'} {j['seconds']:.3f}s "
              f"{j['detail']}" + (f" [{figs}]" if figs else ""))
    for j in report["jobs"]:
        if not j["ok"]:
            print(f"  failure: {j['job']}: {j['detail']}")
    machine = dict(report["machine"], nproc=os.cpu_count(), loadavg=load,
                   threads={v: env[v] for v in THREAD_VARS}, runner_threads=1)
    print("machine " + json.dumps(machine))
    return machine


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes and one setup sample, for the self-test")
    args = ap.parse_args(argv)

    deadline = time.perf_counter() + RUN_LIMIT_S
    src = Path.cwd() / "src"
    if not (src / "ncfatou" / "__init__.py").is_file():
        print(f"bench: no ncfatou sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    load = os.getloadavg()
    env = child_env(src)
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        setup = []
        for _ in range(0 if args.smoke else SETUP_SAMPLES - 1):
            proc, ready = spawn(cmd + ["--setup-only"], env, deadline)
            finish(proc, deadline)
            setup.append(ready)
        proc, ready = spawn(cmd, env, deadline)
        setup.append(ready)
        report = json.loads(finish(proc, deadline).strip().splitlines()[-1])
        if args.trace:
            shutil.copy(work / "spans.jsonl",
                        work_root / f"spans-{args.workload}-{args.seed}.jsonl")
    except (RuntimeError, json.JSONDecodeError, IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    machine = describe(args.workload, args.seed, report, setup, load, env)
    if args.trace:
        attempted, failed, metrics = per_layer(report)
    else:
        attempted, failed, metrics = end_to_end(report, setup)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": report["passes"], "setup": setup, "machine": machine,
              "jobs": report["jobs"],
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    (work_root / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
