"""One benchmark process: set up a workload, run its passes, report JSON.

Started by run.py in a fresh interpreter so that its peak resident memory
belongs to the workload alone.  It prints ``ready`` once the first job can
start (run.py times set-up up to that line) and, unless ``--setup-only``,
one JSON object as its last line.

Untraced mode runs passes over the workload's jobs until the timed passes
add up to ``--seconds`` (at least one pass).  Traced mode runs one
untraced pass, then one pass with the tracer installed, and requires the
traced outputs to be byte-identical to the untraced ones (the determinism
contract with tracing on).
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import tracer
import workloads


def _blas_version() -> str:
    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"])
    except (KeyError, TypeError):
        return "unknown"


def run_pass(jobs, out_root: Path, trc: tracer.Tracer | None = None) -> dict:
    """Run every job once; time only the program calls."""
    wall = 0.0
    records = []
    for job in jobs:
        out = out_root / job.name
        out.mkdir(parents=True, exist_ok=True)
        if trc is not None:
            trc.job = job.name
            trc.active = True
        t0 = time.perf_counter()
        try:
            result = job.run(out)
            error = None
        except Exception as exc:  # a job that raises is a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if trc is not None:
            trc.active = False
        wall += elapsed
        if error is None:
            try:
                outcome = job.check(result, out)
            except Exception as exc:  # unreadable or missing outputs
                error = f"check: {type(exc).__name__}: {exc}"
        if error is not None:
            outcome = workloads.Outcome(False, error, {}, (workloads.FAILED_ERROR,), "")
        records.append({"job": job.name, "seconds": elapsed, "ok": outcome.ok,
                        "detail": outcome.detail, "figures": outcome.figures,
                        "ref_errors": list(outcome.ref_errors),
                        "digest": outcome.digest})
    return {"wall": wall, "jobs": records}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    work = Path(args.work)
    jobs = workloads.build(args.workload, args.seed, work / "inputs", args.smoke)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # peak memory is read after the first pass, so that it does not depend on
    # how many passes fit in the run
    passes = [run_pass(jobs, work / "untraced")]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    trc = None
    if args.trace:
        trc = tracer.Tracer()
        trc.install()
        passes.append(run_pass(jobs, work / "traced", trc))
        trc.uninstall()
        trc.write_spans(work / "spans.jsonl")
    else:
        while sum(p["wall"] for p in passes) < args.seconds:
            passes.append(run_pass(jobs, work / "untraced"))

    # determinism: every pass must reproduce the first pass's outputs
    first = {rec["job"]: rec["digest"] for rec in passes[0]["jobs"]}
    for p in passes[1:]:
        for rec in p["jobs"]:
            if rec["ok"] and rec["digest"] != first[rec["job"]]:
                rec["ok"] = False
                rec["detail"] += "; outputs differ from the first pass"

    report = {
        "passes": [p["wall"] for p in passes],
        "jobs": [rec for p in passes for rec in p["jobs"]],
        "peak_rss_mb": peak_rss_mb,
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "scipy": scipy.__version__, "openblas": _blas_version()},
    }
    if trc is not None:
        report["layers"] = trc.layer_metrics()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
