"""Seeded inputs, jobs and correctness gates for the four workloads.

Each workload is a list of jobs.  A job runs the program once (an
experiment config through the ``ncfatou`` command-line entry point, or a
library call for the checks the runner cannot express) and is then checked
by the benchmark against an answer computed another way.  Only the
program call is timed; the check runs with tracing off.

Seed 0 reproduces the committed ``configs/*.json`` inputs.  Other seeds
draw the phases of the symbol and vector-state coefficients, the unit rows
of the inner symbols, point-mass angles and matrix points.  Moduli, sizes,
schedules and tolerances never depend on the seed, so every symbol stays
in the Schur class (l1 norm below 1, or a unit row) and the work per pass
stays the same.  For the same reason the configs keep the committed
``"seed": 0``: the runner draws its own probe vectors and, in kernels-d2,
the sizes of its matrix points from it.

Where a size differs from the committed config, the reason is the run
budget of the benchmark (every run, traced ones included, has to fit in a
few tens of seconds):
  * inner-singular at d=2 runs at N=16, not 18.  The masses agree to eight
    digits (the corner is grade 0 and the symbol has degree 1) and the
    matrix-free matvecs still take most of the job;
  * majorant-d2 runs at N=12, not 18.  Its floors agree with N=18 to
    3e-16 and the full-basis column loop still dominates the job, so a
    change that computes the corner on a smaller basis (ROADMAP item 2)
    shows here;
  * the d=2 vector-state decomposition and the one-letter embedding run
    on the dense d=2 path at N=8, and herglotz_eval at N=12.

Reference errors (the inputs of ``ref_err_digits``) are, per workload:
d1_limit the oracle error of classical-fatou (A1), the mixture split
error (A10) and the final inner-singular mass; d2_limit the vector-state
Gram error and the final d=2 inner-singular mass; factor_forms the two
factorization residuals (A6); kernels_eval the kernel-identity residual
(A9) and herglotz_eval against evaluate.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ncfatou import cli, oracle1d
from ncfatou.fock import FockVector
from ncfatou.lebesgue import Schedule, rn_derivative
from ncfatou.measure import (clark_measure, gram, herglotz_eval,
                             herglotz_transform, vector_state)
from ncfatou.series import MatrixPoint, NCSeries, evaluate
from ncfatou.words import WordBasis

INV_SQRT2 = 0.7071067811865475

# acceptance bounds (README / tests A1-A11)
A1_ORACLE = 1e-3
A3_FINAL_MASS = 0.05
A6_RESIDUAL = 1e-8
A10_SPLIT = 5e-2
IDENTITY = 1e-12

# a job that produced no answer counts as an error of 1 (zero digits), so
# that a failure never improves ref_err_digits
FAILED_ERROR = 1.0


@dataclass
class Outcome:
    """What the check of one job run found."""

    ok: bool
    detail: str
    figures: dict       # accuracy figures, by name
    ref_errors: tuple   # errors that enter ref_err_digits
    digest: str         # hash of the outputs, for the determinism checks


@dataclass
class Job:
    name: str
    run: Callable[[Path], object]          # timed: calls the program
    check: Callable[[object, Path], Outcome]  # untimed


# ---------------------------------------------------------------------------
# seeded draws

class Draw:
    """Seeded perturbations; seed 0 returns the committed values unchanged."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def coeff(self, base: complex) -> complex:
        """base with a random phase; the modulus (hence the l1 norm) is kept."""
        if self.seed == 0:
            return complex(base)
        return abs(base) * np.exp(2j * np.pi * self.rng.uniform())

    def unit_row(self, base: tuple) -> tuple:
        """A unit vector in C^len(base) (base itself at seed 0)."""
        if self.seed == 0:
            return tuple(complex(b) for b in base)
        v = self.rng.standard_normal(len(base)) + 1j * self.rng.standard_normal(len(base))
        return tuple(complex(c) for c in v / np.linalg.norm(v))

    def angle(self, base: float) -> float:
        return float(base) if self.seed == 0 else float(self.rng.uniform(0, 2 * np.pi))


def _pair(c: complex) -> list:
    return [float(c.real), float(c.imag)]


# ---------------------------------------------------------------------------
# helpers: running the program and reading its outputs

def _write_symbol_csv(path: Path, entries: dict):
    with open(path, "w", newline="") as fh:
        fh.write("word,re,im\n")
        for word, c in entries.items():
            fh.write(f"{word},{float(c.real)!r},{float(c.imag)!r}\n")


def _cli_job(name: str, cfg: dict, cfg_dir: Path, check) -> Job:
    path = cfg_dir / f"{name}.json"
    path.write_text(json.dumps(cfg, indent=2))

    if cfg["experiment"] == "verify":
        argv = ["verify", "--suite", "core", "--quiet"]
    else:
        argv = ["run", str(path), "--threads", "1", "--quiet"]

    def run(out: Path):
        # the runner takes its output directory from the environment; restore
        # it so that an in-process caller (the self-test) sees no change
        before = os.environ.get("NCFATOU_OUTDIR")
        os.environ["NCFATOU_OUTDIR"] = str(out)
        try:
            return cli.main(argv)
        finally:
            if before is None:
                del os.environ["NCFATOU_OUTDIR"]
            else:
                os.environ["NCFATOU_OUTDIR"] = before

    return Job(name, run, check)


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _csv_digest(out: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out.glob("*.csv")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _decreasing(xs) -> bool:
    return len(xs) > 1 and all(b < a for a, b in zip(xs, xs[1:]))


def _exit_failure(code, out: Path) -> Outcome | None:
    if code != 0:
        return Outcome(False, f"exit code {code}", {}, (FAILED_ERROR,), _csv_digest(out))
    return None


# ---------------------------------------------------------------------------
# d1_limit: classical-fatou, inner-singular (d=1), decompose-mixture

def _d1_limit(draw: Draw, cfg_dir: Path, smoke: bool) -> list:
    j_max = 5 if smoke else 10
    sched = {"tail_tol": 1e-08, "j_max": j_max}
    b = draw.coeff(0.5)
    _write_symbol_csv(cfg_dir / "b_half.csv", {"1": b})
    inner = draw.unit_row((1.0,))[0]
    _write_symbol_csv(cfg_dir / "b_inner.csv", {"1": inner})
    angle = draw.angle(0.0)
    M_fatou = 8

    def check_fatou(code, out):
        fail = _exit_failure(code, out)
        if fail:
            return fail
        # one row per stage, then the final compression entry by entry
        rows = _read_csv(out / "classical_fatou_convergence.csv")
        T = np.zeros((M_fatou + 1, M_fatou + 1), dtype=complex)
        for r in rows[-(M_fatou + 1) ** 2:]:
            T[int(r["entry_row"]), int(r["entry_col"])] = float(r["re"]) + 1j * float(r["im"])
        symbol = oracle1d.fatou_symbol(np.array([0.0, b]), oracle1d.circle_grid())
        err = float(np.abs(T - oracle1d.toeplitz_from_symbol(symbol, M_fatou)).max())
        return Outcome(err <= A1_ORACLE, f"A1 oracle error {err:.3e} (<= {A1_ORACLE:g})",
                       {"ac_ref_err": err}, (err,), _csv_digest(out))

    def check_inner(code, out):
        fail = _exit_failure(code, out)
        if fail:
            return fail
        masses = [float(r["mu_ac_mass"]) for r in _read_csv(out / "inner_singular_trend.csv")]
        decreasing = _decreasing(masses)
        ok = decreasing and masses[-1] < A3_FINAL_MASS
        return Outcome(ok, f"A3 final mass {masses[-1]:.4f} (< {A3_FINAL_MASS}), "
                           f"strictly decreasing={decreasing}",
                       {"singular_mass": masses[-1]}, (masses[-1],), _csv_digest(out))

    def check_mixture(code, out):
        fail = _exit_failure(code, out)
        if fail:
            return fail
        rows = _read_csv(out / "decompose_summary.csv")
        ac = np.array([float(r["mu_ac_re"]) + 1j * float(r["mu_ac_im"]) for r in rows])
        s = np.array([float(r["mu_s_re"]) + 1j * float(r["mu_s_im"]) for r in rows])
        M = len(rows) - 1
        ac_exact = np.zeros(M + 1, dtype=complex)
        ac_exact[0] = 0.5
        s_exact = oracle1d.classical_moments(
            oracle1d.MeasureSpec(((angle, 0.5),)), M).moments
        err = float(max(np.abs(ac - ac_exact).max(), np.abs(s - s_exact).max()))
        return Outcome(err <= A10_SPLIT, f"A10 split error {err:.3e} (<= {A10_SPLIT:g})",
                       {"split_ref_err": err}, (err,), _csv_digest(out))

    return [
        _cli_job("classical_fatou", {
            "experiment": "classical-fatou", "d": 1, "M": M_fatou,
            "epsilon_grid": [0.25, 1.0], "schedule": sched,
            "schur_series_file": "b_half.csv", "seed": 0}, cfg_dir, check_fatou),
        _cli_job("inner_singular", {
            "experiment": "inner-singular", "d": 1, "M": 0, "epsilon_grid": [0.25],
            "schedule": sched, "schur_series_file": "b_inner.csv",
            "tolerances": {"singular_tol": 0.05}, "seed": 0},
            cfg_dir, check_inner),
        _cli_job("decompose_mixture", {
            "experiment": "decompose", "d": 1, "M": 4, "epsilon_grid": [0.25],
            "schedule": sched,
            "measure_spec": {"point_masses": [[angle, 0.5]],
                             "density": {"type": "constant", "value": 0.5}},
            "seed": 0}, cfg_dir, check_mixture),
    ]


# ---------------------------------------------------------------------------
# d2_limit: inner-singular (d=2, CG), vector-state decomposition, one-letter
# embedding, verify --suite core

def _d2_limit(draw: Draw, cfg_dir: Path, smoke: bool) -> list:
    N_inner = 11 if smoke else 16
    row = draw.unit_row((INV_SQRT2, INV_SQRT2))
    x_coeffs = {(): draw.coeff(1.0), (1,): draw.coeff(0.5), (1, 2): draw.coeff(0.3j)}
    c_embed = draw.coeff(0.5)
    N_dense = 6 if smoke else 8

    def check_inner(code, out):
        fail = _exit_failure(code, out)
        if fail:
            return fail
        rows = _read_csv(out / "inner_singular_trend.csv")
        masses = [float(r["mu_ac_mass"]) for r in rows]
        vacua = [float(r["vacuum_delta"]) for r in rows]
        cg = all(int(r["cg_solves"]) > 0 for r in rows)
        trend = _decreasing(masses) and _decreasing([-v for v in vacua])
        return Outcome(cg and trend, f"A4 trend monotone={trend}, CG in every stage={cg}",
                       {"singular_mass": masses[-1]}, (masses[-1],), _csv_digest(out))

    basis_x = WordBasis(2, N_dense)
    x = np.zeros(basis_x.size, dtype=complex)
    for w, c in x_coeffs.items():
        x[basis_x.index(w)] = c
    stages = [(0.5, N_dense), (0.75, N_dense), (0.9, N_dense)]

    def run_vector_state(_out):
        mu = vector_state(FockVector(basis_x, x))
        return rn_derivative(mu, M=2, eps_grid=(0.25, 1.0),
                             schedule=Schedule.explicit(stages))

    def check_vector_state(res, _out):
        G = gram(vector_state(FockVector(basis_x, x)).restricted(2)).matrix
        err = float(np.abs(res.T_compression - G).max())
        mass_s = abs(res.mu_s.mass())
        ok = np.isfinite(err) and mass_s <= IDENTITY
        return Outcome(ok, f"Gram error {err:.3e}, |mu_s(I)| {mass_s:.1e} (<= {IDENTITY:g})",
                       {"ac_ref_err": err}, (err,),
                       _array_digest(res.T_compression, res.mu_ac.moments))

    def run_embedding(_out):
        sched = Schedule.explicit([(0.75, N_dense)])
        one = rn_derivative(NCSeries.from_dict(WordBasis(1, 1), {(1,): c_embed}),
                            M=2, eps_grid=(0.5,), schedule=sched)
        two = rn_derivative(NCSeries.from_dict(WordBasis(2, 1), {(1,): c_embed}),
                            M=2, eps_grid=(0.5,), schedule=sched)
        return one, two

    def check_embedding(res, _out):
        one, two = res
        basis2 = WordBasis(2, 2)
        idx = [basis2.index(w) for w in ((), (1,), (1, 1))]
        err = float(np.abs(two.T_compression[np.ix_(idx, idx)] - one.T_compression).max())
        return Outcome(err <= IDENTITY, f"one-letter embedding {err:.1e} (<= {IDENTITY:g})",
                       {"embedding_err": err}, (),
                       _array_digest(one.T_compression, two.T_compression))

    def check_verify(code, out):
        fail = _exit_failure(code, out)
        if fail:
            return fail
        rows = _read_csv(out / "verify_core.csv")
        bad = [r["check"] for r in rows if r["pass"] != "1"]
        return Outcome(not bad, f"verify failed checks: {bad}" if bad else "verify exit 0",
                       {}, (), _csv_digest(out))

    jobs = [
        _cli_job("inner_singular_d2", {
            "experiment": "inner-singular", "d": 2, "M": 0, "epsilon_grid": [1.0],
            "recovery_buffer": 0,
            "schedule": {"stages": [[0.5, N_inner], [0.6, N_inner], [0.7, N_inner]]},
            "schur_coeffs": {"1": _pair(row[0]), "2": _pair(row[1])},
            "seed": 0}, cfg_dir, check_inner),
        Job("vector_state_d2", run_vector_state, check_vector_state),
        Job("embedding_d2", run_embedding, check_embedding),
    ]
    if not smoke:  # the suite has no size knob and takes ~15 s
        jobs.append(_cli_job("verify", {"experiment": "verify", "seed": 0},
                             cfg_dir, check_verify))
    return jobs


# ---------------------------------------------------------------------------
# factor_forms: factor-toeplitz, factor-vector-state, majorant-d1, majorant-d2

def _factor_forms(draw: Draw, cfg_dir: Path, smoke: bool) -> list:
    N1 = 32 if smoke else 96
    N_maj2 = 8 if smoke else 12
    b = draw.coeff(0.5)
    _write_symbol_csv(cfg_dir / "b_half.csv", {"1": b})
    row = draw.unit_row((INV_SQRT2, INV_SQRT2))
    vs = {"e": draw.coeff(1.0), "1": draw.coeff(0.5)}

    def check_factor(code, out):
        fail = _exit_failure(code, out)
        if fail:
            return fail
        line = (out / "summary.txt").read_text().splitlines()[0]
        resid = float(line.split("=")[1].split()[0])
        return Outcome(resid <= A6_RESIDUAL, f"A6 residual {resid:.2e} (<= {A6_RESIDUAL:g})",
                       {"factor_residual": resid}, (resid,), _csv_digest(out))

    def check_majorant(tol):
        def check(code, out):
            fail = _exit_failure(code, out)
            if fail:
                return fail
            floor = min(float(r["min_eigenvalue"])
                        for r in _read_csv(out / "majorant_floors.csv"))
            return Outcome(floor >= -tol, f"A7 floor {floor:.3e} (>= {-tol:g})",
                           {"majorant_floor": floor}, (), _csv_digest(out))
        return check

    return [
        _cli_job("factor_toeplitz", {
            "experiment": "factor", "d": 1, "N": N1, "epsilon": 1.0,
            "tau": {"type": "radial", "r": 0.9, "schur_series_file": "b_half.csv"},
            "residual_tol": 1e-08, "seed": 0}, cfg_dir, check_factor),
        _cli_job("factor_vector_state", {
            "experiment": "factor", "d": 2, "N": 8, "epsilon": 1.0,
            "tau": {"type": "vector-state",
                    "coeffs": {w: _pair(c) for w, c in vs.items()}},
            "residual_tol": 1e-08, "seed": 0}, cfg_dir, check_factor),
        _cli_job("majorant_d1", {
            "experiment": "majorant", "d": 1, "N": N1, "M": 8, "r_grid": [0.9],
            "tau_mode": "clark-gram", "schur_series_file": "b_half.csv",
            "floor_tol": 1e-10, "seed": 0}, cfg_dir, check_majorant(1e-10)),
        _cli_job("majorant_d2", {
            "experiment": "majorant", "d": 2, "N": N_maj2, "M": 6,
            "r_grid": [0.5, 0.6, 0.7], "tau_mode": "zero",
            "schur_coeffs": {"1": _pair(row[0]), "2": _pair(row[1])},
            "floor_tol": 1e-08, "seed": 0}, cfg_dir, check_majorant(1e-8)),
    ]


# ---------------------------------------------------------------------------
# kernels_eval: kernels-d2 and herglotz_eval against evaluate

def _kernels_eval(draw: Draw, cfg_dir: Path, smoke: bool) -> list:
    N_kern = 10 if smoke else 20
    N_herg = 8 if smoke else 12
    coeffs = {"1": draw.coeff(0.3), "2": draw.coeff(0.25j), "12": draw.coeff(0.2)}
    words = {"1": (1,), "2": (2,), "12": (1, 2)}
    B = NCSeries.from_dict(WordBasis(2, N_herg), {words[k]: c for k, c in coeffs.items()})
    points = [_matrix_point(draw.rng, level, 0.2) for level in (1, 2, 3, 3)]

    def check_kernels(code, out):
        fail = _exit_failure(code, out)
        if fail:
            return fail
        rows = _read_csv(out / "kernel_identity.csv")
        resid = max(float(r["residual"]) for r in rows)
        floor = min(float(r["szego_psd_floor"]) for r in rows)
        ok = resid <= 1e-9 and floor >= -1e-10
        return Outcome(ok, f"A9 residual {resid:.2e} (<= 1e-9), floor {floor:.3e}",
                       {"kernel_residual": resid}, (resid,), _csv_digest(out))

    def run_herglotz(_out):
        mu = clark_measure(B)
        return [herglotz_eval(mu, Z).value for Z in points]

    def check_herglotz(values, _out):
        H = herglotz_transform(clark_measure(B))
        err = max(float(np.abs(v - evaluate(H, Z).value).max())
                  for v, Z in zip(values, points))
        return Outcome(err <= IDENTITY, f"herglotz_eval vs evaluate {err:.1e} "
                                        f"(<= {IDENTITY:g})",
                       {"herglotz_eval_err": err}, (err,), _array_digest(*values))

    return [
        _cli_job("kernels_d2", {
            "experiment": "kernels", "d": 2, "N": N_kern, "point_pairs": 10,
            "max_level": 3, "row_norm_cap": 0.2,
            "schur_coeffs": {k: _pair(c) for k, c in coeffs.items()},
            "residual_tol": 1e-09, "floor_tol": 1e-10, "seed": 0},
            cfg_dir, check_kernels),
        Job("herglotz_eval", run_herglotz, check_herglotz),
    ]


def _matrix_point(rng, level: int, cap: float) -> MatrixPoint:
    mats = tuple(rng.standard_normal((level, level)) + 1j * rng.standard_normal((level, level))
                 for _ in range(2))
    pt = MatrixPoint(mats)
    scale = cap * rng.uniform(0.5, 1.0) / pt.row_norm
    return MatrixPoint(tuple(scale * m for m in mats))


BUILDERS = {"d1_limit": _d1_limit, "d2_limit": _d2_limit,
            "factor_forms": _factor_forms, "kernels_eval": _kernels_eval}


def build(workload: str, seed: int, cfg_dir: Path, smoke: bool = False) -> list:
    """Write the workload's generated inputs under cfg_dir; return its jobs."""
    cfg_dir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](Draw(seed), cfg_dir, smoke)
