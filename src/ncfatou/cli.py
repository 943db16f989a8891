"""Batch experiment runner.

Usage:
    ncfatou run <config.json> [--threads K] [--quiet]
    ncfatou verify --suite core [--quiet]

Exit codes: 0 success, 2 config validation failure, 3 numerical-diagnostic
failure (CG non-convergence, PSD floor or residual beyond tolerance).
Identical configs produce bit-identical CSV outputs: fixed reduction
order, seeded probes, and the seed recorded in every output header.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import oracle1d
from .factor import outer_factor
from .fock import TruncatedOperator
from .lebesgue import (RadialOperator, Schedule, majorant_check, rn_derivative)
from .measure import (MomentFunctional, clark_measure, gram,
                      read_moments_csv)
from .series import (MatrixPoint, NCSeries, cayley_to_herglotz,
                     cayley_to_schur, dbr_kernel, evaluate, herglotz_kernel,
                     read_series_csv, szego_kernel_matrix)
from .words import WordBasis, word_to_str

EXPERIMENTS = ("classical-fatou", "inner-singular", "decompose", "factor",
               "majorant", "kernels", "verify")


class ConfigError(Exception):
    """Schema violation; the message names the offending field path."""


def _fail(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


def _get(cfg: dict, key: str, kind, path: str, default=None, required=False):
    full = f"{path}.{key}" if path else key
    if key not in cfg:
        if required:
            _fail(full, "missing required field")
        return default
    val = cfg[key]
    if kind is float and isinstance(val, int):
        val = float(val)
    if not isinstance(val, kind):
        _fail(full, f"expected {kind.__name__}, got {type(val).__name__}")
    return val


def _positive_radius(r, path):
    if not isinstance(r, (int, float)) or not 0.0 < float(r) < 1.0:
        _fail(path, f"radius must lie strictly inside (0,1), got {r}")
    return float(r)


def _parse_schedule(cfg: dict, d: int, path: str = "schedule") -> Schedule:
    sched = cfg.get("schedule")
    if sched is None:
        if "N" in cfg:
            _fail("N", "a bare N needs an explicit r; use schedule.stages")
        return Schedule.coupled(d)
    if not isinstance(sched, dict):
        _fail(path, "expected an object")
    if "stages" in sched:
        stages = sched["stages"]
        if not isinstance(stages, list) or not stages:
            _fail(f"{path}.stages", "expected a nonempty list of [r, N] pairs")
        parsed = []
        for i, st in enumerate(stages):
            if not isinstance(st, list) or len(st) != 2:
                _fail(f"{path}.stages[{i}]", "expected [r, N]")
            r = _positive_radius(st[0], f"{path}.stages[{i}][0]")
            if not isinstance(st[1], int) or st[1] < 0:
                _fail(f"{path}.stages[{i}][1]", f"bad truncation grade {st[1]}")
            parsed.append((r, st[1]))
        return Schedule.explicit(parsed)
    return Schedule.coupled(
        d,
        tail_tol=_get(sched, "tail_tol", float, path, default=1e-8),
        j_max=_get(sched, "j_max", int, path, default=10),
        j_min=_get(sched, "j_min", int, path, default=1),
        memory_budget_mb=_get(sched, "memory_budget_mb", float, path, default=512.0))


def _parse_series(cfg: dict, d: int, N: int, base_dir: Path) -> NCSeries:
    basis = WordBasis(d, N)
    if "schur_series_file" in cfg:
        p = base_dir / cfg["schur_series_file"]
        if not p.exists():
            _fail("schur_series_file", f"file not found: {p}")
        return read_series_csv(p, basis)
    if "schur_coeffs" in cfg:
        entries = cfg["schur_coeffs"]
        if not isinstance(entries, dict):
            _fail("schur_coeffs", "expected an object of word -> [re, im]")
        out = {}
        for ws, pair in entries.items():
            try:
                from .words import word_from_str
                w = word_from_str(ws, d=d)
            except ValueError as exc:
                _fail(f"schur_coeffs.{ws}", str(exc))
            if not isinstance(pair, list) or len(pair) != 2:
                _fail(f"schur_coeffs.{ws}", "expected [re, im]")
            out[w] = pair[0] + 1j * pair[1]
        return NCSeries.from_dict(basis, out)
    _fail("schur_series_file", "experiment needs schur_series_file or schur_coeffs")


def _parse_measure(cfg: dict, N: int, base_dir: Path) -> MomentFunctional:
    if "moments_file" in cfg:
        p = base_dir / cfg["moments_file"]
        if not p.exists():
            _fail("moments_file", f"file not found: {p}")
        return read_moments_csv(p, WordBasis(1, N))
    spec = cfg.get("measure_spec")
    if spec is None:
        _fail("measure_spec", "experiment needs moments_file or measure_spec")
    if not isinstance(spec, dict):
        _fail("measure_spec", "expected an object")
    masses = []
    for i, pm in enumerate(spec.get("point_masses", [])):
        if not isinstance(pm, list) or len(pm) != 2 or pm[1] < 0:
            _fail(f"measure_spec.point_masses[{i}]", "expected [angle, weight >= 0]")
        masses.append((float(pm[0]), float(pm[1])))
    # the grid must resolve moments through the largest scheduled grade
    grid = int(spec.get("grid", oracle1d.DEFAULT_GRID))
    while grid < 4 * (N + 1):
        grid *= 2
    density = None
    dens = spec.get("density")
    if dens is not None:
        if not isinstance(dens, dict) or "type" not in dens:
            _fail("measure_spec.density", "expected an object with a type")
        if dens["type"] == "constant":
            density = np.full(grid, float(dens.get("value", 1.0)))
        elif dens["type"] == "poisson":
            density = dens.get("weight", 1.0) * oracle1d.poisson_density(
                _positive_radius(dens.get("r", 0.5), "measure_spec.density.r"),
                float(dens.get("angle", 0.0)), grid)
        else:
            _fail("measure_spec.density.type",
                  f"unknown density type {dens['type']!r}")
    mspec = oracle1d.MeasureSpec(tuple(masses), density, grid)
    return oracle1d.classical_moments(mspec, N)


def _eps_grid(cfg: dict):
    grid = cfg.get("epsilon_grid", [0.25, 1.0])
    if not isinstance(grid, list) or not grid or any(
            not isinstance(e, (int, float)) or e <= 0 for e in grid):
        _fail("epsilon_grid", "expected a nonempty list of positive numbers")
    return tuple(float(e) for e in grid)


def _tolerances(cfg: dict) -> dict:
    tols = cfg.get("tolerances", {})
    if not isinstance(tols, dict):
        _fail("tolerances", "expected an object")
    out = {"null_tol": 1e-10, "cg_tol": 1e-10, "singular_tol": 0.05}
    for key in tols:
        if key not in out:
            _fail(f"tolerances.{key}", "unknown tolerance")
        out[key] = float(tols[key])
    return out


# ---------------------------------------------------------------------------
# deterministic CSV emission

def _fmt(x) -> str:
    if isinstance(x, (np.floating, float)):
        return repr(float(x))
    if isinstance(x, (np.integer, int)):
        return str(int(x))
    return str(x)


def _write_csv(path: Path, header, rows, seed: int, experiment: str):
    with open(path, "w", newline="") as fh:
        fh.write(f"# ncfatou {experiment} seed={seed}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _out_dir(cfg: dict, base_dir: Path) -> Path:
    out = os.environ.get("NCFATOU_OUTDIR") or cfg.get("output_dir", "out")
    path = Path(out)
    if not path.is_absolute():
        path = base_dir / path
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parallel_map(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# experiments

def _convergence_rows(result, eps):
    # one row per stage for the resolvent vacuum entry, then the recovered
    # T compression of the final stage, entry by entry
    rows = [[eps, st.r, st.N, result.M, 0, 0, st.vacuum_delta, 0.0]
            for st in result.stages]
    basis_M = WordBasis(result.d, result.M)
    final = result.stages[-1]
    for i in range(basis_M.size):
        for j in range(basis_M.size):
            v = result.T_compression[i, j]
            rows.append([eps, final.r, final.N, result.M, i, j, v.real, v.imag])
    return rows


def _summary_rows(result):
    rows = []
    basis_M = WordBasis(result.d, result.M)
    for i in range(basis_M.size):
        w = word_to_str(basis_M.word(i))
        ac = result.mu_ac.moments[i]
        s = result.mu_s.moments[i]
        rows.append([w, ac.real, ac.imag, s.real, s.imag])
    return rows


def run_classical_fatou(cfg, base_dir, out, threads, quiet):
    d = _get(cfg, "d", int, "", default=1)
    if d != 1:
        _fail("d", "classical-fatou is the d=1 oracle experiment")
    M = _get(cfg, "M", int, "", default=8)
    seed = _get(cfg, "seed", int, "", default=0)
    tols = _tolerances(cfg)
    schedule = _parse_schedule(cfg, d)
    B = _parse_series(cfg, d, max(1, _get(cfg, "symbol_grade", int, "", default=4)), base_dir)
    result = rn_derivative(B, M=M, eps_grid=_eps_grid(cfg), schedule=schedule,
                           cg_tol=tols["cg_tol"], singular_tol=tols["singular_tol"])
    # oracle comparison through the Fatou symbol on the circle grid
    grid = oracle1d.circle_grid()
    b_coeffs = np.zeros(B.basis.N + 1, dtype=complex)
    for w, c in B.support():
        b_coeffs[len(w)] = c
    symbol = oracle1d.fatou_symbol(b_coeffs, grid)
    T_oracle = oracle1d.toeplitz_from_symbol(symbol, M)
    err = float(np.abs(result.T_compression - T_oracle).max())
    _write_csv(out / "classical_fatou_convergence.csv",
               ["epsilon", "r", "N", "M", "entry_row", "entry_col", "re", "im"],
               _convergence_rows(result, result.primary_eps), seed, "classical-fatou")
    _write_csv(out / "classical_fatou_summary.csv",
               ["word", "mu_ac_re", "mu_ac_im", "mu_s_re", "mu_s_im"],
               _summary_rows(result), seed, "classical-fatou")
    lines = [f"classical-fatou: max entry error vs oracle = {err!r}",
             f"eps consistency = {result.eps_consistency!r}",
             f"achieved r_max = {result.achieved_r_max!r}"]
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    if not quiet:
        print("\n".join(lines))
    return 0


def run_inner_singular(cfg, base_dir, out, threads, quiet):
    d = _get(cfg, "d", int, "", default=1)
    M = _get(cfg, "M", int, "", default=0)
    seed = _get(cfg, "seed", int, "", default=0)
    tols = _tolerances(cfg)
    schedule = _parse_schedule(cfg, d)
    B = _parse_series(cfg, d, max(1, _get(cfg, "symbol_grade", int, "", default=4)), base_dir)
    buffer = _get(cfg, "recovery_buffer", int, "", default=8 if d == 1 else 0)
    result = rn_derivative(B, M=M, eps_grid=_eps_grid(cfg), schedule=schedule,
                           recovery_buffer=buffer, cauchy_tol=0.0,
                           cg_tol=tols["cg_tol"], singular_tol=tols["singular_tol"])
    rows = [[result.primary_eps, st.r, st.N, st.vacuum_delta, st.mass,
             len(st.cg_iterations), max(st.cg_iterations, default=0)]
            for st in result.stages]
    _write_csv(out / "inner_singular_trend.csv",
               ["epsilon", "r", "N", "vacuum_delta", "mu_ac_mass",
                "cg_solves", "cg_max_iters"], rows, seed, "inner-singular")
    lines = [
        f"inner-singular: final mu_ac(I) = {float(result.mass_trend[-1])!r}",
        f"mu_s(I) = {result.mu_s.mass()!r}",
        f"mass strictly decreasing = {result.mass_strictly_decreasing}",
        f"vacuum resolvent strictly increasing = {result.vacuum_strictly_increasing}",
        f"singular verdict = {result.singular}",
    ]
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    if not quiet:
        print("\n".join(lines))
    return 0


def run_decompose(cfg, base_dir, out, threads, quiet):
    d = _get(cfg, "d", int, "", default=1)
    if d != 1:
        _fail("d", "decompose drives measures through the d=1 oracle")
    M = _get(cfg, "M", int, "", default=4)
    seed = _get(cfg, "seed", int, "", default=0)
    tols = _tolerances(cfg)
    schedule = _parse_schedule(cfg, d)
    mu = _parse_measure(cfg, schedule.max_grade(), base_dir)
    result = rn_derivative(mu, M=M, eps_grid=_eps_grid(cfg), schedule=schedule,
                           cg_tol=tols["cg_tol"], singular_tol=tols["singular_tol"])
    _write_csv(out / "decompose_summary.csv",
               ["word", "mu_ac_re", "mu_ac_im", "mu_s_re", "mu_s_im"],
               _summary_rows(result), seed, "decompose")
    lines = [f"decompose: mu_ac(I) = {result.mu_ac.mass()!r}",
             f"mu_s(I) = {result.mu_s.mass()!r}",
             f"mu_ac positivity floor = {result.positivity_ac.min_eigenvalue!r}",
             f"singular verdict = {result.singular}"]
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    if not quiet:
        print("\n".join(lines))
    return 0


def _build_tau(cfg, base_dir, d, N):
    """tau for the factor experiment: a radial operator or a vector-state Gram."""
    tau_cfg = cfg.get("tau")
    if not isinstance(tau_cfg, dict) or "type" not in tau_cfg:
        _fail("tau", "expected an object with a type")
    basis = WordBasis(d, N)
    if tau_cfg["type"] == "radial":
        r = _positive_radius(tau_cfg.get("r", 0.9), "tau.r")
        B = _parse_series(tau_cfg, d, N, base_dir)
        return RadialOperator.from_schur(B, r)
    if tau_cfg["type"] == "vector-state":
        from .fock import FockVector
        from .measure import vector_state
        entries = tau_cfg.get("coeffs")
        if not isinstance(entries, dict):
            _fail("tau.coeffs", "expected an object of word -> [re, im]")
        from .words import word_from_str
        x = np.zeros(basis.size, dtype=complex)
        for ws, pair in entries.items():
            x[basis.index(word_from_str(ws, d=d))] = pair[0] + 1j * pair[1]
        mu = vector_state(FockVector(basis, x))
        return TruncatedOperator.from_dense(basis, gram(mu).matrix)
    _fail("tau.type", f"unknown tau type {tau_cfg['type']!r}")


def run_factor(cfg, base_dir, out, threads, quiet):
    d = _get(cfg, "d", int, "", default=1)
    N = _get(cfg, "N", int, "", required=True)
    seed = _get(cfg, "seed", int, "", default=0)
    eps = float(cfg.get("epsilon", 1.0))
    if eps <= 0:
        _fail("epsilon", f"must be positive, got {eps}")
    tau = _build_tau(cfg, base_dir, d, N)
    result = outer_factor(tau, eps, seed=seed)
    rows = [[word_to_str(w), c.real, c.imag] for w, c in result.psi.support()]
    _write_csv(out / "factor_psi.csv", ["word", "re", "im"], rows, seed, "factor")
    lines = [f"factor: residual = {result.residual!r} on grades <= {result.check_grade}",
             f"psi constant coefficient = {result.psi.constant_term().real!r}",
             f"contraction bound 1/sqrt(eps) = {result.contraction_norm_bound!r}"]
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    if not quiet:
        print("\n".join(lines))
    residual_tol = float(cfg.get("residual_tol", 1e-8))
    return 0 if result.residual <= residual_tol else 3


def run_majorant(cfg, base_dir, out, threads, quiet):
    d = _get(cfg, "d", int, "", default=1)
    N = _get(cfg, "N", int, "", required=True)
    M = _get(cfg, "M", int, "", default=6)
    seed = _get(cfg, "seed", int, "", default=0)
    r_grid = cfg.get("r_grid", [0.9])
    if not isinstance(r_grid, list) or not r_grid:
        _fail("r_grid", "expected a nonempty list of radii")
    r_grid = [_positive_radius(r, f"r_grid[{i}]") for i, r in enumerate(r_grid)]
    B = _parse_series(cfg, d, N, base_dir)
    tau_mode = cfg.get("tau_mode", "zero")
    basis = B.basis
    if tau_mode == "zero":
        x = NCSeries.one(basis)
    elif tau_mode == "clark-gram":
        # exact for purely absolutely continuous Clark measures, where the
        # Radon-Nikodym compression equals the moment Gram matrix
        tau = TruncatedOperator.from_dense(basis, gram(clark_measure(B)).matrix)
        x = outer_factor(tau, 1.0, seed=seed).y_series
    else:
        _fail("tau_mode", f"unknown tau_mode {tau_mode!r}")

    def one(r):
        return majorant_check(B, x, r, M)

    reports = _parallel_map(one, r_grid, threads)
    rows = [[r, rep.min_eigenvalue, rep.grade, rep.size]
            for r, rep in zip(r_grid, reports)]
    _write_csv(out / "majorant_floors.csv",
               ["r", "min_eigenvalue", "M", "size"], rows, seed, "majorant")
    floor = min(rep.min_eigenvalue for rep in reports)
    lines = [f"majorant: worst PSD floor = {floor!r} over r grid {r_grid}"]
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    if not quiet:
        print("\n".join(lines))
    floor_tol = float(cfg.get("floor_tol", 1e-8))
    return 0 if floor >= -floor_tol else 3


def run_kernels(cfg, base_dir, out, threads, quiet):
    d = _get(cfg, "d", int, "", default=2)
    N = _get(cfg, "N", int, "", default=20)
    seed = _get(cfg, "seed", int, "", default=0)
    n_pairs = _get(cfg, "point_pairs", int, "", default=10)
    max_level = _get(cfg, "max_level", int, "", default=3)
    row_cap = float(cfg.get("row_norm_cap", 0.2))
    B = _parse_series(cfg, d, N, base_dir)
    H = cayley_to_herglotz(B)
    rng = np.random.default_rng(seed)

    def random_point(level):
        mats = []
        for _ in range(d):
            A = rng.standard_normal((level, level)) + 1j * rng.standard_normal((level, level))
            mats.append(A)
        pt = MatrixPoint(tuple(mats))
        scale = row_cap * rng.uniform(0.5, 1.0) / pt.row_norm
        return MatrixPoint(tuple(scale * M for M in pt.Z))

    def one(_):
        nz = int(rng.integers(1, max_level + 1))
        nw = int(rng.integers(1, max_level + 1))
        Z, W = random_point(nz), random_point(nw)
        P = rng.standard_normal((nz, nw)) + 1j * rng.standard_normal((nz, nw))
        left = dbr_kernel(B, Z, W, P, N)
        BZ = evaluate(B, Z).value
        BW = evaluate(B, W).value
        inner = (np.eye(nz) - BZ) @ P @ (np.eye(nw) - BW).conj().T
        right = herglotz_kernel(H, Z, W, inner, N)
        resid = float(np.abs(left.value - right.value).max())
        A = szego_kernel_matrix(Z, Z, N)
        floor = float(np.linalg.eigvalsh(0.5 * (A + A.conj().T)).min())
        return resid, left.tail + right.tail, floor

    # draws happen sequentially for determinism; only the arithmetic varies
    results = [one(i) for i in range(n_pairs)]
    rows = [[i, r, t, f] for i, (r, t, f) in enumerate(results)]
    _write_csv(out / "kernel_identity.csv",
               ["pair", "residual", "tail_bound", "szego_psd_floor"],
               rows, seed, "kernels")
    worst = max(r for r, _, _ in results)
    floor = min(f for _, _, f in results)
    lines = [f"kernels: worst identity residual = {worst!r}",
             f"worst szego PSD floor = {floor!r}"]
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    if not quiet:
        print("\n".join(lines))
    ok = worst <= float(cfg.get("residual_tol", 1e-9)) and \
        floor >= -float(cfg.get("floor_tol", 1e-10))
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# verify suite

def _core_checks():
    """Deterministic invariant battery; yields (name, value, threshold)."""
    from .fock import FockVector, left_shift, right_shift, transpose_unitary
    from .measure import (herglotz_transform, quadratic_form, sos_split,
                          vector_state)
    from .series import radial_scale

    rng = np.random.default_rng(12345)
    checks = []

    basis = WordBasis(2, 5)
    U = transpose_unitary(basis)
    worst = 0.0
    for k in (1, 2):
        L, R = left_shift(basis, k), right_shift(basis, k)
        v = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        worst = max(worst, float(np.abs(
            U.apply(L.apply(U.apply(v))) - R.apply(v)).max()))
    checks.append(("transpose_conjugation_of_shifts", worst, 1e-14))

    B = NCSeries.from_dict(basis, {(1,): 0.35, (2,): -0.25j, (1, 2): 0.2})
    H = cayley_to_herglotz(B)
    B2 = cayley_to_schur(H)
    checks.append(("cayley_round_trip", float(np.abs(B2.coeffs - B.coeffs).max()), 1e-12))

    mu = clark_measure(B)
    H2 = herglotz_transform(mu)
    checks.append(("clark_herglotz_inverse", float(np.abs(H2.coeffs - H.coeffs).max()), 1e-12))

    f = NCSeries.from_dict(basis, {(): 1.0, (1,): 0.4, (2, 1): 0.3})
    Z = MatrixPoint((0.3 * np.eye(2), np.array([[0.0, 0.25], [0.1, 0.0]])))
    lhs = evaluate(radial_scale(f, 0.7), Z).value
    rhs = evaluate(f, Z.scaled(0.7)).value
    checks.append(("radial_scale_evaluation", float(np.abs(lhs - rhs).max()), 1e-12))

    x = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    p = FockVector(basis, x)
    mx = vector_state(p)
    u = sos_split(p)
    direct = quadratic_form(mx, p)
    via_sos = 2.0 * float(np.real(np.sum(u.coeffs * mx.moments)))
    checks.append(("sos_split_identity", abs(direct - via_sos) / max(direct, 1.0), 1e-12))

    res = rn_derivative(NCSeries.zero(WordBasis(2, 1)), M=2,
                        eps_grid=(0.5, 1.0, 2.0),
                        schedule=Schedule.explicit([(0.5, 8), (0.75, 10)]))
    checks.append(("vacuum_identity", float(
        np.abs(res.T_compression - np.eye(len(res.T_compression))).max()), 1e-12))

    b_half = NCSeries.from_dict(WordBasis(1, 1), {(1,): 0.5})
    res1 = rn_derivative(b_half, M=4, eps_grid=(0.25, 1.0), j_max=6)
    checks.append(("eps_consistency_ac", res1.eps_consistency, 1e-4))

    spec = oracle1d.MeasureSpec(density=oracle1d.poisson_density(0.6))
    mom = oracle1d.classical_moments(spec, 12)
    checks.append(("oracle_poisson_moments", float(
        np.abs(mom.moments - 0.6 ** np.arange(13)).max()), 1e-12))

    basis4 = WordBasis(2, 4)
    zero_op = TruncatedOperator.from_dense(
        basis4, np.zeros((basis4.size, basis4.size)))
    fr = outer_factor(zero_op, 1.0)
    checks.append(("factor_trivial_residual", fr.residual, 1e-13))
    return checks


def run_verify(cfg, base_dir, out, threads, quiet):
    seed = _get(cfg, "seed", int, "", default=0) if cfg else 0
    checks = _core_checks()
    rows = [[name, value, thr, int(value <= thr)] for name, value, thr in checks]
    _write_csv(out / "verify_core.csv",
               ["check", "value", "threshold", "pass"], rows, seed, "verify")
    bad = [name for name, value, thr in checks if value > thr]
    if not quiet:
        for name, value, thr in checks:
            print(f"{'PASS' if value <= thr else 'FAIL'} {name}: {value:.3e} (<= {thr:.0e})")
    return 0 if not bad else 3


RUNNERS = {
    "classical-fatou": run_classical_fatou,
    "inner-singular": run_inner_singular,
    "decompose": run_decompose,
    "factor": run_factor,
    "majorant": run_majorant,
    "kernels": run_kernels,
    "verify": run_verify,
}


def run_config(path: str, threads: int = 1, quiet: bool = False) -> int:
    cfg_path = Path(path)
    if not cfg_path.exists():
        print(f"config: file not found: {path}", file=sys.stderr)
        return 2
    try:
        cfg = json.loads(cfg_path.read_text())
    except json.JSONDecodeError as exc:
        print(f"config: invalid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        if not isinstance(cfg, dict):
            _fail("", "top-level config must be an object")
        experiment = _get(cfg, "experiment", str, "", required=True)
        if experiment not in EXPERIMENTS:
            _fail("experiment", f"unknown experiment {experiment!r}; "
                                f"choose from {', '.join(EXPERIMENTS)}")
        out = _out_dir(cfg, cfg_path.parent)
        return RUNNERS[experiment](cfg, cfg_path.parent, out, threads, quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"numerical diagnostic failure: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ncfatou", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a named experiment from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--threads", type=int, default=1)
    p_run.add_argument("--quiet", action="store_true")
    p_ver = sub.add_parser("verify", help="run an invariant suite")
    p_ver.add_argument("--suite", default="core", choices=["core"])
    p_ver.add_argument("--threads", type=int, default=1)
    p_ver.add_argument("--quiet", action="store_true")
    p_ver.add_argument("--output-dir", default="out")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_config(args.config, threads=args.threads, quiet=args.quiet)
    out = Path(os.environ.get("NCFATOU_OUTDIR") or args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return run_verify({}, Path("."), out, args.threads, args.quiet)


if __name__ == "__main__":
    sys.exit(main())
