"""Batch experiment runner.

Usage:
    ncfatou run <config.json> [--threads K] [--quiet]
    ncfatou verify --suite core [--output-dir DIR] [--quiet]

run accepts --threads K, which has no effect; it goes with ROADMAP item 1.

Exit codes: 0 success, 2 config validation failure (the message names the
field path; a grade whose words int64 cannot index, or whose basis at 64
bytes a word exceeds physical memory, names its field, and a coupled
schedule's grade names schedule.memory_budget_mb), 3
numerical-diagnostic failure (CG non-convergence, a d=1 symbol that is not
positive, PSD floor or residual beyond tolerance, or an allocation that
fails).
Identical configs produce bit-identical CSV outputs: fixed reduction
order, seeded probes, and the seed recorded in every output header.  CI
compares the committed configs' outputs with their golden files at one,
two and four BLAS threads.

Config keys by experiment, as `key: type = default`.  An interval such as
[0,inf) bounds a number and may name another field, [t, ...] is a nonempty
list, `coeffs <= N` is {word: [re, im]} with words of length <= N, and of
the keys marked "(one of)" exactly one is given.  Any other key exits 2.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import textwrap
from collections import ChainMap
from pathlib import Path

import numpy as np

from . import oracle1d
from .factor import _SUPPORT_FLOOR, outer_factor
from .fock import FockVector
from .lebesgue import _WORD_BYTES, Schedule, fatou_form_check, majorant_check, rn_derivative
from .measure import (clark_measure, hermitian_floor, nc_lebesgue, radial_measure,
                      read_moments_csv, vector_state)
from .series import (MatrixPoint, NCSeries, cayley_to_herglotz, cayley_to_schur,
                     evaluate, kernel_identity, read_series_csv, szego_kernel_matrix)
from .words import WordBasis, word_from_str, word_to_str


class ConfigError(Exception):
    """Schema violation; the message names the offending field path."""


def _fail(path: str, msg: str):
    raise ConfigError(f"{path.removeprefix('.') or 'config'}: {msg}")


# ---------------------------------------------------------------------------
# config validation against SCHEMAS, the experiment table at the end
#
# An object maps each key, in checking order, to (type, default).  Types:
#   "int I", "real I"  a number in the interval I, such as "(0,1)"; a bound
#                      may name a field checked before, as in "[M,inf)"
#   "str", "a|b"       a string; one of the strings a, b
#   "file"             a file, relative to the config, that must exist
#   "coeffs <= N"      {word: [re, im]} over the letters 1..d, |word| <= N
#   [t], (t, u)        a nonempty list of t; a list [t, u]
#   {...}, Variants    a nested object; one of several
# A default is REQUIRED, OPTIONAL (the key stays absent), ONE_OF (exactly
# one such key is given), a function of the fields checked before it, or
# a value that is checked like a given one.

REQUIRED, OPTIONAL, ONE_OF = "(required)", "(optional)", "(one of)"


class Variants(dict):
    """Object shapes by name; pick(value) names the one that applies."""

    def __init__(self, pick, shapes):
        super().__init__(shapes)
        self.pick = pick


def validate(cfg, base_dir=Path(".")) -> dict:
    """Check a parsed config against SCHEMAS before any numerics run.

    Returns it with every default filled in, coefficients as {word:
    complex} and files joined to base_dir, or raises ConfigError, also
    for a grade (N, symbol_grade, a stage's) that _check_grade refuses.
    A coupled schedule's grades come from its memory budget, so _schedule
    checks them.
    """
    if not isinstance(cfg, dict):
        _fail("", "top-level config must be an object")
    exp = cfg.get("experiment")
    if not isinstance(exp, str) or exp not in SCHEMAS:
        _fail("experiment", f"expected one of {', '.join(SCHEMAS)}, got {exp!r}")
    c = _check(SCHEMAS[exp][0], cfg, "", ChainMap({"base_dir": Path(base_dir)}))
    stages = enumerate(c.get("schedule", {}).get("stages", ()))
    for path, N in [(k, c[k]) for k in ("N", "symbol_grade") if k in c] + [
            (f"schedule.stages[{i}][1]", N) for i, (_, N) in stages]:
        _check_grade(path, c["d"], N)
    return c


def _check_grade(path: str, d: int, N: int):
    """ConfigError naming path for a grade whose words int64 cannot index
    or whose basis, at _WORD_BYTES bytes a word, exceeds physical memory."""
    try:  # the runners build WordBasis(d, N); it refuses before allocating
        n = WordBasis(d, N).size
    except ValueError as exc:
        _fail(path, str(exc))
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if n * _WORD_BYTES > ram:  # allocated, it could be killed rather than exit 3
        _fail(path, f"d = {d}, N = {N}: {n} words at {_WORD_BYTES:g} bytes "
              f"each exceed the {ram / 2 ** 30:.3g} GiB of physical memory")


def _check(t, v, path, ctx):
    """v checked against t and converted; ctx maps "base_dir" and the fields
    checked so far to their values."""
    if isinstance(t, dict):
        if not isinstance(v, dict):
            _fail(path, "expected an object")
        if isinstance(t, Variants):
            shape = t.pick(v)
            if not isinstance(shape, str) or shape not in t:
                _fail(f"{path}.type", f"expected one of {', '.join(t)}, got {shape!r}")
            t = t[shape]
        for key in v:
            if key not in t:
                _fail(f"{path}.{key}", "unknown key; expected one of " + ", ".join(t))
        group = [k for k, (_, default) in t.items() if default == ONE_OF]
        if group and sum(k in v for k in group) != 1:
            _fail(f"{path}.{group[0]}", f"give exactly one of {', '.join(group)}")
        out = {}
        inner = ctx.new_child(out)
        for key, (kind, default) in t.items():
            if key not in v and default == REQUIRED:
                _fail(f"{path}.{key}", "missing required field")
            if key in v or default not in (OPTIONAL, ONE_OF):
                value = v[key] if key in v else default(inner) if callable(default) else default
                out[key] = _check(kind, value, f"{path}.{key}", inner)
        return out
    if isinstance(t, (list, tuple)):
        if not isinstance(v, list) or not v or isinstance(t, tuple) and len(v) != len(t):
            _fail(path, f"expected {_doc(t)}")
        items = t * len(v) if isinstance(t, list) else t
        return [_check(s, x, f"{path}[{i}]", ctx) for i, (s, x) in enumerate(zip(items, v))]
    kind, _, arg = t.partition(" ")
    if kind in ("int", "real"):
        return _number(t, v, path, ctx)
    if kind == "coeffs":
        return _coeffs(ctx[arg.split()[-1]], v, path, ctx)
    if not isinstance(v, str):
        _fail(path, f"expected {t}, got {type(v).__name__}")
    if kind == "file":
        v = ctx["base_dir"] / v
        if not os.path.isfile(v):
            _fail(path, f"file not found: {v}")
    elif kind != "str" and v not in kind.split("|"):
        _fail(path, f"expected one of {kind.replace('|', ', ')}, got {v!r}")
    return v


def _number(t, v, path, ctx):
    kind, _, interval = t.partition(" ")
    if isinstance(v, bool) or not isinstance(v, (int, float) if kind == "real" else int):
        _fail(path, f"expected {t}, got {type(v).__name__}")
    try:
        v = float(v) if kind == "real" else v
        ok = math.isfinite(v)
    except OverflowError:
        ok = False
    bounds = (interval or "(-inf,inf)")[1:-1].split(",")
    lo, hi = (ctx[b] if b in ctx else float(b) for b in bounds)
    ok = ok and (lo < v if interval[:1] == "(" else lo <= v)
    if not (ok and (v < hi if interval[-1:] == ")" else v <= hi)):
        where = "".join(f" with {b} = {ctx[b]}" for b in bounds if b in ctx)
        _fail(path, f"expected {t}{where}, got {v!r}")
    return v


def _coeffs(grade, v, path, ctx):
    if not isinstance(v, dict):
        _fail(path, "expected an object of word -> [re, im]")
    out = {}
    for key, pair in v.items():
        try:
            w = word_from_str(key, d=ctx["d"])
        except ValueError as exc:
            _fail(f"{path}.{key}", str(exc))
        if w in out:
            _fail(f"{path}.{key}", f"repeated word {word_to_str(w)!r}")
        if len(w) > grade:
            _fail(f"{path}.{key}", f"word longer than the grade {grade}")
        re, im = _check(("real", "real"), pair, f"{path}.{key}", ctx)
        out[w] = re + 1j * im
    return out


def _doc(t, top=True) -> str:
    if isinstance(t, str):
        return t
    if isinstance(t, (list, tuple)):
        return "[" + ", ".join(map(_doc, t)) + (", ...]" if isinstance(t, list) else "]")
    if not top and any(t is n for n in NESTED.values()):
        return "object"
    if isinstance(t, Variants):
        return " or ".join(map(_doc, t.values()))
    return "{" + ", ".join(f"{k}: {_doc(s, False)} " + (
        f"= {d.__doc__}" if callable(d) else d if d in (REQUIRED, OPTIONAL, ONE_OF)
        else f"= {json.dumps(d)}") for k, (s, d) in t.items()) + "}"


def schema_doc() -> str:
    """The keys of each experiment and nested object, rendered from SCHEMAS."""
    paras = [("every experiment", COMMON), *(
        (name, {k: f for k, f in fields.items() if k not in COMMON})
        for name, (fields, _) in SCHEMAS.items() if name != "verify"), *NESTED.items()]
    return "\n".join(textwrap.fill(f"{name}: {_doc(t)}", 79, initial_indent="- ",
                                   subsequent_indent="  ", break_on_hyphens=False)
                     for name, t in paras)


# ---------------------------------------------------------------------------
# reading validated fields

def _schedule(c) -> Schedule:
    s = c["schedule"]
    if "stages" in s:  # their grades were checked against M
        return Schedule.explicit(s["stages"])
    try:
        sched = Schedule.coupled(c["d"], **s)
    except ValueError as exc:  # whether the budget holds a basis depends on d
        _fail("schedule.memory_budget_mb", str(exc))
    # the budget has no upper bound, so its grades may outgrow the machine
    _check_grade("schedule.memory_budget_mb", c["d"], sched.max_grade())
    if sched.stages[0][1] < c["M"]:
        _fail("schedule", f"coupled stage grade {sched.stages[0][1]} is below M = {c['M']}")
    return sched


def _read(reader, src, key, basis, prefix=""):
    """Read a word,re,im file; its contents are config, so a fault exits 2."""
    try:
        return reader(src[key], basis)
    except (OSError, ValueError, TypeError, csv.Error) as exc:
        _fail(prefix + key, f"{src[key]}: {exc}")


def _symbol_series(src, d, grade, prefix="") -> NCSeries:
    basis = WordBasis(d, grade)
    if "schur_coeffs" in src:
        return NCSeries.from_dict(basis, src["schur_coeffs"])
    return _read(read_series_csv, src, "schur_series_file", basis, prefix)


def _rn_derivative(source, c, **kw):
    schedule = _schedule(c)
    grade = min(N for _, N in schedule.stages)
    if isinstance(source, NCSeries) and source.degree() > grade:
        _fail("schedule", f"stage grade {grade} is below the symbol degree {source.degree()}")
    return rn_derivative(source, M=c["M"], eps_grid=c["epsilon_grid"], schedule=schedule,
                         singular_tol=c["tolerances"]["singular_tol"], **kw)


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


# ---------------------------------------------------------------------------
# experiments: each takes a validated config and returns (tables,
# summary lines, passed); a table is (file, header, rows)

def _convergence_rows(result, eps):
    # one row per stage for the resolvent vacuum entry, then the recovered
    # T compression of the final stage, entry by entry
    final, T = result.stages[-1], result.T_compression
    return [[eps, st.r, st.N, result.M, 0, 0, st.vacuum_delta, 0.0] for st in result.stages] + [
        [eps, final.r, final.N, result.M, i, j, T[i, j].real, T[i, j].imag]
        for i in range(len(T)) for j in range(len(T))]


def _summary_table(name, result):
    basis, ac, s = WordBasis(result.d, result.M), result.mu_ac.moments, result.mu_s.moments
    return (name, ["word", "mu_ac_re", "mu_ac_im", "mu_s_re", "mu_s_im"],
            [[word_to_str(basis.word(i)), ac[i].real, ac[i].imag, s[i].real, s[i].imag]
             for i in range(basis.size)])


def _classical_fatou(c):
    B = _symbol_series(c, c["d"], c["symbol_grade"])
    result = _rn_derivative(B, c)
    # oracle comparison through the Fatou symbol on the circle grid; for
    # d = 1 the k-th coefficient belongs to the word 1^k
    symbol = oracle1d.fatou_symbol(B.coeffs, oracle1d.circle_grid())
    T_oracle = oracle1d.toeplitz_from_symbol(symbol, c["M"])
    err = float(np.abs(result.T_compression - T_oracle).max())
    return [("classical_fatou_convergence.csv",
             ["epsilon", "r", "N", "M", "entry_row", "entry_col", "re", "im"],
             _convergence_rows(result, result.primary_eps)),
            _summary_table("classical_fatou_summary.csv", result)], [
        f"classical-fatou: max entry error vs oracle = {err!r}",
        f"eps consistency = {result.eps_consistency!r}",
        f"achieved r_max = {result.achieved_r_max!r}"], True


def _inner_singular(c):
    B = _symbol_series(c, c["d"], c["symbol_grade"])
    result = _rn_derivative(B, c, recovery_buffer=c["recovery_buffer"])
    rows = [[result.primary_eps, st.r, st.N, st.vacuum_delta, st.mass,
             len(st.cg_iterations), max(st.cg_iterations, default=0)]
            for st in result.stages]
    return [("inner_singular_trend.csv", ["epsilon", "r", "N", "vacuum_delta",
                                          "mu_ac_mass", "cg_solves", "cg_max_iters"], rows)], [
        f"inner-singular: final mu_ac(I) = {float(result.mass_trend[-1])!r}",
        f"mu_s(I) = {result.mu_s.mass()!r}",
        f"mass strictly decreasing = {result.mass_strictly_decreasing}",
        f"vacuum resolvent strictly increasing = {result.vacuum_strictly_increasing}",
        f"singular verdict = {result.singular}"], True


def _decompose(c):
    N = _schedule(c).max_grade()
    if "moments_file" in c:
        mu = _read(read_moments_csv, c, "moments_file", WordBasis(1, N))
    else:
        spec, density = c["measure_spec"], None
        grid = 1 << (max(spec["grid"], 4 * (N + 1)) - 1).bit_length()
        dens = spec.get("density", {})
        if dens.get("type") == "constant":
            density = np.full(grid, dens["value"])
        elif dens.get("type") == "poisson":
            density = dens["weight"] * oracle1d.poisson_density(dens["r"], dens["angle"], grid)
        masses = tuple(tuple(pm) for pm in spec.get("point_masses", ()))
        mu = oracle1d.classical_moments(oracle1d.MeasureSpec(masses, density, grid), N)
    result = _rn_derivative(mu, c)
    return [_summary_table("decompose_summary.csv", result)], [
        f"decompose: mu_ac(I) = {result.mu_ac.mass()!r}",
        f"mu_s(I) = {result.mu_s.mass()!r}",
        f"mu_ac positivity floor = {result.positivity_ac.min_eigenvalue!r}",
        f"singular verdict = {result.singular}"], True


def _factor(c):
    tau, basis = c["tau"], WordBasis(c["d"], c["N"])
    if tau["type"] == "radial":
        B = _symbol_series(tau, c["d"], c["N"], "tau.")
        mu = radial_measure(clark_measure(B), tau["r"])
    else:
        mu = vector_state(FockVector(basis, NCSeries.from_dict(basis, tau["coeffs"]).coeffs))
    result = outer_factor(mu, c["epsilon"], seed=c["seed"])
    # coefficients at the floor are rounding noise that changes between equally
    # valid solves; a NaN is kept
    rows = [[word_to_str(w), coef.real, coef.imag] for w, coef in result.psi.support()
            if not abs(coef) <= _SUPPORT_FLOOR]
    return [("factor_psi.csv", ["word", "re", "im"], rows)], [
        f"factor: residual = {result.residual!r} on grades <= {result.check_grade}",
        f"psi constant coefficient = {result.psi.constant_term().real!r}",
        f"contraction bound 1/sqrt(eps) = {result.contraction_norm_bound!r}",
    ], result.residual <= c["residual_tol"]


def _majorant(c):
    B = _symbol_series(c, c["d"], c["N"])
    if c["tau_mode"] == "zero":
        x = NCSeries.one(WordBasis(c["d"], c["M"]))
    else:
        # exact for purely absolutely continuous Clark measures, where the
        # Radon-Nikodym compression equals the moment Gram matrix
        x = outer_factor(clark_measure(B), 1.0, seed=c["seed"]).y_series
    r_grid = c["r_grid"]
    reports = [majorant_check(B, x, r, c["M"]) for r in r_grid]
    rows = [[r, rep.min_eigenvalue, rep.grade, rep.size] for r, rep in zip(r_grid, reports)]
    floor = min(rep.min_eigenvalue for rep in reports)
    return [("majorant_floors.csv", ["r", "min_eigenvalue", "M", "size"], rows)], [
        f"majorant: worst PSD floor = {floor!r} over r grid {r_grid}"
    ], floor >= -c["floor_tol"]


def _kernels(c):
    d, N = c["d"], c["N"]
    B = _symbol_series(c, d, N)
    H = cayley_to_herglotz(B)
    rng = np.random.default_rng(c["seed"])

    def random_point(level):
        pt = MatrixPoint(tuple(rng.standard_normal((level, level))
                               + 1j * rng.standard_normal((level, level)) for _ in range(d)))
        scale = c["row_norm_cap"] * rng.uniform(0.5, 1.0) / pt.row_norm
        return MatrixPoint(tuple(scale * M for M in pt.Z))

    def draw():
        nz = int(rng.integers(1, c["max_level"] + 1))
        nw = int(rng.integers(1, c["max_level"] + 1))
        Z, W = random_point(nz), random_point(nw)
        P = rng.standard_normal((nz, nw)) + 1j * rng.standard_normal((nz, nw))
        return Z, W, P

    # draws happen sequentially for determinism; then H and B are each
    # evaluated at every point in one sweep
    triples = [draw() for _ in range(c["point_pairs"])]
    points = [pt for Z, W, _ in triples for pt in (Z, W)]
    HV, BV = evaluate(H, points), evaluate(B, points)
    results = []
    for (Z, W, P), HZ, HW, BZ, BW in zip(triples, HV[::2], HV[1::2], BV[::2], BV[1::2]):
        left, right = kernel_identity(BZ, BW, HZ, HW, Z, W, P, N)
        resid = float(np.abs(left.value - right.value).max())
        A = szego_kernel_matrix(Z, Z, N)  # its own sweep: the floor's W is Z
        results.append((resid, left.tail + right.tail, hermitian_floor(A)))
    rows = [[i, r, t, f] for i, (r, t, f) in enumerate(results)]
    worst = max(r for r, _, _ in results)
    floor = min(f for _, _, f in results)
    return [("kernel_identity.csv",
             ["pair", "residual", "tail_bound", "szego_psd_floor"], rows)], [
        f"kernels: worst identity residual = {worst!r}",
        f"worst szego PSD floor = {floor!r}",
    ], worst <= c["residual_tol"] and floor >= -c["floor_tol"]


# ---------------------------------------------------------------------------
# verify suite

def _core_checks():
    """Deterministic invariant battery; yields (name, value, threshold)."""
    from .fock import left_shift, right_shift
    from .measure import herglotz_transform, quadratic_form, sos_split
    from .series import radial_scale

    rng = np.random.default_rng(12345)
    checks = []

    basis = WordBasis(2, 5)
    p = basis.transpose_permutation  # U: e_w -> e_{transpose(w)}, an involution
    worst = 0.0
    for k in (1, 2):
        L, R = left_shift(basis, k), right_shift(basis, k)
        v = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        worst = max(worst, float(np.abs(
            L.apply(v[p])[p] - R.apply(v)).max()))
    checks.append(("transpose_conjugation_of_shifts", worst, 1e-14))

    B = NCSeries.from_dict(basis, {(1,): 0.35, (2,): -0.25j, (1, 2): 0.2})
    H = cayley_to_herglotz(B)
    B2 = cayley_to_schur(H)
    checks.append(("cayley_round_trip", float(np.abs(B2.coeffs - B.coeffs).max()), 1e-12))

    mu = clark_measure(B)
    H2 = herglotz_transform(mu)
    checks.append(("clark_herglotz_inverse", float(np.abs(H2.coeffs - H.coeffs).max()), 1e-12))
    # T the Gram matrix of B's Clark measure: (I-B(R))*(I+T)(I-B(R)) = 2(I - Re B(R)),
    # exact at grade 3 since the moments reach grade 3 + deg B = 5
    checks.append(("fatou_form_equality", abs(fatou_form_check(B, mu, 3).min_eigenvalue), 1e-12))

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
    res1 = rn_derivative(b_half, M=4, eps_grid=(0.25, 1.0),
                         schedule=Schedule.coupled(1, j_max=6))
    checks.append(("eps_consistency_ac", res1.eps_consistency, 1e-4))

    spec = oracle1d.MeasureSpec(density=oracle1d.poisson_density(0.6))
    mom = oracle1d.classical_moments(spec, 12)
    checks.append(("oracle_poisson_moments", float(
        np.abs(mom.moments - 0.6 ** np.arange(13)).max()), 1e-12))

    fr = outer_factor(0.0 * nc_lebesgue(WordBasis(2, 4)), 1.0)
    checks.append(("factor_trivial_residual", fr.residual, 1e-13))
    return checks


def _verify(c):
    checks = _core_checks()
    rows = [[name, value, thr, int(value <= thr)] for name, value, thr in checks]
    lines = [f"{'PASS' if value <= thr else 'FAIL'} {name}: {value:.3e} (<= {thr:.0e})"
             for name, value, thr in checks]
    return [("verify_core.csv", ["check", "value", "threshold", "pass"], rows)], \
        lines, all(value <= thr for _, value, thr in checks)


# ---------------------------------------------------------------------------
# the experiment table: for each experiment its fields and its runner

def _symbol(grade):
    """The Schur symbol: a word,re,im file or inline coefficients."""
    return {"schur_series_file": ("file", ONE_OF),
            "schur_coeffs": (f"coeffs <= {grade}", ONE_OF)}


def _recovery_buffer(c):
    """8 if d = 1 else 0"""
    return 8 if c["d"] == 1 else 0


SCHEDULE = Variants(lambda v: "stages" if "stages" in v else "coupled", {
    "stages": {"stages": ([("real (0,1)", "int [M,inf)")], REQUIRED)},
    "coupled": {"tail_tol": ("real (0,1)", 1e-8), "j_min": ("int [1,inf)", 1),
                "j_max": ("int [j_min,inf)", 10),
                "memory_budget_mb": ("real (0,inf)", 512.0)}})
TOLERANCES = {"singular_tol": ("real [0,inf)", 0.05)}
DENSITY = Variants(lambda v: v.get("type"), {
    "constant": {"type": ("constant", REQUIRED), "value": ("real [0,inf)", 1.0)},
    "poisson": {"type": ("poisson", REQUIRED), "weight": ("real [0,inf)", 1.0),
                "r": ("real (0,1)", 0.5), "angle": ("real", 0.0)}})
# the grid is rounded up to a power of two >= 4 (N + 1), N the largest stage grade
MEASURE_SPEC = {"point_masses": ([("real", "real [0,inf)")], OPTIONAL),
                "grid": ("int [1,inf)", oracle1d.DEFAULT_GRID),
                "density": (DENSITY, OPTIONAL)}
TAU = Variants(lambda v: v.get("type"), {
    "radial": {"type": ("radial", REQUIRED), "r": ("real (0,1)", 0.9), **_symbol("N")},
    "vector-state": {"type": ("vector-state", REQUIRED),
                     "coeffs": ("coeffs <= N", REQUIRED)}})
NESTED = {"schedule": SCHEDULE, "tolerances": TOLERANCES, "tau": TAU,
          "measure_spec": MEASURE_SPEC, "density": DENSITY}
COMMON = {"experiment": ("str", REQUIRED), "output_dir": ("str", "out"),
          "seed": ("int [0,inf)", 0)}


def _rn(d, M, **extra):
    """Fields of the experiments that run the coupled limit."""
    return {**COMMON, "d": (d, 1), "M": ("int [0,inf)", M),
            "epsilon_grid": (["real (0,inf)"], [0.25, 1.0]),
            "schedule": (SCHEDULE, {}), "tolerances": (TOLERANCES, {}), **extra}


SCHEMAS = {
    "classical-fatou": (_rn("int [1,1]", 8, symbol_grade=("int [1,inf)", 4),
                            **_symbol("symbol_grade")), _classical_fatou),
    "inner-singular": (_rn("int [1,inf)", 0, symbol_grade=("int [1,inf)", 4),
                           recovery_buffer=("int [0,inf)", _recovery_buffer),
                           **_symbol("symbol_grade")), _inner_singular),
    "decompose": (_rn("int [1,1]", 4, moments_file=("file", ONE_OF),
                      measure_spec=(MEASURE_SPEC, ONE_OF)), _decompose),
    "factor": ({**COMMON, "d": ("int [1,inf)", 1), "N": ("int [0,inf)", REQUIRED),
                "epsilon": ("real (0,inf)", 1.0), "tau": (TAU, REQUIRED),
                "residual_tol": ("real [0,inf)", 1e-8)}, _factor),
    "majorant": ({**COMMON, "d": ("int [1,inf)", 1), "N": ("int [0,inf)", REQUIRED),
                  "M": ("int [0,N]", 6), "r_grid": (["real (0,1)"], [0.9]),
                  "tau_mode": ("zero|clark-gram", "zero"),
                  "floor_tol": ("real [0,inf)", 1e-8), **_symbol("N")}, _majorant),
    "kernels": ({**COMMON, "d": ("int [1,inf)", 2), "N": ("int [0,inf)", 20),
                 "point_pairs": ("int [1,inf)", 10), "max_level": ("int [1,inf)", 3),
                 "row_norm_cap": ("real (0,1)", 0.2), "residual_tol": ("real [0,inf)", 1e-9),
                 "floor_tol": ("real [0,inf)", 1e-10), **_symbol("N")}, _kernels),
    "verify": (COMMON, _verify),
}
__doc__ = (__doc__ or "") + schema_doc()


def _execute(cfg, base_dir: Path, out, quiet: bool) -> int:
    """Validate cfg, run it, then make out and write its tables and
    summary.txt (verify has its CSV alone); returns the exit code.  The
    output directory is NCFATOU_OUTDIR, else out (--output-dir), else
    output_dir, the first two relative to base_dir.  An output location
    that cannot be written exits 2 with one line naming the path and its
    source; an allocation that fails exits 3 with one line."""
    source = "output_dir" if out is None else "--output-dir"
    if os.environ.get("NCFATOU_OUTDIR"):
        out, source = os.environ["NCFATOU_OUTDIR"], "NCFATOU_OUTDIR"
    try:
        c = validate(cfg, base_dir)
        out = base_dir / (c["output_dir"] if out is None else out)
        tables, lines, passed = SCHEMAS[c["experiment"]][1](c)
        out.mkdir(parents=True, exist_ok=True)
        for name, header, rows in tables:
            _write_csv(out / name, header, rows, c["seed"], c["experiment"])
        if c["experiment"] != "verify":
            (out / "summary.txt").write_text("\n".join(lines) + "\n")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # validate turns unreadable inputs into ConfigError
        print(f"output error: cannot write {exc.filename or out} ({source} {out}): "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"numerical diagnostic failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    if not quiet:
        print("\n".join(lines))
    return 0 if passed else 3


def run_config(path: str, quiet: bool = False) -> int:
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    return _execute(cfg, Path(path).parent, None, quiet)


def run_verify(out, quiet: bool = False) -> int:
    """The core invariant suite, written to the directory out."""
    return _execute({"experiment": "verify"}, Path("."), out, quiet)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(prog="ncfatou", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a named experiment from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--threads", type=int, help="accepted and ignored")
    p_run.add_argument("--quiet", action="store_true")
    p_ver = sub.add_parser("verify", help="run an invariant suite")
    p_ver.add_argument("--suite", default="core", choices=["core"])
    p_ver.add_argument("--quiet", action="store_true")
    p_ver.add_argument("--output-dir", default="out")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "run":
        return run_config(args.config, quiet=args.quiet)
    return run_verify(args.output_dir, args.quiet)


if __name__ == "__main__":
    sys.exit(main())
