"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np

from ncfatou.cli import run_verify
from ncfatou.factor import outer_factor
from ncfatou.fock import FockVector, TruncatedOperator
from ncfatou.lebesgue import Schedule, majorant_check, rn_derivative
from ncfatou.measure import (clark_measure, herglotz_transform, radial_measure,
                             vector_state)
from ncfatou.oracle1d import (MeasureSpec, circle_grid, classical_moments,
                              fatou_symbol, toeplitz_from_symbol)
from ncfatou.series import (MatrixPoint, NCSeries, cayley_to_herglotz,
                            cayley_to_schur, evaluate, kernel_identity,
                            szego_kernel_matrix)
from ncfatou.words import WordBasis

from helpers import left_multiplier_norm

INV_SQRT2 = 2 ** -0.5


def verdict(name: str, ok: bool, detail: str):
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def test_a1_classical_fatou_recovery():
    start = time.monotonic()
    B = NCSeries.from_dict(WordBasis(1, 1), {(1,): 0.5})
    res = rn_derivative(B, M=8, eps_grid=(0.25, 1.0),
                        schedule=Schedule.coupled(1, tail_tol=1e-8, j_max=10))
    symbol = fatou_symbol(np.array([0.0, 0.5]), circle_grid())
    T_oracle = toeplitz_from_symbol(symbol, 8)
    err = float(np.abs(res.T_compression - T_oracle).max())
    elapsed = time.monotonic() - start
    verdict("A1", err <= 1e-3 and elapsed <= 60.0,
            f"max entry error {err:.3e} (<= 1e-3), runtime {elapsed:.1f}s (<= 60s)")


def test_a2_vacuum_identity():
    # d = 1 keeps the three runs inside the 1 s budget; the d = 2 vacuum
    # identity is exercised in the unit suite and the verify battery
    start = time.monotonic()
    worst = 0.0
    for eps in (0.5, 1.0, 2.0):
        res = rn_derivative(NCSeries.zero(WordBasis(1, 1)), M=8,
                            eps_grid=(eps,),
                            schedule=Schedule.explicit([(0.5, 8)]))
        worst = max(worst, float(np.abs(
            res.T_compression - np.eye(len(res.T_compression))).max()))
    elapsed = time.monotonic() - start
    verdict("A2", worst <= 1e-12 and elapsed <= 1.0,
            f"max deviation {worst:.3e} (<= 1e-12), runtime {elapsed:.2f}s (<= 1s)")


def test_a3_inner_implies_singular_d1():
    start = time.monotonic()
    B = NCSeries.from_dict(WordBasis(1, 1), {(1,): 1.0})
    res = rn_derivative(B, M=0, eps_grid=(0.25,),
                        schedule=Schedule.coupled(1, tail_tol=1e-8, j_max=10))
    final_mass = float(res.mass_trend[-1])
    mu_s_mass = res.mu_s.mass()
    elapsed = time.monotonic() - start
    ok = (res.mass_strictly_decreasing and final_mass < 0.05
          and 0.95 <= mu_s_mass <= 1.0 and elapsed <= 120.0)
    verdict("A3", ok,
            f"mu_ac(I) strictly decreasing={res.mass_strictly_decreasing}, "
            f"final {final_mass:.4f} (< 0.05), mu_s(I)={mu_s_mass:.4f} in "
            f"[0.95, 1], runtime {elapsed:.1f}s (<= 120s)")


def test_a4_inner_singular_trend_d2():
    start = time.monotonic()
    B = NCSeries.from_dict(WordBasis(2, 1),
                           {(1,): INV_SQRT2, (2,): INV_SQRT2})
    res = rn_derivative(B, M=0, eps_grid=(1.0,),
                        schedule=Schedule.explicit(
                            [(0.5, 18), (0.6, 18), (0.7, 18)]),
                        recovery_buffer=0)
    vacua = [st.vacuum_delta for st in res.stages]
    cg_ok = all(len(st.cg_iterations) > 0 for st in res.stages)
    elapsed = time.monotonic() - start
    ok = (res.vacuum_strictly_increasing and cg_ok and elapsed <= 600.0)
    verdict("A4", ok,
            f"<1, Delta_r(1) 1> = {[round(v, 6) for v in vacua]} strictly "
            f"increasing={res.vacuum_strictly_increasing}, all CG solves "
            f"converged at 1e-10={cg_ok}, runtime {elapsed:.1f}s (<= 600s)")


def test_a5_left_right_asymmetry():
    results = {}
    for N in (8, 10, 12):
        basis = WordBasis(2, N)
        B = NCSeries.from_dict(basis, {(2,): INV_SQRT2, (2, 1): -INV_SQRT2})
        results[N] = left_multiplier_norm(B)
    # isometry of the right multiplier on grades <= N-2 at N = 12
    basis = WordBasis(2, 12)
    B = NCSeries.from_dict(basis, {(2,): INV_SQRT2, (2, 1): -INV_SQRT2})
    M = TruncatedOperator(basis, B.coeffs, "right")
    m_low = basis.sub_basis_size(10)
    rng = np.random.default_rng(71)
    resid = 0.0
    for _ in range(20):
        v = np.zeros(basis.size, dtype=complex)
        w = np.zeros(basis.size, dtype=complex)
        v[:m_low] = rng.standard_normal(m_low) + 1j * rng.standard_normal(m_low)
        w[:m_low] = rng.standard_normal(m_low) + 1j * rng.standard_normal(m_low)
        v /= np.linalg.norm(v)
        w /= np.linalg.norm(w)
        resid = max(resid, abs(np.vdot(M.apply(v), M.apply(w)) - np.vdot(v, w)))
    closed = np.sqrt(1.0 + np.cos(np.pi / 14.0))
    norm_err = abs(results[12] - closed)
    increasing = results[8] < results[10] < results[12]
    sqrt2_gap = abs(results[12] - np.sqrt(2.0))
    ok = (resid <= 1e-12 and norm_err <= 1e-6 and increasing
          and sqrt2_gap <= 1e-2)
    verdict("A5", ok,
            f"right isometry residual {resid:.2e} (<= 1e-12), "
            f"||M^L_B|| = {results[12]:.7f} vs closed form {closed:.7f} "
            f"(err {norm_err:.1e} <= 1e-6), increasing in N={increasing}, "
            f"|norm - sqrt(2)| = {sqrt2_gap:.3e} (<= 1e-2)")


def test_a6_outer_factorization():
    basis1 = WordBasis(1, 96)
    tau1 = radial_measure(clark_measure(NCSeries.from_dict(basis1, {(1,): 0.5})), 0.9)
    res1 = outer_factor(tau1, 1.0)
    basis2 = WordBasis(2, 8)
    x = np.zeros(basis2.size, dtype=complex)
    x[basis2.index(())] = 1.0
    x[basis2.index((1,))] = 0.5
    res2 = outer_factor(vector_state(FockVector(basis2, x)), 1.0)
    ok = res1.residual <= 1e-8 and res2.residual <= 1e-8
    verdict("A6", ok,
            f"residuals {res1.residual:.2e} (d=1 Toeplitz, grade "
            f"{res1.check_grade}) and {res2.residual:.2e} (d=2 vector state, "
            f"grade {res2.check_grade}), both <= 1e-8")


def test_a7_harmonic_majorant():
    # d=1 on the A1 configuration, T from exact oracle moments
    basis1 = WordBasis(1, 96)
    B1 = NCSeries.from_dict(basis1, {(1,): 0.5})
    x1 = outer_factor(clark_measure(B1), 1.0).y_series
    floor1 = majorant_check(B1, x1, 0.9, 8).min_eigenvalue
    # d=2 on the A4 configuration: inner symbol, T = 0, factor of I is 1
    basis2 = WordBasis(2, 18)
    B2 = NCSeries.from_dict(basis2, {(1,): INV_SQRT2, (2,): INV_SQRT2})
    x2 = NCSeries.one(basis2)
    floor2 = min(majorant_check(B2, x2, r, 6).min_eigenvalue
                 for r in (0.5, 0.6, 0.7))
    ok = floor1 >= -1e-10 and floor2 >= -1e-8
    verdict("A7", ok,
            f"PSD floors {floor1:.3e} (d=1, >= -1e-10) and {floor2:.3e} "
            f"(d=2, >= -1e-8)")


def test_a8_round_trips():
    rng = np.random.default_rng(73)
    worst_cayley = 0.0
    worst_clark = 0.0
    for trial in range(20):
        d = 1 + trial % 2
        basis = WordBasis(d, 8)
        deg_basis = WordBasis(d, 4)
        entries = {}
        n_terms = int(rng.integers(1, 5))
        for _ in range(n_terms):
            idx = int(rng.integers(1, deg_basis.size))
            entries[deg_basis.word(idx)] = complex(rng.standard_normal(),
                                                   rng.standard_normal())
        B = NCSeries.from_dict(basis, entries)
        norm = left_multiplier_norm(
            NCSeries.from_dict(WordBasis(d, 6), entries))
        B = NCSeries(basis, B.coeffs * (0.9 / max(norm, 1e-12)))
        H = cayley_to_herglotz(B)
        worst_cayley = max(worst_cayley, float(
            np.abs(cayley_to_schur(H).coeffs - B.coeffs).max()))
        worst_clark = max(worst_clark, float(
            np.abs(herglotz_transform(clark_measure(B)).coeffs
                   - H.coeffs).max()))
    ok = worst_cayley <= 1e-12 and worst_clark <= 1e-12
    verdict("A8", ok,
            f"20 random Schur polynomials (d in {{1,2}}, degree <= 4, "
            f"compression norm 0.9): cayley round-trip error "
            f"{worst_cayley:.2e}, clark/herglotz pair error "
            f"{worst_clark:.2e}, both <= 1e-12")


def test_a9_kernel_identity():
    rng = np.random.default_rng(79)
    basis = WordBasis(2, 20)
    B = NCSeries.from_dict(basis, {(1,): 0.3, (2,): 0.25j, (1, 2): 0.2})
    H = cayley_to_herglotz(B)

    def random_point():
        level = int(rng.integers(1, 4))
        mats = tuple(rng.standard_normal((level, level))
                     + 1j * rng.standard_normal((level, level))
                     for _ in range(2))
        pt = MatrixPoint(mats)
        scale = 0.2 * rng.uniform(0.5, 1.0) / pt.row_norm
        return MatrixPoint(tuple(scale * M for M in mats))

    worst_resid = 0.0
    worst_floor = np.inf
    for _ in range(10):
        Z, W = random_point(), random_point()
        P = rng.standard_normal((Z.n, W.n)) + 1j * rng.standard_normal((Z.n, W.n))
        BZ, BW = evaluate(B, [Z, W])
        HZ, HW = evaluate(H, [Z, W])
        left, right = kernel_identity(BZ, BW, HZ, HW, Z, W, P, basis.N)
        worst_resid = max(worst_resid, float(
            np.abs(left.value - right.value).max()))
        K = szego_kernel_matrix(Z, Z, basis.N)
        worst_floor = min(worst_floor, float(
            np.linalg.eigvalsh(0.5 * (K + K.conj().T)).min()))
    ok = worst_resid <= 1e-9 and worst_floor >= -1e-10
    verdict("A9", ok,
            f"kernel identity residual {worst_resid:.2e} (<= 1e-9), szego "
            f"PSD floor {worst_floor:.3e} (>= -1e-10) over 10 point pairs")


def test_a10_mixture_decomposition():
    sched = Schedule.coupled(1, tail_tol=1e-8, j_max=10)
    grid = 131072
    spec = MeasureSpec(point_masses=((0.0, 0.5),),
                       density=np.full(grid, 0.5), grid=grid)
    mu = classical_moments(spec, sched.max_grade())
    res = rn_derivative(mu, M=4, eps_grid=(0.25,), schedule=sched)
    ks = np.arange(5)
    ac_target = np.where(ks == 0, 0.5, 0.0)
    s_target = np.full(5, 0.5)
    ac_err = float(np.abs(res.mu_ac.moments.real - ac_target).max())
    s_err = float(np.abs(res.mu_s.moments[1:].real - s_target[1:]).max())
    ok = ac_err <= 5e-2 and s_err <= 5e-2
    verdict("A10", ok,
            f"mu_ac moment error {ac_err:.3e} and mu_s moment error "
            f"{s_err:.3e}, both <= 5e-2")


def test_a11_determinism(tmp_path):
    out1 = tmp_path / "first"
    out2 = tmp_path / "second"
    out1.mkdir()
    out2.mkdir()
    assert run_verify(out1, quiet=True) == 0
    assert run_verify(out2, quiet=True) == 0
    b1 = (out1 / "verify_core.csv").read_bytes()
    b2 = (out2 / "verify_core.csv").read_bytes()
    verdict("A11", b1 == b2,
            f"verify --suite core twice: outputs bit-identical ({len(b1)} bytes)")
