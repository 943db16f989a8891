import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_toeplitz, toeplitz

from ncfatou import lebesgue
from ncfatou.fock import FockVector, TruncatedOperator
from ncfatou.lebesgue import (DENSE_LIMIT, Schedule, _cg_corner, _eliminate, _herm,
                              _inverse_corner, _spectral_block, _stage, fatou_form_check,
                              hermitian_cg, majorant_check, rn_derivative)
from ncfatou.measure import (MomentFunctional, _gram_apply, clark_measure, gram,
                             herglotz_transform, nc_lebesgue, radial_measure,
                             vector_state)
from ncfatou.oracle1d import (MeasureSpec, circle_grid, classical_moments,
                              fatou_symbol, toeplitz_from_symbol)
from ncfatou.series import (NCSeries, radial_scale, series_at_right_shifts,
                            transpose_conjugate)
from ncfatou.words import WordBasis

import helpers
from helpers import adjoint_residual, dense_of, resolvent_corner


def schur_z(basis, coeff=1.0):
    return NCSeries.from_dict(basis, {(1,): coeff})


# -- schedules ---------------------------------------------------------------

def test_coupled_schedule_shape():
    s = Schedule.coupled(1, tail_tol=1e-8, j_max=4)
    assert [r for r, _ in s.stages] == [0.5, 0.75, 0.875, 0.9375]
    for r, N in s.stages:
        assert r ** N <= 1e-8
    assert s.achieved_r_max == 0.9375


def test_coupled_schedule_caps_radius_by_memory():
    s = Schedule.coupled(2, tail_tol=1e-2, j_max=12, memory_budget_mb=2.0)
    assert s.achieved_r_max < 1.0 - 0.5 ** 12
    for r, N in s.stages:
        assert (2 ** (N + 1) - 1) * 64 <= 2.0 * 2 ** 20
    # still meets the coupling at the capped radius
    assert s.stages[-1][0] ** s.stages[-1][1] <= 1e-2 * (1 + 1e-12)


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule.explicit([(1.0, 8)])
    with pytest.raises(ValueError, match="at least one stage"):
        Schedule.explicit([])
    with pytest.raises(ValueError):
        Schedule.coupled(2, tail_tol=2.0)
    with pytest.raises(ValueError):
        Schedule.coupled(2, j_max=0)


# -- the radial Gram matrix T_r -----------------------------------------------

def fatou_toeplitz(coeff, r, N):
    """Oracle T_r for b = coeff z: Fourier coefficients of Re H(r zeta)."""
    z = coeff * r * circle_grid(4096)
    return toeplitz_from_symbol(np.real((1 + z) / (1 - z)), N)


def clark_r(B, r):
    """mu_r of the Clark measure of B; T_r is its Gram matrix."""
    return radial_measure(clark_measure(B), r)


def t_r_by_inverses(B, r):
    """v -> K^{-1} v + K^{-*} v - v, K = I - B(rR): T_r of the Schur symbol
    B from its two graded inverses (TruncatedOperator.solve), computed
    apart from the Gram matrix of mu_r and from the banded form that
    _cg_corner solves."""
    k = -radial_scale(B, r).coeffs
    k[0] += 1.0
    op = TruncatedOperator(B.basis, transpose_conjugate(NCSeries(B.basis, k)).coeffs, "right")
    return lambda v: op.solve(v) + op.solve(v, adjoint=True) - v


def test_radial_gram_identity_for_zero_symbol():
    basis = WordBasis(2, 4)
    T = gram(clark_r(NCSeries.zero(basis), 0.6)).matrix
    assert np.abs(T - np.eye(basis.size)).max() < 1e-14


def test_radial_gram_entries_match_fft_oracle():
    # d=1, b = z: T_r is Toeplitz with entries r^{|j-k|}; cross-check the
    # whole matrix against Fourier coefficients of Re (1+r zeta)/(1-r zeta)
    basis = WordBasis(1, 12)
    r = 0.7
    T = gram(clark_r(schur_z(basis), r)).matrix
    grid = circle_grid(512)
    hvals = np.real((1 + r * grid) / (1 - r * grid))
    oracle = toeplitz_from_symbol(hvals, 12)
    assert np.abs(T - oracle).max() < 1e-12
    assert np.abs(T - toeplitz(r ** np.arange(13))).max() < 1e-12


def test_matrix_free_t_r_vacuum_moment_is_r_independent():
    basis = WordBasis(2, 5)
    B = NCSeries.from_dict(basis, {(1,): 0.5, (2, 1): 0.3j})
    mu_mass = clark_measure(B).mass()
    e0 = np.zeros(basis.size, dtype=complex)
    e0[0] = 1.0
    for r in (0.3, 0.6, 0.9):
        T = t_r_by_inverses(B, r)
        assert np.vdot(e0, T(e0)).real == pytest.approx(mu_mass, abs=1e-12)


def test_radial_gram_and_matrix_free_t_r_agree_and_are_self_adjoint_psd():
    basis = WordBasis(1, 40)
    B = schur_z(basis, 0.8)
    rng = np.random.default_rng(41)
    v = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    mu_r = clark_r(B, 0.85)

    g = _gram_apply(mu_r)
    T = t_r_by_inverses(B, 0.85)
    ref = fatou_toeplitz(0.8, 0.85, 40) @ v
    assert np.abs(g(v) - ref).max() < 1e-10
    assert np.abs(T(v) - ref).max() < 1e-10
    assert adjoint_residual(g, g, basis.size, rng) < 1e-12
    assert adjoint_residual(T, T, basis.size, rng) < 1e-12
    lam = np.linalg.eigvalsh(gram(mu_r).matrix).min()
    assert lam >= -1e-10


def test_matrix_free_t_r_nonzero_germ_neumann():
    # the matrix-free substitution must stay exact when B(0) != 0
    basis = WordBasis(2, 4)
    B = NCSeries.from_dict(basis, {(): 0.4, (1,): 0.3, (2,): -0.2j})
    rng = np.random.default_rng(43)
    v = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    free = t_r_by_inverses(B, 0.7)(v)
    assert np.abs(_gram_apply(clark_r(B, 0.7))(v) - free).max() < 1e-12


def test_stage_mode_follows_basis_size():
    # a d >= 2 Schur symbol runs CG beyond DENSE_LIMIT words and is
    # eliminated up to it; a d = 1 stage with words beyond its corner
    # factors its Toeplitz symbol at any size
    small, large = WordBasis(2, 10), WordBasis(2, 11)
    assert small.size <= DENSE_LIMIT < large.size
    kw = dict(M=0, recovery_buffer=0, eps_grid=(1.0,))
    B = NCSeries.from_dict(WordBasis(2, 1), {(1,): 0.5, (2,): 0.25})
    res = rn_derivative(B, schedule=Schedule.explicit([(0.5, 10), (0.6, 11)]), **kw)
    assert [(st.mode, st.words) for st in res.stages] == [
        ("elimination", small.size), ("matrix-free", large.size)]
    res = rn_derivative(schur_z(WordBasis(1, 1), 0.5),
                        schedule=Schedule.explicit([(0.6, 3000)]), **kw)
    assert [(st.mode, st.words) for st in res.stages] == [("toeplitz", 3001)]


def test_radial_clark_measure_rejects_bad_inputs():
    basis = WordBasis(1, 4)
    with pytest.raises(ValueError, match="radial parameter"):
        clark_r(schur_z(basis), 1.0)
    with pytest.raises(ValueError, match="germ condition violated"):
        clark_r(NCSeries.from_dict(basis, {(): 1.0}), 0.5)
    # rn_derivative runs the germ and degree checks once, before any stage
    with pytest.raises(ValueError, match="germ condition violated"):
        rn_derivative(NCSeries.from_dict(basis, {(): 1.0, (1,): 0.1}), M=2,
                      schedule=Schedule.explicit([(0.5, 4)]))
    with pytest.raises(ValueError, match="symbol degree 4 exceeds stage grade 3"):
        rn_derivative(NCSeries.from_dict(basis, {(1, 1, 1, 1): 0.5}), M=2,
                      schedule=Schedule.explicit([(0.5, 8), (0.6, 3)]))


def _prefix_pairs(basis):
    """Indices (w, p, v) over every word w and every k = 1..|w|: p its
    prefix of length |w| - k and v its suffix of length k."""
    grade = np.repeat(np.arange(basis.N + 1), np.diff(basis.offsets))
    rank = np.arange(basis.size) - basis.offsets[grade]
    pairs = []
    for k in range(1, basis.N + 1):
        w = np.flatnonzero(grade >= k)
        pairs.append((w, basis.offsets[grade[w] - k] + rank[w] // basis.d ** k,
                      basis.offsets[k] + rank[w] % basis.d ** k))
    return [np.concatenate(a) for a in zip(*pairs)]


def _radial_sources(basis):
    """The Clark measure of a Schur symbol and a vector state, with the
    symbol."""
    B = NCSeries.from_dict(basis, {(1,): 0.4, (2,): -0.3j, (1, 2): 0.2})
    x = NCSeries.from_dict(basis, {(): 1.0, (1,): 0.5, (1, 2): 0.3j})
    return B, (clark_measure(B), vector_state(FockVector(basis, x.coeffs)))


@pytest.mark.parametrize("d, N", [(2, 5), (3, 3)])
def test_radial_gram_vanishes_off_prefix_comparable_pairs(d, N):
    # L_i^* L_j = delta_ij I: T_r is exactly 0.0 on every pair of words
    # neither of which is a prefix of the other, as its matvec computes it
    # (one column per unit vector), for every source and for the
    # matrix-free T_r; on the pairs of a word w = p.v and its prefix p it
    # is mu_r(v), as _eliminate reads it, and the real mu_r(I) on the
    # diagonal
    basis = WordBasis(d, N)
    w, p, v = _prefix_pairs(basis)
    off = ~np.eye(basis.size, dtype=bool)
    off[w, p] = off[p, w] = False
    assert off.mean() > 0.5
    B, measures = _radial_sources(basis)
    for mu in measures:
        mu_r = radial_measure(mu, 0.8)
        T = dense_of(_gram_apply(mu_r), basis.size)
        assert np.all(T[off] == 0.0)
        assert np.abs(T[~off]).max() > 0.0
        assert np.array_equal(gram(mu_r).matrix, T)
        assert np.array_equal(T[p, w], mu_r.moments[v])
        assert np.all(np.diag(T) == mu_r.moments[0].real)
    free = dense_of(t_r_by_inverses(B, 0.8), basis.size)
    assert np.all(free[off] == 0.0)
    assert np.abs(free[~off]).max() > 0.0


@pytest.mark.parametrize("d, N", [(2, 6), (3, 4), (2, 10)])
def test_radial_gram_is_the_hermitized_multiplier_bit_for_bit(d, N):
    # the Gram matrix of mu_r against the dense H_mu(rR) Hermitized as
    # (A + A^H) 0.5, entry for entry (the raw bytes may differ in the sign
    # of a zero imaginary part); the outputs this matrix feeds are checked
    # byte for byte against their golden files in test_cli
    for mu in _radial_sources(WordBasis(d, N))[1]:
        A = series_at_right_shifts(radial_scale(herglotz_transform(mu), 0.7)).to_dense()
        A += A.conj().T
        A *= 0.5
        assert np.array_equal(gram(radial_measure(mu, 0.7)).matrix, A)


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), N=st.integers(0, 4), r=st.floats(0.2, 0.95),
       l1=st.floats(0.05, 0.95), seed=st.integers(0, 2 ** 32 - 1))
def test_radial_gram_of_the_clark_measure_is_the_matrix_free_t_r(d, N, r, l1, seed):
    # T_r of a Schur symbol B (germ included, so Re H(0) != H(0)) as the
    # Gram matrix of mu_r, the rescaled moments of its Clark measure,
    # against the matrix-free K^{-1} + K^{-*} - I; the diagonal stays real
    # when mu(I) has an imaginary part
    basis = WordBasis(d, N)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    B = NCSeries(basis, c * (l1 / np.abs(c).sum()))
    mu = clark_measure(B)
    mu_r = radial_measure(mu, r)
    T = gram(mu_r).matrix
    free = dense_of(t_r_by_inverses(B, r), basis.size)
    assert _close(T, free, 1e-12)
    v = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    assert _close(_gram_apply(mu_r)(v), free @ v, 1e-12)
    scaled = radial_scale(NCSeries(basis, mu.moments), r).coeffs
    assert np.array_equal(mu_r.moments, scaled)
    moments = mu.moments.copy()
    moments[0] += 0.5j
    skew = gram(radial_measure(MomentFunctional(basis, moments), r)).matrix
    assert np.array_equal(np.diag(skew).imag, np.zeros(basis.size))
    assert np.array_equal(np.diag(skew).real, np.full(basis.size, mu.mass()))


# -- resolvents ---------------------------------------------------------------

def test_resolvent_examples():
    basis = WordBasis(2, 3)
    mu_r = clark_r(NCSeries.zero(basis), 0.5)
    delta = resolvent_corner(mu_r, 1.0, basis.size)
    rng = np.random.default_rng(47)
    v = rng.standard_normal(basis.size)
    assert np.abs(delta @ v - 0.5 * v).max() < 1e-13
    with pytest.raises(ValueError):
        resolvent_corner(mu_r, 0.0, basis.size)


def test_resolvent_spectrum_containment():
    basis = WordBasis(1, 20)
    delta = resolvent_corner(clark_r(schur_z(basis, 0.9), 0.8), 1.0, basis.size)
    lam = np.linalg.eigvalsh(delta)
    assert lam.min() > 0.0 and lam.max() <= 1.0 + 1e-12


def test_resolvent_rank_one_trap_documents_order_of_limits():
    # fixed N, r -> 1: the truncated resolvent tends to I - J/(N+2), not I
    N = 6
    basis = WordBasis(1, N)
    corner = resolvent_corner(clark_r(schur_z(basis), 1 - 1e-9), 1.0, basis.size)
    J = np.ones((N + 1, N + 1))
    assert np.abs(corner - (np.eye(N + 1) - J / (N + 2))).max() < 1e-6


def test_resolvent_corner_modes_agree():
    basis = WordBasis(1, 30)
    B = schur_z(basis, 0.5)
    ref = np.linalg.inv(fatou_toeplitz(0.5, 0.9, 30) + 0.5 * np.eye(31))[:6, :6]
    c1 = resolvent_corner(clark_r(B, 0.9), 0.5, 6)
    c2, it, _ = _cg_corner(B, 0.9, 0.5, 6)
    assert np.abs(c1 - ref).max() < 1e-12
    assert np.abs(c2 - ref).max() < 1e-9
    assert len(it) == 6 and all(n > 0 for n in it)


def test_resolvent_corner_refuses_a_toeplitz_basis_beyond_dense_limit(monkeypatch):
    # the d = 1 reference is dense; it must not build a multi-GB matrix
    mu_r = clark_r(schur_z(WordBasis(1, DENSE_LIMIT)), 0.5)
    monkeypatch.setattr(helpers, "gram", lambda mu: pytest.fail("densified"))
    with pytest.raises(ValueError, match=f"at most {DENSE_LIMIT} basis words"):
        resolvent_corner(mu_r, 0.25, 3)


def _psd_toeplitz_column(n, rho, seed):
    # t_k = sum_j g_{j+k} conj(g_j) for g_j ~ rho^j with random phases: the
    # Toeplitz matrices of |g|^2 on the circle, PSD at every n, with t_0 = 1
    rng = np.random.default_rng(seed)
    L = min(n, 400)
    g = rho ** np.arange(L) * np.exp(2j * np.pi * rng.random(L))
    g /= np.linalg.norm(g)
    t = np.zeros(n, dtype=complex)
    t[:L] = np.correlate(g, g, "full")[L - 1:]
    return t


@settings(max_examples=30, deadline=None)
@given(r=st.floats(0.3, 0.95), eps=st.floats(0.25, 2.0), l1=st.floats(0.05, 0.999),
       psd=st.booleans(), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_spectral_recovery_matches_the_dense_truncated_reference(r, eps, l1, psd, seed,
                                                                 data):
    # at r^N <= 1e-14 the truncated stage (the dense reference corner) and
    # the untruncated one (outer factor of the symbol) agree to roundoff;
    # eps >= 0.25 keeps the PSD columns' symbols away from zero, whose
    # factors decay slower
    N = int(np.ceil(np.log(1e-14) / np.log(r)))
    basis = WordBasis(1, N)
    if psd:  # T_r is the Toeplitz matrix of its first column t
        t = _psd_toeplitz_column(basis.size, r, seed)
        mu_r = MomentFunctional(basis, t.conj())
        assert np.array_equal(gram(mu_r).matrix, toeplitz(t, t.conj()))
    else:  # a Schur symbol of degree <= 3
        rng = np.random.default_rng(seed)
        c = np.zeros(basis.size, dtype=complex)
        c[:4] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        mu_r = clark_r(NCSeries(basis, c * (l1 / np.abs(c).sum())), r)
    m = data.draw(st.integers(1, N))  # m_rec < n: words beyond the corner
    m_out = data.draw(st.integers(1, min(m, 9)))
    T, corner = _spectral_block(mu_r, r, eps, m, m_out)
    ref = resolvent_corner(mu_r, eps, m)
    assert np.array_equal(T, T.conj().T) and np.array_equal(corner, corner.conj().T)
    assert _close(T, (np.linalg.inv(ref) - eps * np.eye(m))[:m_out, :m_out], 1e-12)
    assert _close(corner, ref[:m_out, :m_out], 1e-12)
    assert corner[0, 0].real == pytest.approx(ref[0, 0].real, rel=1e-12)


def test_spectral_recovery_of_an_inner_stage_matches_levinson():
    # the inner symbol z at r = 1 - 2^-8, N = 4707: the symbol of
    # eps I + T_r spans [0.252, 511.25].  Levinson gives
    # phi = (eps I + T_r)^{-1} e_0 on the truncated basis; its tail
    # vanishes, so by Gohberg-Semencul the corner of the inverse is
    # A A^H / phi_0, A lower-triangular Toeplitz
    r = 0.99609375
    mu_r = clark_r(schur_z(WordBasis(1, 4707)), r)
    col = mu_r.moments.conj()
    col[0] += 0.25
    phi = solve_toeplitz((col, col.conj()), np.eye(len(col), 1, dtype=complex))[:, 0]
    assert np.abs(phi[-17:]).max() < 1e-16 * abs(phi[0])
    A = toeplitz(phi[:17], np.zeros(17))
    ref = A @ A.conj().T / phi[0].real
    T, corner = _spectral_block(mu_r, r, 0.25, 17, 9)
    assert _close(T, (np.linalg.inv(ref) - 0.25 * np.eye(17))[:9, :9], 1e-12)
    assert _close(corner, ref[:9, :9], 1e-12)
    assert corner[0, 0].real == pytest.approx(phi[0].real, rel=1e-12)


@pytest.mark.parametrize("c", [0.6 * np.exp(0.7j), -0.9, 0.3j])
def test_spectral_block_of_a_degree_one_factor_is_its_bidiagonal_gram(c):
    # eps I + T_r = Toeplitz(1 + |c|^2, c) is Y^H Y, Y the lower-bidiagonal
    # Toeplitz operator of the outer factor y = 1 + c z, so T_hat is the
    # grade-5 block of Y_9^H Y_9 less eps I, and the corner V V^H, V the
    # Toeplitz operator of 1/y = sum (-c)^k z^k.  log s aliases on the FFT
    # grid by about |c|^G; N = 1000 (G = 2048) puts that far below
    # roundoff, where N = 5 (G = 12, m = 6) leaves 5.4e-2 at c = -0.9
    eps = 0.25
    t = np.zeros(1001, dtype=complex)
    t[:2] = 1 + abs(c) ** 2 - eps, c
    T, corner = _spectral_block(MomentFunctional(WordBasis(1, 1000), t.conj()), 0.5, eps,
                                9, 6)
    Y = toeplitz(np.r_[1, c, np.zeros(7)], np.zeros(9))
    V = toeplitz((-c) ** np.arange(6), np.zeros(6))
    assert np.abs(T - ((Y.conj().T @ Y)[:6, :6] - eps * np.eye(6))).max() <= 1e-14
    assert np.abs(corner - V @ V.conj().T).max() <= 1e-14


@pytest.mark.parametrize("eps", [0.25, 1.0, 2.0])
def test_toeplitz_vacuum_delta_of_the_inner_symbol_is_its_closed_form(eps):
    # the Clark measure of z is delta_1, so s = eps + P_r = (A - B cos t) /
    # (1 + r^2 - 2 r cos t) with A = eps (1 + r^2) + 1 - r^2, B = 2 eps r,
    # and the vacuum delta exp(-int log s) is 2 / (A + sqrt(A^2 - B^2));
    # at eps = 1, 1 / (1 + sqrt(1 - r^2)), the d = 2 closed form
    rs = (0.5, 0.875, 0.99)
    res = rn_derivative(schur_z(WordBasis(1, 1)), M=0, eps_grid=(eps,),
                        schedule=Schedule.explicit(
                            [(r, int(np.ceil(np.log(1e-8) / np.log(r)))) for r in rs]))
    for st in res.stages:
        A, B = eps * (1 + st.r ** 2) + 1 - st.r ** 2, 2 * eps * st.r
        assert st.mode == "toeplitz"
        assert st.vacuum_delta == pytest.approx(2 / (A + np.sqrt(A * A - B * B)), rel=1e-14)


@pytest.mark.parametrize("eps", [0.0, -0.1])
def test_resolvent_corner_rejects_nonpositive_eps_in_every_mode(eps):
    # the reference takes the measure of every mode, d = 1 and d >= 2
    for basis in (WordBasis(1, 8), WordBasis(2, 3)):
        with pytest.raises(ValueError, match="must be positive"):
            resolvent_corner(clark_r(schur_z(basis, 0.5), 0.7), eps, 2)


def test_corners_of_a_matrix_that_is_not_positive_definite_raise_linalgerror():
    # the Cholesky factor refuses an indefinite S, and the reference refuses
    # moments whose eps I + T_r is negative definite, at d = 1 and d >= 2
    S = np.diag([2.0, -1.0, 3.0]).astype(complex)
    with pytest.raises(np.linalg.LinAlgError):
        _inverse_corner(S, 1)
    for basis in (WordBasis(1, 8), WordBasis(2, 3)):
        moments = np.zeros(basis.size, dtype=complex)
        moments[0] = -1.0
        with pytest.raises(np.linalg.LinAlgError):
            resolvent_corner(MomentFunctional(basis, moments), 0.25, 2)


def _close(a, b, rel):
    return np.abs(a - b).max() <= rel * np.abs(b).max()


def _dense_recovery_case(d, l1, seed, data):
    """A Schur symbol on an elimination-mode basis with a corner of the m
    words of grade <= M_rec and an output block of the m_out words of
    grade <= M <= M_rec."""
    # bases of at most 400 words: d = 2 up to N = 7 (255), d = 3 up to N = 5 (364)
    basis = WordBasis(d, data.draw(st.integers(0, 7 if d == 2 else 5)))
    n = basis.size
    grade_rec = data.draw(st.one_of(st.just(basis.N), st.integers(0, basis.N)))
    m = basis.sub_basis_size(grade_rec)
    m_out = basis.sub_basis_size(data.draw(st.integers(0, grade_rec)))
    # a few words of grade <= 2 with l1 norm below 1: a Schur symbol
    rng = np.random.default_rng(seed)
    pool = basis.sub_basis_size(min(basis.N, 2))
    k = int(rng.integers(1, min(pool, 4) + 1))
    c = np.zeros(n, dtype=complex)
    c[rng.choice(pool, size=k, replace=False)] = \
        rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return NCSeries(basis, c * (l1 / np.abs(c).sum())), m, m_out


dense_recovery_draws = given(
    d=st.sampled_from([2, 3]), eps=st.floats(0.1, 2.0), r=st.floats(0.3, 0.95),
    l1=st.floats(0.05, 0.95), seed=st.integers(0, 2 ** 32 - 1), data=st.data())


@settings(max_examples=20, deadline=None)
@dense_recovery_draws
def test_dense_recovery_is_the_schur_complement_of_one_factor(d, eps, r, l1, seed, data):
    B, m, m_out = _dense_recovery_case(d, l1, seed, data)
    n = B.basis.size
    mu_r = clark_r(B, r)
    T, corner = _eliminate(mu_r, r, eps, m, m_out)
    assert T.shape == (m_out, m_out)
    assert np.array_equal(T, T.conj().T)
    # against the grade-M block of the explicit inverse of eps I + T_r
    delta = np.linalg.inv(gram(mu_r).matrix + eps * np.eye(n))
    assert _close(T, (np.linalg.inv(delta[:m, :m]) - eps * np.eye(m))[:m_out, :m_out],
                  1e-10)
    assert _close(corner, delta[:m_out, :m_out], 1e-10)
    assert corner[0, 0].real == pytest.approx(delta[0, 0].real, rel=1e-10)
    # against the matrix-free T_r, one CG solve per corner column
    free = t_r_by_inverses(B, r)
    cg = np.column_stack([
        hermitian_cg(lambda v: eps * v + free(v), e, tol=1e-12)[0][:m]
        for e in np.eye(n, m, dtype=complex).T])
    cg = 0.5 * (cg + cg.conj().T)
    assert _close(T, (np.linalg.inv(cg) - eps * np.eye(m))[:m_out, :m_out], 1e-8)
    assert _close(corner, cg[:m_out, :m_out], 1e-8)
    assert corner[0, 0].real == pytest.approx(cg[0, 0].real, rel=1e-8)


@settings(max_examples=20, deadline=None)
@dense_recovery_draws
def test_dense_eps_block_reads_the_block_beyond_the_corner(d, eps, r, l1, seed, data):
    # the sweep stops at the recovery grade and reads T_hat = S[o, o] - eps I
    # there, S = (P_m Delta P_m)^{-1}: against the block of all m words and
    # the explicit inverse
    B, m, m_out = _dense_recovery_case(d, l1, seed, data)
    n = B.basis.size
    mu_r = clark_r(B, r)
    T = _eliminate(mu_r, r, eps, m, m_out)[0]
    assert T.shape == (m_out, m_out)
    assert _close(T, _eliminate(mu_r, r, eps, m, m)[0][:m_out, :m_out], 1e-12)
    delta = np.linalg.inv(gram(mu_r).matrix + eps * np.eye(n))
    assert _close(T + eps * np.eye(m_out), np.linalg.inv(delta[:m, :m])[:m_out, :m_out],
                  1e-10)


@pytest.mark.parametrize("eps", [0.25, 1.0, 2.0])
def test_dense_eps_block_of_the_whole_basis_is_the_t_block(eps):
    # m = n: no word lies beyond the corner, so nothing is eliminated and
    # T_hat is T_r's own block, read off the moments of mu_r
    basis = WordBasis(2, 4)
    B = NCSeries.from_dict(basis, {(1,): 0.4, (2,): 0.3j, (1, 2): 0.2})
    mu_r = clark_r(B, 0.8)
    X = gram(mu_r).matrix[:7, :7]
    assert np.array_equal(_eliminate(mu_r, 0.8, eps, basis.size, 7)[0], X)


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), eps=st.floats(0.1, 2.0), r=st.floats(0.3, 0.95),
       l1=st.floats(0.05, 0.95), state=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_elimination_matches_the_dense_reference_corner(d, eps, r, l1, state, seed, data):
    # every corner a stage can have, m_rec < n and m_rec = n, with
    # recovery_buffer = 0 among them, so that the inversion below the basis
    # is checked; the source is a Schur symbol or a vector state
    basis = WordBasis(d, data.draw(st.integers(0, {1: 12, 2: 7, 3: 5}[d])))
    grade_rec = data.draw(st.one_of(st.just(basis.N), st.integers(0, basis.N)))
    buffer = data.draw(st.one_of(st.just(0), st.integers(0, grade_rec)))
    m, m_out = (basis.sub_basis_size(g) for g in (grade_rec, grade_rec - buffer))
    rng = np.random.default_rng(seed)
    pool = basis.sub_basis_size(min(basis.N, 2))
    c = np.zeros(basis.size, dtype=complex)
    c[:pool] = rng.standard_normal(pool) + 1j * rng.standard_normal(pool)
    if state:
        c[0] = 1.0
        mu_r = radial_measure(vector_state(FockVector(basis, c)), r)
    else:
        mu_r = clark_r(NCSeries(basis, c * (l1 / np.abs(c).sum())), r)
    ref = resolvent_corner(mu_r, eps, m)
    T, corner = _eliminate(mu_r, r, eps, m, m_out)
    assert np.array_equal(T, T.conj().T)
    assert _close(T, (np.linalg.inv(ref) - eps * np.eye(m))[:m_out, :m_out], 1e-10)
    assert _close(corner, ref[:m_out, :m_out], 1e-10)
    assert corner[0, 0].real == pytest.approx(ref[0, 0].real, rel=1e-10)


@pytest.mark.parametrize("grade_rec", [1, 2])
def test_elimination_rejects_a_pivot_that_is_not_positive(grade_rec):
    # moments whose T_r is negative definite: the first eliminated grade
    # (beyond the corner, or beyond grade M when m_rec = n) stops the sweep
    basis = WordBasis(2, 2)
    moments = np.zeros(basis.size, dtype=complex)
    moments[0] = -1.0
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"at r = 0\.5: pivot -7\.500e-01 at grade 2"):
        _eliminate(MomentFunctional(basis, moments), 0.5, 0.25,
                   basis.sub_basis_size(grade_rec), 1)


def _count_cholesky(monkeypatch):
    sizes = []
    factor = np.linalg.cholesky

    def counted(a, *args, **kwargs):
        sizes.append(len(a))
        return factor(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return sizes


def _count_densify(monkeypatch):
    # every dense T_r that lebesgue builds is gram(mu_r).matrix
    densified = []
    dense = lebesgue.gram
    monkeypatch.setattr(lebesgue, "gram",
                        lambda mu: densified.append(mu.basis) or dense(mu))
    return densified


def test_rn_derivative_dense_factors_once_per_stage(monkeypatch):
    # the recovery corner is the whole basis at both stages (511 and 2047
    # words): the elimination never forms the dense T_r, and each stage
    # factors only its m_out x m_out block (grade M = 2, 7 words), the
    # eps = 1.0 and 2.0 cross-checks of the last stage included
    sizes = _count_cholesky(monkeypatch)
    densified = _count_densify(monkeypatch)
    rn_derivative(NCSeries.zero(WordBasis(2, 1)), M=2, eps_grid=(0.5, 1.0, 2.0),
                  schedule=Schedule.explicit([(0.5, 8), (0.75, 10)]))
    assert sizes == [7, 7, 7, 7]
    assert densified == []


def test_rn_derivative_dense_cross_check_factors_beyond_the_corner(monkeypatch):
    # N = 4: 31 words, recovery corner of grade M + buffer = 2 (7 words):
    # the cross-check reruns the stage at each eps, and each run factors
    # only its 3 x 3 output block
    sizes = _count_cholesky(monkeypatch)
    densified = _count_densify(monkeypatch)
    symbol = {(1,): 0.5, (2,): 0.3j}
    res = rn_derivative(NCSeries.from_dict(WordBasis(2, 1), symbol), M=1,
                        recovery_buffer=1, eps_grid=(0.25, 1.0, 2.0),
                        schedule=Schedule.explicit([(0.6, 4)]))
    assert sizes == [3, 3, 3]
    assert densified == []
    # the same cross-check from the reference corner at every eps
    mu_r = clark_r(NCSeries.from_dict(WordBasis(2, 4), symbol), 0.6)
    blocks = [np.linalg.inv(resolvent_corner(mu_r, eps, 7))[:3, :3] - eps * np.eye(3)
              for eps in (0.25, 1.0, 2.0)]
    spread = max(np.abs(a - b).max() for a in blocks for b in blocks)
    assert spread > 1e-6
    assert res.eps_consistency == pytest.approx(spread, rel=1e-9)


def test_hermitian_cg_solves_and_reports():
    rng = np.random.default_rng(53)
    A = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    A = A @ A.conj().T + 40 * np.eye(40)
    b = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    x, iters, rel = hermitian_cg(lambda v: A @ v, b, tol=1e-12, maxiter=500)
    assert np.linalg.norm(A @ x - b) < 1e-10 * np.linalg.norm(b)
    # a real right-hand side of a complex operator: the in-place updates
    # work on complex arrays
    x, _, _ = hermitian_cg(lambda v: A @ v, b.real, tol=1e-12, maxiter=500)
    assert np.linalg.norm(A @ x - b.real) < 1e-10 * np.linalg.norm(b.real)
    with pytest.raises(RuntimeError):
        hermitian_cg(lambda v: A @ v, b, tol=1e-14, maxiter=2)


def _cg_run(A, b, **kw):
    # the solve together with every vector the matvec was applied to
    seen = []

    def matvec(v):
        seen.append(v.copy())
        return A @ v

    return hermitian_cg(matvec, b, **kw), seen


def test_hermitian_cg_applies_the_operator_once_per_iteration():
    rng = np.random.default_rng(59)
    A = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    A = A @ A.conj().T + np.eye(30)
    b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    (x, it, rel), seen = _cg_run(A, b, tol=1e-12, maxiter=500)
    assert len(seen) == it and np.array_equal(seen[0], b)
    assert rel <= 1e-12
    assert np.linalg.norm(A @ x - b) < 1e-10 * np.linalg.norm(b)


def test_hermitian_cg_on_prefixes_is_cg_on_whole_vectors():
    # a banded operator (band 1) and b on its first 2 of 40 entries: with
    # size, the k-th iteration applies A to the first 2 + k entries of p
    # and reads A p on one more; x, the iteration count and the residual
    # are those of CG on whole vectors, to rounding; a matvec that returns
    # fewer words than it was given, and x on more words than b has, are
    # refused
    rng = np.random.default_rng(89)
    n = 40
    off = 0.4 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
    A = np.diag(np.full(n, 2.0)) + np.diag(off, -1) + np.diag(off.conj(), 1)
    b = np.zeros(n, dtype=complex)
    b[:2] = 1.0, 0.5j
    seen = []

    def banded(v):
        seen.append(len(v))
        return A[:min(n, len(v) + 1), :len(v)] @ v

    x, it, rel = hermitian_cg(lambda v: A @ v, b, tol=1e-12, maxiter=500)
    for m in (None, 2):
        seen.clear()
        xp, it_p, rel_p = hermitian_cg(banded, b[:2], tol=1e-12, maxiter=500, m=m, size=n)
        assert seen == [min(n, 2 + k) for k in range(it_p)]
        assert it_p == it and rel_p == pytest.approx(rel, rel=1e-6)
        assert np.abs(xp - x[:len(xp)]).max() <= 1e-12 * np.abs(x).max()
    with pytest.raises(ValueError, match="returned 1 words for 2 of 40"):
        hermitian_cg(lambda v: v[:1].copy(), b[:2], size=n)
    with pytest.raises(ValueError, match="x on 3 words needs b on at least as many"):
        hermitian_cg(banded, b[:2], m=3, size=n)


def test_hermitian_cg_zero_operator_breaks_down():
    b = np.ones(5, dtype=complex)
    with pytest.raises(RuntimeError, match="breakdown"):
        hermitian_cg(lambda v: 0.0 * v, b)


def test_hermitian_cg_nan_operator_stops_at_once():
    calls = []

    def matvec(v):
        calls.append(1)
        return np.full_like(v, np.nan)

    with pytest.raises(RuntimeError, match="breakdown"):
        hermitian_cg(matvec, np.ones(5, dtype=complex), maxiter=2000)
    assert len(calls) == 1


# -- the matrix-free stage's buffers -------------------------------------------

def _matrix_free_case():
    basis = WordBasis(2, 7)
    B = NCSeries.from_dict(basis, {(): 0.2, (1,): 0.5, (2, 1): 0.3j})
    rng = np.random.default_rng(61)
    v = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    return B, 0.8, v


def _k_dense(B, r):
    """K = I - B(rR) on B's basis, as a dense matrix."""
    return np.eye(B.basis.size) - series_at_right_shifts(radial_scale(B, r)).to_dense()


def test_resolvent_corner_applies_eps_plus_t_in_one_buffer(monkeypatch):
    # the matrix-free corner's CG operator is the banded form A = K^*
    # (eps I + T_r) K, K = I - B(rR) on the truncation, within 1e-14
    # relative of the dense product, on v and on v through grade 3, whose
    # A v it returns on the words of grade <= 3 + deg B; it leaves v alone
    # and writes A v into one buffer for every call and column; and CG on
    # copies of its results returns the same y, iteration count and
    # residual, bit for bit
    B, r, v = _matrix_free_case()
    basis, deg = B.basis, B.degree()
    K, T = _k_dense(B, r), gram(clark_r(B, r)).matrix
    cg = lebesgue.hermitian_cg
    for eps in (0.25, 1.0, 2.0):
        A = K.conj().T @ (eps * np.eye(basis.size) + T) @ K
        buffers = []

        def spy(matvec, b, **kw):
            for g in (3, basis.N):
                u = v[:basis.sub_basis_size(g)]
                u0 = u.copy()
                buffers.append(matvec(u))
                Au, ref = buffers[-1], A[:, :len(u)] @ u
                assert np.array_equal(u, u0)
                assert len(Au) == basis.sub_basis_size(min(basis.N, g + deg))
                scale = np.abs(ref).max()
                assert np.abs(Au - ref[:len(Au)]).max() <= 1e-14 * scale
                assert np.abs(ref[len(Au):]).max(initial=0.0) <= 1e-14 * scale
            x, it, rel = cg(matvec, b, **kw)
            x_fresh, it_fresh, rel_fresh = cg(lambda u: matvec(u).copy(), b, **kw)
            assert np.array_equal(x, x_fresh) and (it, rel) == (it_fresh, rel_fresh)
            return x, it, rel

        monkeypatch.setattr(lebesgue, "hermitian_cg", spy)
        _cg_corner(B, r, eps, 3)
        assert len(buffers) == 6 and all(np.shares_memory(x, buffers[0]) for x in buffers)


@pytest.mark.parametrize("eps", [0.25, 1.0, 2.0])
@pytest.mark.parametrize("symbol, m", [
    ({(): 0.2, (1,): 0.5, (2, 1): 0.3j}, 7),  # B(0) != 0, deg B = 2
    ({(1,): 0.5, (2,): -0.4j}, 3),
    ({(2,): 0.3, (1, 2): 0.4, (2, 2): -0.2j}, 15)])
def test_cg_corner_is_the_dense_reference_corner(symbol, m, eps):
    # the banded form's corner K_N A^{-1} K_N^* against the corner of the
    # dense inverse of eps I + T_r, on 255 words (DENSE_LIMIT allows the
    # reference); the relative CG residual of A y = K_N^* e_j meets _CG_TOL
    B = NCSeries.from_dict(WordBasis(2, 7), symbol)
    assert B.basis.size <= DENSE_LIMIT
    corner, iters, residual = _cg_corner(B, 0.8, eps, m)
    ref = resolvent_corner(clark_r(B, 0.8), eps, m)
    assert np.abs(corner - ref).max() <= 1e-9 * np.abs(ref).max()
    assert len(iters) == m and 0.0 < residual <= lebesgue._CG_TOL


@pytest.mark.parametrize("M_rec", [0, 1, 2])
def test_cg_corner_iteration_k_sees_the_words_of_grade_m_rec_plus_k_deg_b(M_rec, monkeypatch):
    # the right-hand side K_N^* e_j lives on the corner words, of grade <=
    # M_rec, and A has grade band deg B, so CG's k-th iteration (from 0)
    # applies A to the words of grade <= M_rec + k deg B alone; the last
    # iterations reach the whole basis
    basis = WordBasis(2, 9)
    B = NCSeries.from_dict(basis, {(): 0.1, (1,): 0.4, (2, 1): 0.3j})
    seen = []
    cg = lebesgue.hermitian_cg

    def spy(matvec, b, **kw):
        lengths = []
        seen.append(lengths)
        return cg(lambda v: lengths.append(len(v)) or matvec(v), b, **kw)

    monkeypatch.setattr(lebesgue, "hermitian_cg", spy)
    m = basis.sub_basis_size(M_rec)
    iters = _cg_corner(B, 0.8, 1.0, m)[1]
    assert len(seen) == m and [len(s) for s in seen] == list(iters)
    for lengths in seen:
        reach = [basis.sub_basis_size(min(basis.N, M_rec + 2 * k))
                 for k in range(len(lengths))]
        assert lengths == reach
        assert lengths[-1] == basis.size


def test_cg_corner_holds_at_most_five_basis_rows():
    # the two work rows, CG's res and p, and the products' scratch rows
    # (x f of a prefix of at most half a row, and the adjoint's grade
    # products): one corner at d = 2, N = 12 peaks at most 5 rows
    basis = WordBasis(2, 12)
    B = NCSeries.from_dict(basis, {(1,): 0.5, (2,): 0.4j, (2, 1): 0.2})
    row = basis.size * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        _cg_corner(B, 0.8, 1.0, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * row


@pytest.mark.parametrize("eps", [0.25, 1.0])
def test_matrix_free_stage_returns_the_cg_corner_bit_for_bit(eps):
    # the stage's corner is the grade-M block of _cg_corner's own corner c,
    # not read back from its inverse; T_hat is the block of that inverse
    B, r, _ = _matrix_free_case()
    m, m_out = 7, 3
    c, iters, residual = _cg_corner(B, r, eps, m)
    T, corner, solver = _stage(B, r, eps, m, m_out)
    assert np.array_equal(corner, c[:m_out, :m_out])
    assert np.array_equal(T, _herm(np.linalg.inv(c))[:m_out, :m_out] - eps * np.eye(m_out))
    assert solver == {"mode": "matrix-free", "cg_iterations": iters, "cg_residual": residual}


def test_hermitian_cg_is_the_same_with_a_reused_matvec_buffer():
    rng = np.random.default_rng(67)
    A = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    A = A @ A.conj().T + np.eye(30)
    b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    buf = np.empty(30, dtype=complex)

    def reused(v):
        buf[:] = A @ v
        return buf

    x, it, rel = hermitian_cg(lambda v: A @ v, b, tol=1e-12, maxiter=500)
    x_buf, it_buf, rel_buf = hermitian_cg(reused, b, tol=1e-12, maxiter=500)
    assert np.array_equal(x, x_buf) and (it, rel) == (it_buf, rel_buf)


def test_hermitian_cg_copies_a_result_that_aliases_its_argument():
    # CG scales matvec's result in place, so an operator that returns its
    # argument or a view of it gives the bits of one that returns a copy
    rng = np.random.default_rng(71)
    b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    x, it, rel = hermitian_cg(lambda v: v.copy(), b, tol=1e-12, maxiter=500)
    for matvec in (lambda v: v, lambda v: v[:]):
        x_alias, it_alias, rel_alias = hermitian_cg(matvec, b, tol=1e-12, maxiter=500)
        assert np.array_equal(x, x_alias) and (it, rel) == (it_alias, rel_alias)


def _hpd_case():
    rng = np.random.default_rng(83)
    A = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    A = A @ A.conj().T + np.eye(30)
    b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    return (lambda v: A @ v), b


def _corner_operator_case():
    # _cg_corner's operator eps I + T_r at d = 2, N = 10, on its first column
    basis = WordBasis(2, 10)
    B = NCSeries.from_dict(basis, {(1,): 0.5, (2,): 0.4j, (2, 1): 0.2})
    T = t_r_by_inverses(B, 0.8)
    return (lambda v: 0.5 * v + T(v)), np.eye(basis.size, 1, dtype=complex)[:, 0]


@pytest.mark.parametrize("case", [_hpd_case, _corner_operator_case])
def test_hermitian_cg_forms_x_on_its_first_m_words_bit_for_bit(case):
    # x on m words is the first m entries of the whole x, with the same
    # iteration count and residual
    matvec, b = case()
    x, it, rel = hermitian_cg(matvec, b, tol=1e-10, maxiter=500)
    assert it > 1 and rel <= 1e-10
    for m in (1, 3, len(b)):
        xm, it_m, rel_m = hermitian_cg(matvec, b, tol=1e-10, maxiter=500, m=m)
        assert xm.shape == (m,) and np.array_equal(xm, x[:m])
        assert (it_m, rel_m) == (it, rel)


def test_stage_records_name_the_mode_the_basis_size_and_the_cg_residual(monkeypatch):
    # one stage of each mode; a d = 1 stage whose corner is its whole basis
    # is eliminated; only matrix-free stages run CG; every stage records
    # its wall time
    d1 = NCSeries.from_dict(WordBasis(1, 1), {(1,): 0.5})
    d2 = NCSeries.from_dict(WordBasis(2, 1), {(1,): 0.5, (2,): 0.3j})
    kw = dict(M=1, recovery_buffer=1, eps_grid=(0.25,))

    def stage(source, N):
        return rn_derivative(source, schedule=Schedule.explicit([(0.6, N)]), **kw).stages[0]

    stages = [("toeplitz", 9, stage(d1, 8)), ("elimination", 3, stage(d1, 2)),
              ("elimination", 31, stage(d2, 4))]
    monkeypatch.setattr(lebesgue, "DENSE_LIMIT", 30)
    stages.append(("matrix-free", 31, stage(d2, 4)))
    for mode, words, st in stages:
        assert (st.mode, st.words) == (mode, words)
        assert st.seconds > 0.0
        if mode == "matrix-free":
            assert len(st.cg_iterations) == 7 and 0.0 < st.cg_residual <= 1e-10
        else:
            assert st.cg_iterations == () and st.cg_residual == 0.0


# -- the coupled limit --------------------------------------------------------

def test_rn_derivative_vacuum_identity():
    res = rn_derivative(NCSeries.zero(WordBasis(2, 1)), M=2,
                        eps_grid=(0.5, 1.0, 2.0),
                        schedule=Schedule.explicit([(0.5, 8), (0.75, 8)]))
    assert np.abs(res.T_compression - np.eye(7)).max() < 1e-12
    assert abs(res.mu_s.mass()) < 1e-12
    assert not res.singular
    assert res.positivity_ac


@pytest.mark.parametrize("kw", [{"M": -1}, {"recovery_buffer": -2}])
def test_rn_derivative_names_a_negative_argument(kw):
    name = next(iter(kw))
    with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
        rn_derivative(NCSeries.zero(WordBasis(2, 1)), eps_grid=(0.5,),
                      schedule=Schedule.explicit([(0.5, 2)]), **kw)


@pytest.mark.parametrize("r", [0.75, 0.9])
def test_rn_derivative_vector_state_d2_approaches_its_gram_matrix(r):
    # m_x(p* q) = <x(R) p, x(R) q> for a polynomial x, so the RN
    # compression of the vector state m_x is its own Gram matrix; one
    # stage at radius r misses it at first order in 1 - r
    basis = WordBasis(2, 8)
    x = NCSeries.from_dict(basis, {(): 1.0, (1,): 0.5, (1, 2): 0.3j})
    mu = vector_state(FockVector(basis, x.coeffs))
    res = rn_derivative(mu, M=2, eps_grid=(0.25,),
                        schedule=Schedule.explicit([(r, 8)]))
    err = np.abs(res.T_compression - gram(mu.restricted(2)).matrix).max()
    assert 0.4 <= err / (1 - r) <= 0.7
    assert abs(res.mu_s.mass()) <= 1e-12


def test_rn_derivative_vector_state_d2_inverts_a_corner_below_the_basis():
    # recovery_buffer = 0: the corner is the 7 words of grade <= 2 out of
    # 511, so the stage inverts a genuine Schur complement; against the
    # inverse of the reference corner
    basis = WordBasis(2, 8)
    x = NCSeries.from_dict(basis, {(): 1.0, (1,): 0.5, (1, 2): 0.3j})
    mu = vector_state(FockVector(basis, x.coeffs))
    res = rn_derivative(mu, M=2, eps_grid=(0.25,), recovery_buffer=0,
                        schedule=Schedule.explicit([(0.75, 8)]))
    corner = resolvent_corner(radial_measure(mu, 0.75), 0.25, 7)
    assert np.abs(res.T_compression - (np.linalg.inv(corner) - 0.25 * np.eye(7))).max() <= 1e-10
    assert res.stages[0].vacuum_delta == pytest.approx(corner[0, 0].real, abs=1e-10)


def test_rn_derivative_matrix_free_stages_match_the_dense_run(monkeypatch):
    # the same N = 4 stages (31 words) once dense and once matrix-free, with
    # DENSE_LIMIT moved below the basis; CG solves each corner column
    symbol = NCSeries.from_dict(WordBasis(2, 1), {(1,): 0.5, (2,): 0.3j})
    kw = dict(M=1, recovery_buffer=1, eps_grid=(0.25, 1.0),
              schedule=Schedule.explicit([(0.5, 4), (0.6, 4)]))
    dense = rn_derivative(symbol, **kw)
    monkeypatch.setattr(lebesgue, "DENSE_LIMIT", 30)
    free = rn_derivative(symbol, **kw)
    assert all(stage.cg_iterations == () for stage in dense.stages)
    assert all(len(stage.cg_iterations) == 7 for stage in free.stages)
    assert np.abs(free.T_compression - dense.T_compression).max() <= 1e-8
    assert np.abs(np.array([s.vacuum_delta for s in free.stages])
                  - [s.vacuum_delta for s in dense.stages]).max() <= 1e-8
    assert dense.eps_consistency > 1e-3
    assert free.eps_consistency == pytest.approx(dense.eps_consistency, abs=1e-8)


def test_rn_derivative_cg_stages_match_the_eliminated_clark_measure():
    # the inner symbol (Z1 + Z2)/sqrt(2) at N = 14 (32767 words): the Schur
    # symbol runs CG, its Clark measure, a moment source, is eliminated at
    # this size too; both against each other and against the closed forms
    # 1/(1 + sqrt(1 - r^2)) of the vacuum delta and sqrt(1 - r^2) of the
    # mass, which the eliminated Clark measure of sum_k Z_k/sqrt(d) meets at
    # d = 3 and 4 too, to the truncation error (largest at r = 0.7: 6.6e-10
    # at d = 3, N = 11 and 2.4e-8 at d = 4, N = 9)
    def inner(d, grade):
        return NCSeries.from_dict(WordBasis(d, grade), {(k,): d ** -0.5 for k in range(1, d + 1)})

    def run(source, N):
        return rn_derivative(source, M=0, eps_grid=(1.0,), recovery_buffer=0,
                             schedule=Schedule.explicit([(r, N) for r in (0.5, 0.6, 0.7)]))

    cg = run(inner(2, 1), 14)
    for d, N, tol in ((2, 14, 1e-10), (3, 11, 2e-9), (4, 9, 1e-7)):
        el = run(clark_measure(inner(d, N)), N)
        assert [st.mode for st in el.stages] == ["elimination"] * 3
        for b in el.stages:
            h = np.sqrt(1 - b.r ** 2)
            assert b.vacuum_delta == pytest.approx(1 / (1 + h), abs=tol)
            assert b.mass == pytest.approx(h, abs=tol)
        if d == 2:
            for a, b in zip(cg.stages, el.stages, strict=True):
                assert a.mode == "matrix-free"
                assert a.words == b.words == 32767 > DENSE_LIMIT
                assert a.vacuum_delta == pytest.approx(b.vacuum_delta, abs=1e-10)
                assert a.mass == pytest.approx(b.mass, abs=1e-10)


def test_cg_stages_of_an_inner_symbol_with_phases_meet_the_closed_forms():
    # (e^{0.7i} Z1 + e^{-1.3i} Z2)/sqrt(2) at N = 14 on the CG route: the
    # phases leave the vacuum delta 1/(1 + sqrt(1 - r^2)) and the mass
    # sqrt(1 - r^2) of the real row
    B = NCSeries.from_dict(WordBasis(2, 1), {(1,): np.exp(0.7j) / np.sqrt(2),
                                             (2,): np.exp(-1.3j) / np.sqrt(2)})
    res = rn_derivative(B, M=0, eps_grid=(1.0,), recovery_buffer=0,
                        schedule=Schedule.explicit([(r, 14) for r in (0.5, 0.6, 0.7)]))
    for st in res.stages:
        h = np.sqrt(1 - st.r ** 2)
        assert st.mode == "matrix-free"
        assert st.vacuum_delta == pytest.approx(1 / (1 + h), abs=1e-10)
        assert st.mass == pytest.approx(h, abs=1e-10)


def test_cg_stages_of_the_committed_d2_config_meet_the_closed_forms_to_1e_14():
    # the shape of configs/inner_singular_d2.json: (Z1 + Z2)/sqrt(2) at d = 2,
    # N = 18 (524287 words), M = 0, no buffer, eps 1, r = 0.5/0.6/0.7, on the
    # CG route, whose banded form meets 1/(1 + sqrt(1 - r^2)) and sqrt(1 -
    # r^2) to 1e-14 (the largest error is 2.1e-15)
    B = NCSeries.from_dict(WordBasis(2, 1), {(1,): 2 ** -0.5, (2,): 2 ** -0.5})
    res = rn_derivative(B, M=0, eps_grid=(1.0,), recovery_buffer=0,
                        schedule=Schedule.explicit([(r, 18) for r in (0.5, 0.6, 0.7)]))
    for st in res.stages:
        h = np.sqrt(1 - st.r ** 2)
        assert (st.mode, st.words) == ("matrix-free", 524287)
        assert abs(st.vacuum_delta - 1 / (1 + h)) <= 1e-14
        assert abs(st.mass - h) <= 1e-14


def test_rn_derivative_classical_fatou_small():
    basis = WordBasis(1, 1)
    res = rn_derivative(NCSeries.from_dict(basis, {(1,): 0.5}), M=6,
                        eps_grid=(0.25, 1.0), schedule=Schedule.coupled(1, j_max=8))
    oracle = toeplitz(0.5 ** np.arange(7))
    assert np.abs(res.T_compression - oracle).max() < 2.5e-3
    assert res.eps_consistency < 1e-4
    assert res.positivity_ac
    # exact moment additivity
    assert np.abs((res.mu_ac.moments + res.mu_s.moments)
                  - res.mu.moments).max() == 0.0


def test_rn_derivative_inner_singular_trend_small(monkeypatch):
    monkeypatch.setattr(lebesgue, "hermitian_cg", lambda *a, **k: pytest.fail("CG ran"))
    for name in ("cholesky", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name, lambda *a, **k: pytest.fail("factored"))
    basis = WordBasis(1, 1)
    res = rn_derivative(NCSeries.from_dict(basis, {(1,): 1.0}), M=0,
                        eps_grid=(0.25,),
                        schedule=Schedule.coupled(1, j_max=7))
    assert res.mass_strictly_decreasing
    assert res.vacuum_strictly_increasing
    assert res.mass_trend[-1] < 0.45
    # d = 1 stages read the outer factor of their symbol and its reciprocal:
    # they run no CG and factor, solve or invert nothing
    assert all(stage.cg_iterations == () for stage in res.stages)


def test_rn_derivative_d1_corner_of_the_whole_basis_is_the_truncated_stage():
    # N <= M + buffer (m_rec = n): no word lies beyond the corner, so the
    # d = 1 stage is the truncated one and equals the one-letter embedding
    # in d = 2; at r^N = 0.1 the untruncated stage differs by 7.5e-7
    sched = Schedule.explicit([(0.75, 8)])
    one = rn_derivative(NCSeries.from_dict(WordBasis(1, 1), {(1,): 0.5}), M=2,
                        eps_grid=(0.5,), schedule=sched)
    two = rn_derivative(NCSeries.from_dict(WordBasis(2, 1), {(1,): 0.5}), M=2,
                        eps_grid=(0.5,), schedule=sched)
    idx = [WordBasis(2, 2).index(w) for w in ((), (1,), (1, 1))]
    assert np.abs(two.T_compression[np.ix_(idx, idx)] - one.T_compression).max() <= 1e-12


@pytest.mark.parametrize("stage", [(0.5, 14), (0.3, 12)])
@pytest.mark.parametrize("c", [0.5, 0.5j])
def test_rn_derivative_d1_toeplitz_stage_is_the_one_letter_embedding(stage, c):
    # M + buffer = 10 < N (m_rec < n): the d = 1 stage factors its symbol
    # (Toeplitz), the d = 2 one eliminates, and the one-letter grade-<=2
    # block of the d = 2 result is the d = 1 block
    sched = Schedule.explicit([stage])
    one, two = (rn_derivative(clark_measure(NCSeries.from_dict(WordBasis(d, stage[1]),
                                                               {(1,): c})),
                              M=2, eps_grid=(0.5,), schedule=sched) for d in (1, 2))
    assert (one.stages[0].mode, two.stages[0].mode) == ("toeplitz", "elimination")
    idx = [WordBasis(2, 2).index(w) for w in ((), (1,), (1, 1))]
    assert np.abs(two.T_compression[np.ix_(idx, idx)] - one.T_compression).max() <= 1e-12


def test_rn_derivative_moment_source_matches_schur_source():
    # the same Clark measure driven through both source types
    spec = MeasureSpec(density=fatou_symbol(np.array([0.0, 0.5]),
                                            circle_grid(8192)), grid=8192)
    sched = Schedule.coupled(1, j_max=6)
    mu = classical_moments(spec, sched.max_grade())
    res_mu = rn_derivative(mu, M=4, eps_grid=(0.25,), schedule=sched)
    res_B = rn_derivative(NCSeries.from_dict(WordBasis(1, 1), {(1,): 0.5}),
                          M=4, eps_grid=(0.25,), schedule=sched)
    assert np.abs(res_mu.T_compression - res_B.T_compression).max() < 1e-6


def test_rn_derivative_moment_source_d2_matches_schur_source():
    basis = WordBasis(2, 8)
    B = NCSeries.from_dict(basis, {(1,): 0.4, (2,): -0.3j})
    mu = clark_measure(B)
    sched = Schedule.explicit([(0.5, 8)])
    res_mu = rn_derivative(mu, M=2, eps_grid=(0.5,), schedule=sched)
    res_B = rn_derivative(NCSeries.from_dict(WordBasis(2, 1),
                                             {(1,): 0.4, (2,): -0.3j}),
                          M=2, eps_grid=(0.5,), schedule=sched)
    assert np.abs(res_mu.T_compression - res_B.T_compression).max() < 1e-12


def _count_clark(monkeypatch):
    grades = []
    clark = lebesgue.clark_measure
    monkeypatch.setattr(lebesgue, "clark_measure",
                        lambda B: grades.append(B.basis.N) or clark(B))
    return grades


def _assert_same_stages(a, b, stages):
    for i in stages:
        assert (a.stages[i].vacuum_delta, a.stages[i].mass) == \
            (b.stages[i].vacuum_delta, b.stages[i].mass)


@pytest.mark.parametrize("d", [1, 2])
def test_rn_derivative_converts_a_schur_symbol_to_moments_once(d, monkeypatch):
    # a Schur symbol becomes its Clark measure on the top stage grade,
    # once, before the first stage: every stage, the compression and the
    # eps cross-check equal the run of that measure bit for bit
    symbol = {(1,): 0.5} if d == 1 else {(1,): 0.4, (2,): -0.3j, (1, 2): 0.2}
    if d == 1:
        kw = dict(M=4, schedule=Schedule.coupled(1, j_max=6))
    else:
        kw = dict(M=2, recovery_buffer=2,
                  schedule=Schedule.explicit([(0.5, 6), (0.6, 8), (0.7, 7)]))
    top = kw["schedule"].max_grade()
    grades = _count_clark(monkeypatch)
    res = rn_derivative(NCSeries.from_dict(WordBasis(d, 2), symbol), eps_grid=(0.25, 1.0),
                        **kw)
    assert grades == [top]
    ref = rn_derivative(clark_measure(NCSeries.from_dict(WordBasis(d, top), symbol)),
                        eps_grid=(0.25, 1.0), **kw)
    assert len(res.stages) == len(ref.stages) > 1
    _assert_same_stages(res, ref, range(len(ref.stages)))
    assert np.array_equal(res.T_compression, ref.T_compression)
    assert res.eps_consistency == ref.eps_consistency > 0.0
    assert np.array_equal(res.mu.moments, ref.mu.moments)


def test_rn_derivative_d2_schedule_straddling_dense_limit(monkeypatch):
    # DENSE_LIMIT at 40 words and stages of 15, 63 and 31 words: the
    # middle stage runs CG on the symbol, the others are eliminated, and
    # the Clark measure is formed once, on grade 4, the top of the
    # eliminated stages; they equal the run of the Clark measure bit for
    # bit, and the CG stage equals it to the CG tolerance
    monkeypatch.setattr(lebesgue, "DENSE_LIMIT", 40)
    symbol = {(1,): 0.5, (2,): 0.3j}
    kw = dict(M=1, recovery_buffer=1, eps_grid=(0.25, 1.0),
              schedule=Schedule.explicit([(0.5, 3), (0.6, 5), (0.7, 4)]))
    grades = _count_clark(monkeypatch)
    res = rn_derivative(NCSeries.from_dict(WordBasis(2, 1), symbol), **kw)
    assert grades == [4]
    assert [(st.mode, st.words) for st in res.stages] == [
        ("elimination", 15), ("matrix-free", 63), ("elimination", 31)]
    ref = rn_derivative(clark_measure(NCSeries.from_dict(WordBasis(2, 5), symbol)), **kw)
    assert all(st.mode == "elimination" for st in ref.stages)
    _assert_same_stages(res, ref, (0, 2))
    assert np.array_equal(res.T_compression, ref.T_compression)
    assert res.eps_consistency == ref.eps_consistency
    cg, el = res.stages[1], ref.stages[1]
    assert len(cg.cg_iterations) == 7 and el.cg_iterations == ()
    assert cg.vacuum_delta == pytest.approx(el.vacuum_delta, abs=1e-8)
    assert cg.mass == pytest.approx(el.mass, abs=1e-8)


def test_rn_derivative_rejects_underresolved_moments():
    mu = MomentFunctional(WordBasis(1, 10), np.ones(11, dtype=complex))
    with pytest.raises(ValueError):
        rn_derivative(mu, M=2, schedule=Schedule.coupled(1, j_max=6))


def test_rn_derivative_matches_oracle_on_ac_polynomial_density():
    # purely absolutely continuous trig-polynomial density: the recovered
    # compression reproduces the oracle Toeplitz matrix and mu_s ~ 0
    grid = 32768
    zetas = circle_grid(grid)
    dens = 1.0 + np.real(zetas)  # 1 + cos(theta) >= 0
    sched = Schedule.coupled(1, j_max=8)
    mu = classical_moments(MeasureSpec(density=dens, grid=grid), sched.max_grade())
    res = rn_derivative(mu, M=4, eps_grid=(0.25,), schedule=sched)
    oracle = toeplitz_from_symbol(dens, 4)
    assert np.abs(res.T_compression - oracle).max() < 2e-2
    assert abs(res.mu_s.mass()) < 2e-2
    assert not res.singular


def test_rn_derivative_inner_vacuum_trend_toward_one():
    # for inner B the resolvent at eps = 1 tends weakly to the identity on
    # the vacuum along the coupled schedule
    basis = WordBasis(1, 1)
    res = rn_derivative(NCSeries.from_dict(basis, {(1,): 1.0}), M=0,
                        eps_grid=(1.0,),
                        schedule=Schedule.coupled(1, j_max=7))
    vacua = [st.vacuum_delta for st in res.stages]
    assert res.vacuum_strictly_increasing
    # the gap to 1 closes like sqrt(1 - r): about 0.11 at j = 7
    assert vacua[-1] > 0.85
    assert vacua[-1] < 1.0


# -- PSD form checks ----------------------------------------------------------

def test_majorant_check_trivial_and_scaled():
    from ncfatou.factor import outer_factor
    basis = WordBasis(1, 24)
    # B = 0: T = I, the factor of I + T is sqrt(2), and the difference
    # (I + T_r) - x(rR)* x(rR) vanishes identically
    B0 = NCSeries.zero(basis)
    x0 = outer_factor(nc_lebesgue(basis), 1.0).y_series
    rep = majorant_check(B0, x0, 0.9, 6)
    assert abs(rep.min_eigenvalue) < 1e-13
    # b = z/2 against the outer factor of I + T at exact oracle moments
    B = schur_z(basis, 0.5)
    x = outer_factor(clark_measure(B), 1.0).y_series
    rep2 = majorant_check(B, x, 0.9, 6)
    assert rep2.min_eigenvalue >= -1e-10
    with pytest.raises(ValueError, match="must reach grade M = 6, got grades 24 and 5"):
        majorant_check(B, NCSeries.one(WordBasis(1, 5)), 0.9, 6)


def _majorant_reference(B, x, r, M):
    """The floor from T_r and x(rR) applied to each grade-<= M unit vector
    on the whole basis; exact once the basis reaches grade deg(x) + M."""
    basis = B.basis
    m = basis.sub_basis_size(M)
    mu_r = clark_r(B, r)
    xr = series_at_right_shifts(radial_scale(x, r))
    units = np.eye(basis.size, m, dtype=complex).T
    G = _gram_apply(mu_r)
    T_block = np.column_stack([G(e)[:m] for e in units])
    X = np.column_stack([xr.apply(e) for e in units])
    D = np.eye(m) + T_block - X.conj().T @ X
    return float(np.linalg.eigvalsh(0.5 * (D + D.conj().T)).min())


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([1, 2]), N=st.integers(1, 4), M=st.integers(0, 4),
       k=st.integers(1, 3), r=st.floats(0.2, 0.95), seed=st.integers(0, 2 ** 32 - 1))
def test_majorant_check_is_the_exact_compression(d, N, M, k, r, seed):
    # B with l1 norm 0.9 and x of degree N, on the basis of grade N and
    # of grade N + k, against the column loop on the grade N + M basis
    M = min(M, N)
    rng = np.random.default_rng(seed)
    n = WordBasis(d, N).size
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b *= 0.9 / np.abs(b).sum()
    c = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(n)

    def on(grade):
        basis = WordBasis(d, grade)
        return (NCSeries(basis, np.pad(b, (0, basis.size - n))),
                NCSeries(basis, np.pad(c, (0, basis.size - n))))

    ref = _majorant_reference(*on(N + M), r, M)
    (B, x), (B_k, x_k) = on(N), on(N + k)
    # B enters through grade M alone and x on its own basis, so the two
    # bases need not agree
    for pair in ((B, x), (B_k, x_k), (B_k, x), (B, x_k)):
        rep = majorant_check(*pair, r, M)
        assert (rep.grade, rep.size, rep.tol) == (M, WordBasis(d, M).size, 0.0)
        assert abs(rep.min_eigenvalue - ref) <= 1e-12


def test_fatou_form_check_examples():
    # B = 0, T = I: both sides equal 2I
    basis = WordBasis(2, 2)
    rep = fatou_form_check(NCSeries.zero(basis), nc_lebesgue(WordBasis(2, 4)), 2)
    assert abs(rep.min_eigenvalue) < 1e-12
    # inner b = z with T = 0 reduces to I - B*B >= 0
    b1 = WordBasis(1, 4)
    zero_T = MomentFunctional(WordBasis(1, 8), np.zeros(9, dtype=complex))
    rep2 = fatou_form_check(schur_z(b1), zero_T, 4)
    assert rep2.min_eigenvalue >= -1e-12
    # b = z/2 with the exact oracle T: equality case, floor ~ 0
    T_mom = clark_measure(NCSeries.from_dict(WordBasis(1, 12), {(1,): 0.5}))
    rep3 = fatou_form_check(schur_z(WordBasis(1, 8), 0.5), T_mom, 8)
    assert rep3.min_eigenvalue >= -1e-10
    assert rep3.min_eigenvalue <= 1e-8  # the d=1 case is an equality
    # d=2, T the Gram matrix of B's Clark measure: equality at every grade
    # whose moments reach M + deg B
    B2 = NCSeries.from_dict(WordBasis(2, 5), {(1,): 0.35, (2,): -0.25j, (1, 2): 0.2})
    rep4 = fatou_form_check(B2, clark_measure(B2), 3)
    assert (rep4.grade, rep4.size) == (3, WordBasis(2, 3).size)
    assert abs(rep4.min_eigenvalue) <= 1e-12


def test_fatou_form_check_needs_enough_moments():
    with pytest.raises(ValueError):
        fatou_form_check(schur_z(WordBasis(1, 4)),
                         nc_lebesgue(WordBasis(1, 3)), 4)
