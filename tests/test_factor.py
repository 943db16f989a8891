import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from ncfatou.factor import outer_factor
from ncfatou.fock import FockVector, TruncatedOperator
from ncfatou.measure import clark_measure, gram, nc_lebesgue, radial_measure, vector_state
from ncfatou.series import NCSeries, invert
from ncfatou.words import WordBasis


def test_outer_factor_trivial():
    basis = WordBasis(2, 4)
    res = outer_factor(0.0 * nc_lebesgue(basis), 1.0)
    assert res.psi.constant_term() == pytest.approx(1.0)
    assert np.abs(res.psi.coeffs[1:]).max() == 0.0
    assert res.residual < 1e-13
    assert res.check_grade == basis.N


def test_outer_factor_radial_toeplitz():
    basis = WordBasis(1, 96)
    B = NCSeries.from_dict(basis, {(1,): 0.5})
    res = outer_factor(radial_measure(clark_measure(B), 0.9), 1.0)
    assert res.residual <= 1e-8
    assert res.psi.constant_term().real > 0
    assert res.psi.constant_term().imag == 0.0


def test_outer_factor_vector_state_d2():
    basis = WordBasis(2, 8)
    x = np.zeros(basis.size, dtype=complex)
    x[basis.index(())] = 1.0
    x[basis.index((1,))] = 0.5
    res = outer_factor(vector_state(FockVector(basis, x)), 1.0)
    assert res.residual <= 1e-8


def test_outer_factor_gauge_and_determinism():
    basis = WordBasis(2, 5)
    rng = np.random.default_rng(61)
    tau = vector_state(FockVector(basis, rng.standard_normal(basis.size)))
    a = outer_factor(tau, 0.7)
    b = outer_factor(tau, 0.7)
    assert np.array_equal(a.psi.coeffs, b.psi.coeffs)
    assert a.psi.constant_term().real > 0


def test_outer_factor_contraction_bound():
    basis = WordBasis(1, 48)
    B = NCSeries.from_dict(basis, {(1,): 0.5})
    tau = radial_measure(clark_measure(B), 0.8)
    for eps in (0.5, 1.0, 2.0):
        res = outer_factor(tau, eps)
        y_inv = TruncatedOperator(basis, res.psi.coeffs, "right")
        rng = np.random.default_rng(63)
        for _ in range(5):
            v = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
            assert np.linalg.norm(y_inv.apply(v)) <= \
                (1.0 / np.sqrt(eps)) * np.linalg.norm(v) * (1 + 1e-12)


def test_outer_factor_outerness_rank():
    # the inverse factor applied to monomials spans all grades in the
    # exact region: a cyclicity proxy for outerness
    basis = WordBasis(1, 40)
    B = NCSeries.from_dict(basis, {(1,): 0.5})
    res = outer_factor(radial_measure(clark_measure(B), 0.8), 1.0)
    y_inv = TruncatedOperator(basis, res.psi.coeffs, "right")
    m = basis.sub_basis_size(res.check_grade)
    cols = np.zeros((basis.size, m), dtype=complex)
    e = np.zeros(basis.size, dtype=complex)
    for j in range(m):
        e[j] = 1.0
        cols[:, j] = y_inv.apply(e)
        e[j] = 0.0
    sv = np.linalg.svd(cols[:m, :], compute_uv=False)
    assert sv.min() > 1e-8  # full rank on the exact region


def test_outer_factor_rejects_bad_tau():
    basis = WordBasis(1, 5)
    with pytest.raises(ValueError):
        outer_factor(-1.0 * nc_lebesgue(basis), 1.0)
    with pytest.raises(ValueError):
        outer_factor(nc_lebesgue(basis), 0.0)


def test_gauge_fix_resolves_unimodular_ambiguity():
    # rotating psi by a unimodular constant leaves y*y unchanged, so the
    # factorization is unique only up to phase; the positive-real gauge on
    # the constant coefficient pins it down
    basis = WordBasis(1, 24)
    B = NCSeries.from_dict(basis, {(1,): 0.5})
    res = outer_factor(radial_measure(clark_measure(B), 0.8), 1.0)
    psi_alt = NCSeries(res.psi.basis, res.psi.coeffs * np.exp(0.7j))
    y = TruncatedOperator(basis, res.y_series.coeffs, "right")
    y_alt = TruncatedOperator(basis, invert(psi_alt).coeffs, "right")
    m = basis.sub_basis_size(res.check_grade)
    cols = np.zeros((basis.size, m), dtype=complex)
    cols_alt = np.zeros((basis.size, m), dtype=complex)
    e = np.zeros(basis.size, dtype=complex)
    for j in range(m):
        e[j] = 1.0
        cols[:, j] = y.apply(e)
        cols_alt[:, j] = y_alt.apply(e)
        e[j] = 0.0
    assert np.abs(cols.conj().T @ cols - cols_alt.conj().T @ cols_alt).max() < 1e-10
    assert psi_alt.constant_term().imag != 0.0
    assert res.psi.constant_term().imag == 0.0


def test_factorization_identity_matches_right_multiplier():
    # y from the factorization is literally right multiplication by the
    # graded inverse of psi: its series is invert(psi), bit for bit
    basis = WordBasis(2, 4)
    rng = np.random.default_rng(67)
    x = FockVector(basis, rng.standard_normal(basis.size))
    res = outer_factor(vector_state(x), 1.0)
    assert np.array_equal(res.y_series.coeffs, invert(res.psi).coeffs)


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), data=st.data(), eps=st.floats(0.25, 2.0),
       size=st.floats(0.0, 0.1), seed=st.integers(0, 2 ** 32 - 1))
def test_outer_factor_of_random_vector_states(d, data, eps, size, seed):
    # x = 1 + sum_k c_k Z_k: eps I + T_x = y* y for the degree-one outer
    # y = a + (c / a) Z, a^2 the larger root of t^2 - (1 + eps + |c|^2) t
    # + |c|^2, at every d.  The truncation to grade N is off by about
    # q^(2N + 2), q = |c| / a^2; |c| <= 0.1 and N >= 4 keep that below
    # 1e-10 (a larger x leaves an unresolved tail, which the residual shows)
    basis = WordBasis(d, data.draw(st.integers(4, {1: 8, 2: 6, 3: 5}[d])))
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    c *= size / np.linalg.norm(c)
    x = np.zeros(basis.size, dtype=complex)
    x[0], x[1:d + 1] = 1.0, c
    res = outer_factor(vector_state(FockVector(basis, x)), eps)
    assert res.residual <= 1e-10
    assert res.psi.constant_term().imag == 0.0
    assert res.psi.constant_term().real > 0
    assert np.array_equal(res.y_series.coeffs, invert(res.psi).coeffs)
    s = 1.0 + eps + size ** 2
    a = np.sqrt(0.5 * (s + np.sqrt(s * s - 4.0 * size ** 2)))
    closed = np.zeros(basis.size, dtype=complex)
    closed[0], closed[1:d + 1] = a, c / a
    assert np.abs(res.y_series.coeffs - closed).max() <= 1e-6


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([2, 3]), data=st.data(), eps=st.floats(0.25, 2.0),
       state=st.booleans(), l1=st.floats(0.05, 0.95), r=st.floats(0.3, 0.95),
       seed=st.integers(0, 2 ** 32 - 1))
def test_outer_factor_matches_the_dense_cholesky_solve(d, data, eps, state, l1, r, seed):
    # the prefix-tree sweep and its back-substitution against a Cholesky
    # solve of the dense eps I + T_tau, on random vector states and on
    # radial Clark measures of Schur symbols (l1 norm below 1)
    basis = WordBasis(d, data.draw(st.integers(0, {2: 7, 3: 5}[d])))
    rng = np.random.default_rng(seed)
    pool = basis.sub_basis_size(min(basis.N, 2))
    c = np.zeros(basis.size, dtype=complex)
    c[:pool] = rng.standard_normal(pool) + 1j * rng.standard_normal(pool)
    if state:
        tau = vector_state(FockVector(basis, c))
    else:
        c[0] = 0.0
        B = NCSeries(basis, c * (l1 / max(np.abs(c).sum(), 1e-300)))
        tau = radial_measure(clark_measure(B), r)
    A = gram(tau).matrix + eps * np.eye(basis.size)
    phi = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A), np.eye(basis.size, 1))[:, 0]
    ref = phi / np.sqrt(phi[0].real)
    psi = outer_factor(tau, eps).psi.coeffs
    assert np.abs(psi - ref).max() <= 1e-13 * np.abs(ref).max()


def test_outer_factor_d1_names_a_matrix_the_probes_miss():
    # the radial measure of the non-Schur 1.2 Z at d = 1: eps I + T_tau is
    # indefinite, the Rayleigh probes miss it, and the Cholesky factor's
    # LinAlgError becomes the named ValueError
    basis = WordBasis(1, 8)
    tau = radial_measure(clark_measure(NCSeries.from_dict(basis, {(1,): 1.2})), 0.9)
    assert np.linalg.eigvalsh(gram(tau).matrix + np.eye(basis.size))[0] < 0
    with pytest.raises(ValueError) as err:
        outer_factor(tau, 1.0)
    assert type(err.value) is ValueError
    assert str(err.value).startswith("eps I + tau is not positive definite at eps = 1.0: ")


def test_outer_factor_names_a_pivot_the_probes_miss():
    # the radial measure of the non-Schur 1.5 (Z1 + Z2 + Z3) at d = 3:
    # eps I + T_tau has 28 negative eigenvalues of 121, which the six
    # Rayleigh probes miss, and the sweep stops at its grade-3 pivot with
    # the named ValueError, not a LinAlgError
    basis = WordBasis(3, 4)
    B = NCSeries.from_dict(basis, {(1,): 1.5, (2,): 1.5, (3,): 1.5})
    with pytest.raises(ValueError) as err:
        outer_factor(radial_measure(clark_measure(B), 0.9), 1.0)
    assert type(err.value) is ValueError
    assert str(err.value) == ("eps I + tau is not positive definite at eps = 1.0: "
                              "pivot -7.338e-01 at grade 3")
