import numpy as np
import pytest

from ncfatou.factor import ltoeplitz_check, outer_factor
from ncfatou.fock import FockVector, TruncatedOperator
from ncfatou.lebesgue import RadialOperator
from ncfatou.measure import gram, vector_state
from ncfatou.series import NCSeries, right_multiplier
from ncfatou.words import WordBasis


def test_outer_factor_trivial():
    basis = WordBasis(2, 4)
    tau = TruncatedOperator.from_dense(basis, np.zeros((basis.size, basis.size)))
    res = outer_factor(tau, 1.0)
    assert res.psi.constant_term() == pytest.approx(1.0)
    assert np.abs(res.psi.coeffs[1:]).max() == 0.0
    assert res.residual < 1e-13
    assert res.check_grade == basis.N


def test_outer_factor_radial_toeplitz():
    basis = WordBasis(1, 96)
    B = NCSeries.from_dict(basis, {(1,): 0.5})
    tau = RadialOperator.from_schur(B, 0.9)
    res = outer_factor(tau, 1.0)
    assert res.residual <= 1e-8
    assert res.psi.constant_term().real > 0
    assert res.psi.constant_term().imag == 0.0


def test_outer_factor_vector_state_d2():
    basis = WordBasis(2, 8)
    x = np.zeros(basis.size, dtype=complex)
    x[basis.index(())] = 1.0
    x[basis.index((1,))] = 0.5
    tau_mat = gram(vector_state(FockVector(basis, x))).matrix
    res = outer_factor(TruncatedOperator.from_dense(basis, tau_mat), 1.0)
    assert res.residual <= 1e-8


def test_outer_factor_gauge_and_determinism():
    basis = WordBasis(2, 5)
    rng = np.random.default_rng(61)
    x = FockVector(basis, rng.standard_normal(basis.size))
    tau = TruncatedOperator.from_dense(basis, gram(vector_state(x)).matrix)
    a = outer_factor(tau, 0.7)
    b = outer_factor(tau, 0.7)
    assert np.array_equal(a.psi.coeffs, b.psi.coeffs)
    assert a.psi.constant_term().real > 0


def test_outer_factor_contraction_bound():
    basis = WordBasis(1, 48)
    B = NCSeries.from_dict(basis, {(1,): 0.5})
    tau = RadialOperator.from_schur(B, 0.8)
    for eps in (0.5, 1.0, 2.0):
        res = outer_factor(tau, eps)
        rng = np.random.default_rng(63)
        for _ in range(5):
            v = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
            assert np.linalg.norm(res.y_inv.apply(v)) <= \
                (1.0 / np.sqrt(eps)) * np.linalg.norm(v) * (1 + 1e-12)


def test_outer_factor_outerness_rank():
    # the inverse factor applied to monomials spans all grades in the
    # exact region: a cyclicity proxy for outerness
    basis = WordBasis(1, 40)
    B = NCSeries.from_dict(basis, {(1,): 0.5})
    tau = RadialOperator.from_schur(B, 0.8)
    res = outer_factor(tau, 1.0)
    m = basis.sub_basis_size(res.check_grade)
    cols = np.zeros((basis.size, m), dtype=complex)
    e = np.zeros(basis.size, dtype=complex)
    for j in range(m):
        e[j] = 1.0
        cols[:, j] = res.y_inv.apply(e)
        e[j] = 0.0
    sv = np.linalg.svd(cols[:m, :], compute_uv=False)
    assert sv.min() > 1e-8  # full rank on the exact region


def test_outer_factor_rejects_bad_tau():
    basis = WordBasis(1, 5)
    neg = TruncatedOperator.from_dense(basis, -np.eye(basis.size))
    with pytest.raises(ValueError):
        outer_factor(neg, 1.0)
    diag = TruncatedOperator.from_dense(basis, np.diag(np.arange(1.0, 7.0)))
    with pytest.raises(ValueError):
        outer_factor(diag, 1.0)
    with pytest.raises(ValueError):
        outer_factor(TruncatedOperator.from_dense(
            basis, np.eye(basis.size)), 0.0)


def test_ltoeplitz_check_examples():
    basis = WordBasis(2, 3)
    eye = TruncatedOperator.from_dense(basis, np.eye(basis.size))
    assert ltoeplitz_check(eye).max_violation == 0.0
    b1 = WordBasis(1, 16)
    Tr = RadialOperator.from_schur(NCSeries.from_dict(b1, {(1,): 0.5}), 0.8)
    assert ltoeplitz_check(Tr).max_violation < 1e-12
    bad = TruncatedOperator.from_dense(b1, np.diag(np.arange(1.0, 18.0)))
    assert ltoeplitz_check(bad).max_violation >= 1.0


@pytest.mark.parametrize("row, col", [((2, 2, 2, 1, 2), (1, 1, 2, 2, 1)),
                                      ((2, 2, 2, 1, 2), (2, 1, 2, 2, 1))])
def test_ltoeplitz_check_finds_a_single_entry_defect(row, col):
    # one entry <L_j g, A L_k h> off the identity, g and h of grade 4: only
    # the pair (g, h) sees it, and a random sample of 400 of the 961 pairs
    # may miss it
    basis = WordBasis(2, 5)
    A = np.eye(basis.size, dtype=complex)
    A[basis.index(row), basis.index(col)] = 1.0
    rep = ltoeplitz_check(TruncatedOperator.from_dense(basis, A))
    assert rep.max_violation == 1.0
    assert rep.pairs_checked == basis.sub_basis_size(4) ** 2


def test_gauge_fix_resolves_unimodular_ambiguity():
    # rotating psi by a unimodular constant leaves y*y unchanged, so the
    # factorization is unique only up to phase; the positive-real gauge on
    # the constant coefficient pins it down
    basis = WordBasis(1, 24)
    B = NCSeries.from_dict(basis, {(1,): 0.5})
    tau = RadialOperator.from_schur(B, 0.8)
    res = outer_factor(tau, 1.0)
    phase = np.exp(0.7j)
    from ncfatou.series import invert
    y_alt = right_multiplier(invert(res.psi * phase))
    m = basis.sub_basis_size(res.check_grade)
    cols = np.zeros((basis.size, m), dtype=complex)
    cols_alt = np.zeros((basis.size, m), dtype=complex)
    e = np.zeros(basis.size, dtype=complex)
    for j in range(m):
        e[j] = 1.0
        cols[:, j] = res.y.apply(e)
        cols_alt[:, j] = y_alt.apply(e)
        e[j] = 0.0
    assert np.abs(cols.conj().T @ cols - cols_alt.conj().T @ cols_alt).max() < 1e-10
    assert (res.psi * phase).constant_term().imag != 0.0
    assert res.psi.constant_term().imag == 0.0


def test_factorization_identity_matches_right_multiplier():
    # y from the factorization is literally right multiplication by the
    # graded inverse of psi
    basis = WordBasis(2, 4)
    rng = np.random.default_rng(67)
    x = FockVector(basis, rng.standard_normal(basis.size))
    tau = TruncatedOperator.from_dense(basis, gram(vector_state(x)).matrix)
    res = outer_factor(tau, 1.0)
    v = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    from ncfatou.series import invert
    assert np.abs(res.y.apply(v)
                  - right_multiplier(invert(res.psi)).apply(v)).max() == 0.0
