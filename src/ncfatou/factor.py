"""Outer factorization of eps I + tau for positive L-Toeplitz tau.

The factor is produced through the explicit inverse-symbol formula: with
phi = (eps I + tau)^{-1} 1 and psi = phi / sqrt(<1, phi>), right
multiplication by psi inverts the outer factor, and the factor itself is
right multiplication by the graded inverse of psi.  The unimodular gauge
is fixed by making the constant coefficient of psi real and positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fock import TruncatedOperator
from .series import NCSeries, invert, right_multiplier


@dataclass(frozen=True)
class LToeplitzReport:
    max_violation: float
    pairs_checked: int
    tol: float

    def __bool__(self) -> bool:
        return self.max_violation <= self.tol


def ltoeplitz_check(A: TruncatedOperator, tol: float = 1e-10) -> LToeplitzReport:
    """Worst deviation of <L_j g, A L_k h> from delta_jk <g, A h>.

    g, h range over all monomials of grade <= N-1 (where the shifted
    words stay inside the truncation) and j, k over all letters: an
    exhaustive sweep of index blocks of the dense A, since L_j g is the
    basis vector of the word j.g.
    """
    basis = A.basis
    if basis.N < 1:
        return LToeplitzReport(0.0, 0, tol)
    m_low = basis.sub_basis_size(basis.N - 1)
    dense = A.to_dense()
    # shifted[j - 1][g] = index of the word j.g, for every g of grade <= N-1
    shifted = [[basis.index((j,) + basis.word(g)) for g in range(m_low)]
               for j in range(1, basis.d + 1)]
    low = dense[:m_low, :m_low]
    worst = 0.0
    for j, rows in enumerate(shifted):
        for k, cols in enumerate(shifted):
            block = dense[np.ix_(rows, cols)]
            worst = max(worst, float(np.abs(block - low if j == k else block).max()))
    return LToeplitzReport(worst, m_low * m_low, tol)


@dataclass(frozen=True)
class FactorResult:
    """Outer factorization data for eps I + tau.

    psi has a real positive constant coefficient (the gauge fix); y_inv is
    right multiplication by psi, y its graded inverse, and residual is the
    max entry of y* y - (eps I + tau) on the exact-region compression of
    grade <= check_grade.
    """

    eps: float
    psi: NCSeries
    y_series: NCSeries
    y_inv: TruncatedOperator
    y: TruncatedOperator
    residual: float
    check_grade: int
    contraction_norm_bound: float


def outer_factor(tau: TruncatedOperator, eps: float, *,
                 check_grade: int | None = None, psd_tol: float = 1e-10,
                 ltoeplitz_tol: float = 1e-10, support_floor: float = 1e-12,
                 probes: int = 6, seed: int = 0) -> FactorResult:
    """Factor eps I + tau = y* y with y an outer right multiplier.

    tau must be PSD (checked on random Rayleigh probes) and L-Toeplitz
    within ltoeplitz_tol (checked on every pair of monomials).  The
    residual is asserted only on grades <= check_grade, defaulting to N
    minus the effective support grade of the factor at the coefficient
    floor, where compression artifacts cannot reach; it is read off the
    first columns of the dense y and the corner of the dense eps I + tau.
    """
    if eps <= 0:
        raise ValueError(f"shift eps must be positive, got {eps}")
    basis = tau.basis
    n = basis.size
    rng = np.random.default_rng(seed)
    scale = 1.0
    for _ in range(probes):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        ray = float(np.vdot(v, tau.apply(v)).real)
        scale = max(scale, abs(ray))
        if ray < -psd_tol * scale:
            raise ValueError(f"tau is not PSD on probes: Rayleigh quotient {ray:.3e}")
    toep = ltoeplitz_check(tau, tol=ltoeplitz_tol * scale)
    if not toep:
        raise ValueError(
            f"tau violates the L-Toeplitz relation by {toep.max_violation:.3e} "
            f"on {toep.pairs_checked} monomial pairs")

    e0 = np.zeros(n, dtype=complex)
    e0[0] = 1.0
    A = tau.to_dense() + eps * np.eye(n)
    phi = scipy.linalg.cho_solve(scipy.linalg.cho_factor(0.5 * (A + A.conj().T)), e0)
    inner = phi[0]
    if inner.real <= 0:
        raise ValueError(f"<1, (eps I + tau)^{{-1}} 1> = {inner:.3e} is not positive")
    psi = NCSeries(basis, phi / np.sqrt(inner.real))
    y_series = invert(psi)
    y_inv = right_multiplier(psi)
    y = right_multiplier(y_series)

    if check_grade is None:
        check_grade = max(0, basis.N - y_series.degree(floor=support_floor))
    m = basis.sub_basis_size(check_grade)
    # the contiguous copy keeps the product's BLAS path, hence its rounding
    cols = np.ascontiguousarray(y.to_dense()[:, :m])
    D = cols.conj().T @ cols - A[:m, :m]
    residual = float(np.abs(D).max())
    return FactorResult(
        eps=eps, psi=psi, y_series=y_series, y_inv=y_inv, y=y,
        residual=residual, check_grade=check_grade,
        contraction_norm_bound=float(1.0 / np.sqrt(eps)))

