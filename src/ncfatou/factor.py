"""Outer factorization of eps I + T_tau, T_tau the Gram matrix of a positive
NC measure tau, from tau's moments alone.

The factor is produced through the explicit inverse-symbol formula: with
phi = (eps I + T_tau)^{-1} 1 and psi = phi / sqrt(<1, phi>), right
multiplication by psi inverts the outer factor, and the factor itself is
right multiplication by the graded inverse of psi.  The unimodular gauge
is fixed by making the constant coefficient of psi real and positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fock import TruncatedOperator
from .measure import MomentFunctional, gram
from .series import NCSeries, invert, right_multiplier

#: Rayleigh probes of T_tau, their relative PSD tolerance, the factor's coefficient floor
_PROBES = 6
_PSD_TOL = 1e-10
_SUPPORT_FLOOR = 1e-12


@dataclass(frozen=True)
class FactorResult:
    """Outer factorization data for eps I + T_tau.

    psi has a real positive constant coefficient (the gauge fix); y_inv is
    right multiplication by psi, y its graded inverse, and residual is the
    max entry of y* y - (eps I + T_tau) on the compression of grade <=
    check_grade (see outer_factor).
    """

    eps: float
    psi: NCSeries
    y_series: NCSeries
    y_inv: TruncatedOperator
    y: TruncatedOperator
    residual: float
    check_grade: int
    contraction_norm_bound: float


def outer_factor(tau: MomentFunctional, eps: float, *, seed: int = 0) -> FactorResult:
    """Factor eps I + T_tau = y* y with y an outer right multiplier.

    T_tau = gram(tau).matrix; a tau that is not positive fails its seeded
    Rayleigh probes or the Cholesky factorization of eps I + T_tau.  The
    residual is read off the dense y and eps I + T_tau on grades <=
    check_grade, N minus the support grade of y at the coefficient floor
    (0 if y has not decayed by grade N, when it is the truncation error).
    """
    if eps <= 0:
        raise ValueError(f"shift eps must be positive, got {eps}")
    basis = tau.basis
    n = basis.size
    G = gram(tau).matrix
    rng = np.random.default_rng(seed)
    scale = 1.0
    for _ in range(_PROBES):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        ray = float(np.vdot(v, G @ v).real)
        scale = max(scale, abs(ray))
        if ray < -_PSD_TOL * scale:
            raise ValueError(f"tau is not PSD on probes: Rayleigh quotient {ray:.3e}")

    A = G + eps * np.eye(n)
    try:
        phi = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A), np.eye(n, 1))[:, 0]
    except np.linalg.LinAlgError:
        raise ValueError(f"eps I + tau is not positive definite at eps = {eps!r}") from None
    inner = phi[0].real
    if inner <= 0:
        raise ValueError(f"<1, (eps I + tau)^{{-1}} 1> = {inner:.3e} is not positive")
    phi[0] = inner  # real in exact arithmetic, so the gauge leaves psi(0) real
    psi = NCSeries(basis, phi / np.sqrt(inner))
    y_series = invert(psi)
    y_inv = right_multiplier(psi)
    y = right_multiplier(y_series)

    check_grade = max(0, basis.N - y_series.degree(floor=_SUPPORT_FLOOR))
    m = basis.sub_basis_size(check_grade)
    # the contiguous copy keeps the product's BLAS path, hence its rounding
    cols = np.ascontiguousarray(y.to_dense()[:, :m])
    D = cols.conj().T @ cols - A[:m, :m]
    residual = float(np.abs(D).max())
    return FactorResult(
        eps=eps, psi=psi, y_series=y_series, y_inv=y_inv, y=y,
        residual=residual, check_grade=check_grade,
        contraction_norm_bound=float(1.0 / np.sqrt(eps)))
