"""Outer factorization of eps I + T_tau, T_tau the Gram matrix of a positive
NC measure tau, from tau's moments alone.

The factor is produced through the explicit inverse-symbol formula: with
phi = (eps I + T_tau)^{-1} 1 and psi = phi / sqrt(<1, phi>), right
multiplication by psi inverts the outer factor, and the factor itself is
right multiplication by the graded inverse of psi.  The unimodular gauge
is fixed by making the constant coefficient of psi real and positive.

phi is solved on the tree of prefixes at d >= 2 (measure._prefix_solve):
the zero-fill sweep that eliminates the stages of rn_derivative
(measure._prefix_sweep) run down through grade 0, then back-substitution
up the grades, in O(n N) work on O(n) numbers with no n x n matrix.  At
d = 1 the tree is a path of N + 1 words and one dense solve of
eps I + T_tau is faster than the sweep's Python loop over grades.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import TruncatedOperator
from .measure import MomentFunctional, _gram_apply, _prefix_solve, gram
from .series import NCSeries, invert

#: Rayleigh probes of T_tau, their relative PSD tolerance, the factor's coefficient floor
_PROBES = 6
_PSD_TOL = 1e-10
_SUPPORT_FLOOR = 1e-12


@dataclass(frozen=True)
class FactorResult:
    """Outer factorization data for eps I + T_tau.

    psi has a real positive constant coefficient (the gauge fix).  The
    factor y is right multiplication by y_series = invert(psi), and right
    multiplication by psi is its inverse.  residual is the max entry of
    y* y - (eps I + T_tau) on the compression of grade <= check_grade (see
    outer_factor).
    """

    eps: float
    psi: NCSeries
    y_series: NCSeries
    residual: float
    check_grade: int
    contraction_norm_bound: float


def outer_factor(tau: MomentFunctional, eps: float, *, seed: int = 0) -> FactorResult:
    """Factor eps I + T_tau = y* y with y an outer right multiplier.

    T_tau = gram(tau).matrix; a tau that is not positive fails its seeded
    Rayleigh probes (T_tau v from its half multiplier, built once) or a pivot of the solve for
    phi = (eps I + T_tau)^{-1} 1, with a named ValueError.  At d >= 2 that
    solve is the sweep of eps I + T_tau on the tree of prefixes and its
    back-substitution (_prefix_solve): O(n N) work on O(n) numbers and no
    n x n matrix.  At d = 1, where n = N + 1, it is one np.linalg.solve
    of the dense eps I + T_tau, after its Cholesky factorization
    (np.linalg.cholesky) has checked that it is positive definite; numpy
    has no triangular solve, and one LU solve of eps I + T_tau costs half
    of two with the Cholesky factors.  The residual is the max
    entry of y* y - (eps I + T_tau) on grades <= check_grade, read off the
    first columns of y alone (an n x m index fill); check_grade is N minus
    the support grade of y at the coefficient floor (0 if y has not
    decayed by grade N, when the residual is the truncation error).
    """
    if eps <= 0:
        raise ValueError(f"shift eps must be positive, got {eps}")
    basis = tau.basis
    n = basis.size
    G = _gram_apply(tau)
    rng = np.random.default_rng(seed)
    scale = 1.0
    for _ in range(_PROBES):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        ray = float(np.vdot(v, G(v)).real)
        scale = max(scale, abs(ray))
        if ray < -_PSD_TOL * scale:
            raise ValueError(f"tau is not PSD on probes: Rayleigh quotient {ray:.3e}")

    try:
        if basis.d == 1:
            A = gram(tau).matrix + eps * np.eye(n)
            np.linalg.cholesky(A)  # raises LinAlgError if A is not positive definite
            phi = np.linalg.solve(A, np.eye(n, 1))[:, 0]
        else:
            phi = _prefix_solve(tau, eps)
    except np.linalg.LinAlgError as err:
        raise ValueError(
            f"eps I + tau is not positive definite at eps = {eps!r}: {err}") from None
    inner = phi[0].real
    if inner <= 0:
        raise ValueError(f"<1, (eps I + tau)^{{-1}} 1> = {inner:.3e} is not positive")
    phi[0] = inner  # real in exact arithmetic, so the gauge leaves psi(0) real
    psi = NCSeries(basis, phi / np.sqrt(inner))
    y_series = invert(psi)

    check_grade = max(0, basis.N - y_series.degree(floor=_SUPPORT_FLOOR))
    m = basis.sub_basis_size(check_grade)
    # y's first m columns, entry for entry those of its dense matrix, in a
    # C-ordered array: that fixes the product's BLAS path, hence its rounding
    cols = TruncatedOperator(basis, y_series.coeffs, "right").to_dense(m)
    A = gram(tau.restricted(check_grade)).matrix + eps * np.eye(m)
    residual = float(np.abs(cols.conj().T @ cols - A).max())
    return FactorResult(
        eps=eps, psi=psi, y_series=y_series,
        residual=residual, check_grade=check_grade,
        contraction_norm_bound=float(1.0 / np.sqrt(eps)))
