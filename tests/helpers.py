"""Checks, fixtures and references shared by the test modules.

The checks pair a map with its adjoint and fill a dense matrix from a
matvec.  The fixtures build unit vectors of the Fock space and write series and
moment files.  The references compute what the package computes another
way: herglotz_integral is the d = 1 reference for herglotz_eval, the
Herglotz integral of a classical measure on the circle; resolvent_corner
is the dense corner of the truncated resolvent that the stages of
rn_derivative are checked against; left_multiplier_norm bounds the
multiplier norm of a Schur symbol.  None of them is part of the package:
no run needs them, and only left_multiplier_norm needs scipy.
"""

import csv

import numpy as np
import scipy.sparse.linalg

from ncfatou import lebesgue
from ncfatou.fock import FockVector
from ncfatou.measure import MomentFunctional, _gram_apply, gram, vector_state
from ncfatou.oracle1d import MeasureSpec, circle_grid
from ncfatou.series import NCSeries
from ncfatou.words import Word, WordBasis, word_to_str

#: eigsh's relative tolerance in left_multiplier_norm
_NORM_TOL = 1e-12


def adjoint_residual(apply, adjoint_apply, n: int, rng: np.random.Generator,
                     probes: int = 4) -> float:
    """max |<u, A v> - <A* u, v>| over random unit probes u, v of n words,
    for a map v -> A v given with its claimed adjoint: a TruncatedOperator's
    apply and adjoint_apply, or its solve against both sides."""
    worst = 0.0
    for _ in range(probes):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        lhs = np.vdot(u, apply(v))
        rhs = np.vdot(adjoint_apply(u), v)
        worst = max(worst, abs(lhs - rhs))
    return worst


def dense_of(matvec, n: int) -> np.ndarray:
    """The n x n matrix of matvec, one column per unit vector."""
    A = np.empty((n, n), dtype=complex)
    e = np.zeros(n, dtype=complex)
    for j in range(n):
        e[j] = 1.0
        A[:, j] = matvec(e)
        e[j] = 0.0
    return A


# -- fixtures ----------------------------------------------------------------

def vacuum(basis: WordBasis) -> FockVector:
    c = np.zeros(basis.size, dtype=complex)
    c[0] = 1.0
    return FockVector(basis, c)


def basis_vector(basis: WordBasis, w: Word) -> FockVector:
    c = np.zeros(basis.size, dtype=complex)
    c[basis.index(w)] = 1.0
    return FockVector(basis, c)


def write_series_csv(f: NCSeries, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["word", "re", "im"])
        for w, c in f.support():
            writer.writerow([word_to_str(w), repr(float(c.real)), repr(float(c.imag))])


def write_moments_csv(mu: MomentFunctional, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["word", "re", "im"])
        for i in range(mu.basis.size):
            c = mu.moments[i]
            if i == 0 or c != 0:
                writer.writerow([word_to_str(mu.basis.word(i)),
                                 repr(float(c.real)), repr(float(c.imag))])


# -- references --------------------------------------------------------------

def herglotz_integral(spec: MeasureSpec, z: complex) -> complex:
    """int (1 + z conj(zeta)) / (1 - z conj(zeta)) dmu(zeta), |z| < 1."""
    if abs(z) >= 1:
        raise ValueError(f"Herglotz integral needs |z| < 1, got {abs(z)}")
    total = 0.0 + 0.0j
    for angle, weight in spec.point_masses:
        zc = np.conj(np.exp(1j * angle))
        total += weight * (1 + z * zc) / (1 - z * zc)
    if spec.density is not None:
        zetas = circle_grid(spec.grid)
        vals = (1 + z * zetas.conj()) / (1 - z * zetas.conj())
        total += np.mean(vals * spec.density)
    return complex(total)


def resolvent_corner(mu_r: MomentFunctional, eps: float, m: int) -> np.ndarray:
    """P_m Delta_r(eps) P_m with Delta_r(eps) = (eps I + T_r)^{-1} and T_r
    = gram(mu_r).matrix, as an m x m matrix (m counts basis words); eps
    must be positive.

    This is the exact corner of the truncated resolvent, computed
    independently of the stages of rn_derivative: it factors the dense
    eps I + T_r = L L^H and reads the corner as X^H X, X = L^{-1} E_m
    (lebesgue._inverse_corner), so the basis may hold at most
    lebesgue.DENSE_LIMIT words.  Returns the Hermitized corner; raises
    LinAlgError if eps I + T_r is not positive definite.
    """
    if not eps > 0:
        raise ValueError(f"resolvent parameter must be positive, got {eps}")
    basis = mu_r.basis
    if m > basis.size:
        raise ValueError(f"corner of {m} words exceeds basis size {basis.size}")
    if basis.size > lebesgue.DENSE_LIMIT:
        raise ValueError(
            f"the dense reference corner needs at most {lebesgue.DENSE_LIMIT} basis "
            f"words, got {basis.size}")
    return lebesgue._inverse_corner(gram(mu_r).matrix + eps * np.eye(basis.size), m)


def left_multiplier_norm(f: NCSeries) -> float:
    """Norm of M^L_f restricted to the grade <= N subspace.

    M^L_f e_b = R^b f and R^b = U L^{transpose(b)} U, U the transpose
    unitary, so M^L_f* M^L_f is the Gram matrix of the vector state of
    U f with its basis permuted by transposition, exact on f's own basis.
    Its top eigenvalue is read by eigvalsh up to 64 words, else by eigsh
    on the Gram matvec.  This is a lower bound for the full-space
    multiplier norm.
    """
    m = f.basis.size
    mu = vector_state(FockVector(f.basis, f.coeffs[f.basis.transpose_permutation]))
    if m <= 64:
        lam = float(np.linalg.eigvalsh(gram(mu).matrix).max())
    else:
        lin = scipy.sparse.linalg.LinearOperator((m, m), matvec=_gram_apply(mu), dtype=complex)
        lam = float(scipy.sparse.linalg.eigsh(
            lin, k=1, which="LA", tol=_NORM_TOL, v0=np.ones(m) / np.sqrt(m),
            maxiter=10000, return_eigenvectors=False)[0])
    return float(np.sqrt(max(lam, 0.0)))
