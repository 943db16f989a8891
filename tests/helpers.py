"""Checks, fixtures and references shared by the test modules.

The checks pair a map with its adjoint and fill a dense matrix from a
matvec.  The fixtures build unit vectors of the Fock space and write series and
moment files; herglotz_integral is the d = 1 reference for herglotz_eval,
the Herglotz integral of a classical measure on the circle.  None of them
is part of the package: no run needs them.
"""

import csv

import numpy as np

from ncfatou.fock import FockVector
from ncfatou.measure import MomentFunctional
from ncfatou.oracle1d import MeasureSpec, circle_grid
from ncfatou.series import NCSeries
from ncfatou.words import Word, WordBasis, word_to_str


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
