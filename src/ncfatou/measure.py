"""NC measures as truncated moment functionals.

A positive NC measure is represented by its moments on words of length
<= N.  Positivity is decided at the working grade only (PSD of the
L-Toeplitz Gram matrix); this is a necessary condition, and every verdict
records the grade it was computed at.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockVector, TruncatedOperator
from .series import (EvalResult, MatrixPoint, NCSeries, cayley_to_herglotz,
                     radial_scale, read_word_csv)
from .words import WordBasis


@dataclass(frozen=True)
class MomentFunctional:
    """Map word -> mu(L^word) on all words of length <= N."""

    basis: WordBasis
    moments: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(self.moments, dtype=complex)
        if m.shape != (self.basis.size,):
            raise ValueError(
                f"moment vector has shape {m.shape}, basis size {self.basis.size}")
        object.__setattr__(self, "moments", m)

    def __call__(self, w) -> complex:
        return complex(self.moments[self.basis.index(tuple(w))])

    def mass(self) -> float:
        """mu(I); real for positive functionals."""
        return float(self.moments[0].real)

    def __add__(self, other: "MomentFunctional") -> "MomentFunctional":
        if self.basis != other.basis:
            raise ValueError("basis mismatch in functional sum")
        return MomentFunctional(self.basis, self.moments + other.moments)

    def __sub__(self, other: "MomentFunctional") -> "MomentFunctional":
        if self.basis != other.basis:
            raise ValueError("basis mismatch in functional difference")
        return MomentFunctional(self.basis, self.moments - other.moments)

    def __mul__(self, c: float) -> "MomentFunctional":
        return MomentFunctional(self.basis, self.moments * c)

    __rmul__ = __mul__

    def restricted(self, M: int) -> "MomentFunctional":
        sub = WordBasis(self.basis.d, M)
        return MomentFunctional(sub, self.moments[:sub.size])


def nc_lebesgue(basis: WordBasis) -> MomentFunctional:
    """The vacuum state: moment 1 at the empty word, 0 elsewhere."""
    m = np.zeros(basis.size, dtype=complex)
    m[0] = 1.0
    return MomentFunctional(basis, m)


def radial_measure(mu: MomentFunctional, r: float) -> MomentFunctional:
    """mu_r(L^a) = r^|a| mu(L^a); its Gram matrix is T_r = Re H_mu(rR)."""
    return MomentFunctional(mu.basis, radial_scale(NCSeries(mu.basis, mu.moments), r).coeffs)


def vector_state(x: FockVector) -> MomentFunctional:
    """m_x(L^w) = <x, L^w x>; always positive.

    Exact on the truncation since x is a genuine polynomial: the moment at
    w is sum_b conj(x_{wb}) x_b over words b with |w| + |b| <= N, which is
    conj(R_x^* x) for R_x right multiplication by x.
    """
    R = TruncatedOperator(x.basis, x.coeffs, "right")
    return MomentFunctional(x.basis, np.conj(R.adjoint_apply(x.coeffs)))


# ---------------------------------------------------------------------------
# Gram matrix and positivity

@dataclass(frozen=True)
class GramMatrix:
    """Hermitian matrix G[a,b] = mu(L^{a*} L^b) under the L-Toeplitz fill rule.

    G[a,b] = mu(g) if b = a.g, conj(mu(g)) if a = b.g, and 0 otherwise.
    """

    basis: WordBasis
    matrix: np.ndarray


def _gram_half(mu: MomentFunctional):
    """Y with G = conj(Y + Y^H): right multiplication by mu with mu(I)/2 at
    the empty word, so Y[b.g, b] = mu(g) = G[b, b.g]."""
    c = mu.moments.copy()
    c[0] = 0.5 * mu.moments[0].real
    return TruncatedOperator(mu.basis, c, "right")


def gram(mu: MomentFunctional) -> GramMatrix:
    """Assemble G = conj(Y) + Y^T from the dense half Y, in place."""
    Y = _gram_half(mu).to_dense()
    G = Y.conj()
    G += Y.T
    return GramMatrix(mu.basis, G)


def _gram_apply(mu: MomentFunctional):
    """v -> G v = conj(Y w + Y^H w), w = conj(v), with Y built once."""
    Y = _gram_half(mu)

    def apply(v: np.ndarray) -> np.ndarray:
        w = np.conj(np.asarray(v, dtype=complex))
        return np.conj(Y.apply(w) + Y.adjoint_apply(w))
    return apply


def _prefix_sweep(mu: MomentFunctional, eps: float, stops):
    """Eliminate eps I + gram(mu) from the leaves of the tree of prefixes,
    yielding its state (D, E) once the grades above each stop are gone.

    G = gram(mu) vanishes on every pair of words neither of which is a
    prefix of the other, since L_i^* L_j = delta_ij I.  Eliminating the
    words of grades N, N-1, ... therefore creates no fill (Parter 1961;
    Rose, Tarjan & Lueker, SIAM J. Comput. 1976), and the entry between a
    word of grade g and its k-th prefix depends only on g and on the
    word's last k letters v, the diagonal only on g: this holds for G,
    whose entry in the prefix's row is mu(v), and eliminating a grade
    keeps it.  Grade g therefore keeps one float D[g], its diagonal less
    eps, and one array E[g] of its entries in the rows of its prefixes,
    k = 1..g in turn: E[g][offsets[k] - 1 + rank(v)].  O(n) numbers,
    read by _prefix_blocks and _prefix_solve alone.

    Eliminating grade g subtracts E_g,j conj(E_g,i) / (eps + D[g]), E_g,k
    the k-th part of E[g], summed over the d^i words below each i-th
    prefix, from the entries between their i-th and j-th prefixes
    (i <= j).  For each i that is one product for all j > i: the parts of
    E[g] beyond the i-th, as a (sum_k d^k) x d^i matrix, times
    conj(E_g,i) / (eps + D[g]) is subtracted from all of E[g - i].
    O(n N) work.

    stops is decreasing; stop -1 eliminates grade 0 too, so that every
    pivot has been checked.  Raises LinAlgError if a pivot is not
    positive.  D and E are updated in place between the yields.
    """
    b = mu.basis
    d, o = b.d, b.offsets - 1
    D = [float(mu.moments[0].real)] * (b.N + 1)
    E = [mu.moments[1:b.offsets[g + 1]].copy() for g in range(b.N + 1)]
    top = b.N
    for stop in stops:
        for g in range(top, stop, -1):
            pivot = D[g] + eps
            if not pivot > 0.0:
                raise np.linalg.LinAlgError(f"pivot {pivot:.3e} at grade {g}")
            for i in range(1, g + 1):
                Ei = E[g][o[i]:o[i + 1]]
                f = Ei.conj() / pivot
                D[g - i] -= float((Ei * f).real.sum())
                E[g - i] -= E[g][o[i + 1]:].reshape(-1, d ** i) @ f
        top = stop
        yield D, E


def _prefix_blocks(mu: MomentFunctional, eps: float, stops, M: int):
    """After each stop of the sweep (_prefix_sweep), its state on the words
    of grade <= M as a new dense matrix with eps kept off the diagonal:
    D[g] there, and E[g]'s entry for a word's last k letters between it
    and its k-th prefix.  Raises LinAlgError if a pivot is not positive."""
    b = mu.basis
    d, o, m = b.d, b.offsets - 1, int(b.offsets[M + 1])
    for D, E in _prefix_sweep(mu, eps, stops):
        X = np.zeros((m, m), dtype=complex)
        for g in range(M + 1):
            rank = np.arange(d ** g)
            w = b.offsets[g] + rank
            X[w, w] = D[g]
            for k in range(1, g + 1):
                p = b.offsets[g - k] + rank // d ** k
                X[p, w] = E[g][o[k] + rank % d ** k]
                X[w, p] = X[p, w].conj()
        yield X


def _prefix_solve(mu: MomentFunctional, eps: float) -> np.ndarray:
    """phi = (eps I + gram(mu))^{-1} 1, from the sweep of every grade down
    through grade 0 (_prefix_sweep) and back-substitution up the grades.

    The right-hand side 1 lives on the root, which is eliminated last, so
    the sweep leaves it as it is and phi(0) = 1/(D[0] + eps).  Each grade
    then follows from its prefixes: phi at a word of grade g is
    -(1/(D[g] + eps)) sum_k conj(E_g,k)[v] phi[p], p its k-th prefix and v
    its last k letters, one outer product per (g, k) on phi_g as a
    d^(g-k) x d^k matrix, prefix by suffix.  Each grade starts from +0.0
    and is divided by its positive pivot last, so no -0.0 is written.
    Raises LinAlgError if a pivot is not positive."""
    b = mu.basis
    d, o = b.d, b.offsets - 1
    (D, E), = _prefix_sweep(mu, eps, (-1,))
    phi = np.zeros(b.size, dtype=complex)
    phi[0] = 1.0 / (D[0] + eps)
    for g in range(1, b.N + 1):
        phi_g = phi[b.grade_slice(g)]
        for k in range(1, g + 1):
            by_prefix = phi_g.reshape(d ** (g - k), d ** k)
            by_prefix -= np.multiply.outer(phi[b.grade_slice(g - k)],
                                           E[g][o[k]:o[k + 1]].conj())
        phi_g /= D[g] + eps
    return phi


@dataclass(frozen=True)
class PositivityReport:
    """Every PSD verdict: min_eigenvalue of a Hermitian matrix on the size
    words of grade <= grade; true when min_eigenvalue >= -tol."""

    min_eigenvalue: float
    grade: int
    size: int
    tol: float

    def __bool__(self) -> bool:
        return self.min_eigenvalue >= -self.tol


def hermitian_floor(A: np.ndarray) -> float:
    """The smallest eigenvalue of the Hermitian part (A + A^H) / 2 of A."""
    return float(np.linalg.eigvalsh(0.5 * (A + A.conj().T)).min())


def is_positive(mu: MomentFunctional, tol: float = 1e-10) -> PositivityReport:
    """PSD verdict of the Gram matrix at the working grade.

    Necessary-condition check only: full positivity would need all grades.
    """
    return PositivityReport(hermitian_floor(gram(mu).matrix), mu.basis.N, mu.basis.size, tol)


# ---------------------------------------------------------------------------
# Clark measure <-> Herglotz transform

def clark_measure(B: NCSeries) -> MomentFunctional:
    """Moments of the NC Clark measure of a Schur-class B.

    mu(empty) = Re H(0) and mu(L^a) = conj(H_{transpose(a)}) / 2 for the
    Cayley transform H of B.  Schur-class membership of B is the caller's
    assertion; only the germ condition |B(0)| < 1 is checked here.
    """
    H = cayley_to_herglotz(B)
    moments = 0.5 * np.conj(H.coeffs[H.basis.transpose_permutation])
    moments[0] = H.coeffs[0].real
    return MomentFunctional(H.basis, moments)


def herglotz_transform(mu: MomentFunctional) -> NCSeries:
    """Taylor coefficients of the NC Herglotz-Riesz transform.

    H(0) = mu(I) and H_a = 2 conj(mu(L^{transpose(a)})) otherwise; the
    imaginary part of H(0) is normalized to zero.
    """
    basis = mu.basis
    coeffs = 2.0 * np.conj(mu.moments[basis.transpose_permutation])
    coeffs[0] = mu.moments[0].real
    return NCSeries(basis, coeffs)


def herglotz_eval(mu: MomentFunctional, Z: MatrixPoint) -> EvalResult:
    """(id_n (x) mu) applied to (I + ZL*)(I - ZL*)^{-1}, truncated.

    The grade-lowering contraction ZL* = sum_k Z_k (x) L_k^* is nilpotent
    on the truncation, so (I - ZL*)^{-1} applied to u = conj(mu) is one
    substitution from the top grade down: X_w = u_w I + sum_k Z_k X_{kw},
    and H = 2 X_empty - u_empty I.  The blocks are kept transposed,
    Y_w = X_w^T = u_w I + sum_k Y_{kw} Z_k^T, so that the words k.w of
    one letter k are a contiguous (d^g n) x n matrix of stacked Y_{kw}:
    each grade and letter is one BLAS product by Z_k^T, added in place
    into the new grade's blocks.  Agrees with
    evaluate(herglotz_transform(mu), Z) exactly through grade N.  It is
    kept independent of evaluate, which extends words on the right
    (X_w from X_{wk}) and splits the trie at mid depth, because the tests
    and the benchmark use each as the cross-check of the other.
    """
    basis = mu.basis
    if Z.d != basis.d:
        raise ValueError(f"point has {Z.d} components, basis expects {basis.d}")
    if Z.row_norm >= 1.0:
        raise ValueError(f"herglotz_eval: row norm {Z.row_norm:.6g} >= 1")
    d, N, n = basis.d, basis.N, Z.n
    u = np.conj(mu.moments)
    u[0] = mu.moments[0].real  # Im H(0) = 0 gauge
    eye = np.eye(n, dtype=complex)
    ZT = [Zk.T for Zk in Z.Z]
    Y = u[basis.grade_slice(N)][:, None, None] * eye
    for g in range(N - 1, -1, -1):
        ext = Y.reshape(d, d ** g * n, n)  # Y at the words k.w, as [k, (w, row)]
        Y = u[basis.grade_slice(g)][:, None, None] * eye
        flat = Y.reshape(d ** g * n, n)
        for k in range(d):
            flat += ext[k] @ ZT[k]
    H = 2.0 * Y[0].T - u[0] * eye
    rho = Z.row_norm
    tail = 2.0 * abs(mu.moments[0]) * rho ** (N + 1) / (1.0 - rho)
    return EvalResult(H, float(tail))


# ---------------------------------------------------------------------------
# sum-of-squares split

def sos_split(p: FockVector) -> NCSeries:
    """The series u with p(L)* p(L) = u(L) + u(L)*.

    u_g = sum_a conj(p_a) p_{a.g} for g nonempty and u at the empty word is
    half the coefficient energy, so mu(p*p) = 2 Re sum_g u_g mu(L^g) for
    every moment functional on the same basis.  u is L_p^* p, with L_p
    left multiplication by p.
    """
    u = TruncatedOperator(p.basis, p.coeffs).adjoint_apply(p.coeffs)
    u[0] = 0.5 * u[0].real
    return NCSeries(p.basis, u)


def quadratic_form(mu: MomentFunctional, p: FockVector) -> float:
    """q_mu(p, p) = mu(p* p) evaluated through the Gram matrix."""
    v = _gram_apply(mu)(p.coeffs)
    return float(np.vdot(p.coeffs, v).real)


# ---------------------------------------------------------------------------
# file format: CSV with header word,re,im; the file must contain "e"

def read_moments_csv(path, basis: WordBasis) -> MomentFunctional:
    values = read_word_csv(path, basis)
    if 0 not in values:
        raise ValueError("moment file must contain the unit word 'e'")
    moments = np.zeros(basis.size, dtype=complex)
    for i, c in values.items():
        moments[i] = c
    return MomentFunctional(basis, moments)
