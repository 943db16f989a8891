"""The Poisson transform T_r, regularized resolvents, and the coupled (r, N) limit.

The strong-resolvent limit lives on the infinite-dimensional space; at a
fixed truncation N, letting r -> 1 gives wrong answers (the resolvent of
the all-ones Poisson block tends to I - J/(N+2) instead of I).  The
schedule therefore couples r_j = 1 - 2^{-j} to a truncation N_j with
r_j^{N_j} <= tail_tol, which keeps the corner of the truncated resolvent
close to the corner of the untruncated one.

T_r = Re H_mu(rR) is the NC Poisson transform of mu, so it is the
L-Toeplitz Gram matrix of mu_r(L^a) = r^|a| mu(L^a) (radial_measure) and
depends on the measure alone.  rn_derivative therefore converts its
source to moments once, before the first stage: a Schur symbol B becomes
its Clark measure on the highest grade that M, deg B or a stage other
than a matrix-free one needs, and every such stage takes mu_r on its own
basis.

The Radon-Nikodym compression is recovered from resolvents, never from
T_r directly.  Each stage returns two m_out x m_out blocks on the words
o of grade <= M: T_hat = S[o, o] - eps I, S = (P_m Delta_r(eps) P_m)^{-1}
on an enlarged recovery corner of m words (grade M + buffer), the Schur
complement of eps I + T_r in the words beyond it (Golub & Van Loan,
Matrix Computations, ch. 4), whose systematic deficit the buffer pushes
below tolerance for symbols whose moments decay; and the corner
P_o Delta_r(eps) P_o, whose (0, 0) entry is the vacuum delta.  One of
three stage modes forms them:

- elimination (d >= 2, at every size but a Schur symbol's beyond
  DENSE_LIMIT words): T_r vanishes on every pair of words neither of
  which is a prefix of the other, so eliminating grades N, N-1, ...
  creates no fill: O(n) numbers and O(n N) work, no dense matrix
  (measure._prefix_sweep, which outer_factor runs to grade 0).
  The sweep stops at the recovery grade for T_hat and goes on to grade
  M, where the corner is the inverse of the block it leaves.  A d = 1
  stage whose corner is the whole truncated basis (m = n) leaves no word
  beyond it and takes this route too;
- Toeplitz (d = 1): eps I + T_r is the Toeplitz operator of the symbol
  s = eps + Re H(r e^{it}) > 0, and s = |y|^2 with y = exp(A), A = P_+
  log s (Szego-Kolmogorov), from two real FFTs of the moments of mu_r.
  On the untruncated operator eps I + T_r = Y^H Y, Y lower triangular,
  so S = Y_m^H Y_m, and Delta_r(eps) = V V^H with V = Y^{-1} the
  Toeplitz operator of v = 1/y = exp(-A): the corner is V_o V_o^H and
  the vacuum delta |v_0|^2 = exp(-int log s), the reciprocal geometric
  mean of s.  No solve and no truncation at grade N;
- matrix-free (a Schur symbol B on a d >= 2 basis of more than
  DENSE_LIMIT words, which the stage takes in place of mu_r): the corner
  c by CG, one column at a time, and T_hat from its inverse.  K = I -
  B(rR) is lower triangular by grade, so on the truncation eps I + T_r =
  K_N^{-*} A K_N^{-1}, A = (1 + eps) I - eps (B_N + B_N^*) + (eps - 1)
  B_N^* B_N of grade band deg B, and column j is K_N y with A y = K_N^*
  e_j: CG runs on the banded A, on the grades its Krylov vectors reach,
  and no triangular solve runs.

The eps cross-check reruns the same stage at each extra eps and keeps
its T_hat.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .fock import FockVector, TruncatedOperator, toeplitz
from .measure import (MomentFunctional, PositivityReport, _prefix_blocks, clark_measure,
                      gram, hermitian_floor, is_positive, nc_lebesgue, radial_measure,
                      vector_state)
from .series import NCSeries, radial_scale, series_at_right_shifts, transpose_conjugate
from .words import WordBasis, word_count


# ---------------------------------------------------------------------------
# schedules

#: Bytes per word of a basis that a run is taken to hold: four complex
#: vectors of the basis size.  The memory budget of Schedule.coupled and
#: the config check against physical memory (cli.validate) both count it.
_WORD_BYTES = 16.0 * 4.0


@dataclass(frozen=True)
class Schedule:
    """List of (r, N) stages with r increasing toward 1."""

    stages: tuple
    achieved_r_max: float

    @staticmethod
    def coupled(d: int, tail_tol: float = 1e-8, j_max: int = 10, j_min: int = 1,
                memory_budget_mb: float = 512.0) -> "Schedule":
        """r_j = 1 - 2^{-j} with N_j chosen so that r_j^{N_j} <= tail_tol.

        For d >= 2 the truncation is capped by the memory budget and r is
        capped accordingly (r^N_cap <= tail_tol), reporting the achieved
        r_max rather than erroring, as long as at least one stage fits.
        """
        if not 0 < tail_tol < 1:
            raise ValueError(f"tail_tol must be in (0,1), got {tail_tol}")
        if j_min < 1 or j_max < j_min:
            raise ValueError(f"bad schedule range j_min={j_min}, j_max={j_max}")
        budget_coeffs = memory_budget_mb * 2 ** 20 / _WORD_BYTES
        if d == 1:
            n_cap = min(int(budget_coeffs) - 1, 2_000_000)
        else:
            n_cap = 0
            while word_count(d, n_cap + 1) <= budget_coeffs:
                n_cap += 1
        if n_cap < 1:
            raise ValueError(
                f"schedule infeasible: memory budget {memory_budget_mb} MB cannot "
                f"hold even a grade-1 basis for d={d}")
        r_cap = tail_tol ** (1.0 / n_cap)
        stages = []
        for j in range(j_min, j_max + 1):
            r = 1.0 - 0.5 ** j
            if r > r_cap:
                r = r_cap
            N = int(np.ceil(np.log(tail_tol) / np.log(r)))
            N = min(N, n_cap)
            if not stages or (r, N) != stages[-1]:
                stages.append((r, N))
        return Schedule(tuple(stages), achieved_r_max=stages[-1][0])

    @staticmethod
    def explicit(stages) -> "Schedule":
        stages = tuple((float(r), int(N)) for r, N in stages)
        if not stages:
            raise ValueError("a schedule needs at least one stage")
        for r, N in stages:
            if not 0 < r < 1:
                raise ValueError(f"radius {r} outside (0,1)")
            if N < 0:
                raise ValueError(f"negative truncation grade {N}")
        return Schedule(stages, achieved_r_max=max(r for r, _ in stages))

    def max_grade(self) -> int:
        return max(N for _, N in self.stages)


# ---------------------------------------------------------------------------
# stage routes

#: A Schur symbol on a d >= 2 basis of more words runs the matrix-free
#: stage (CG).  Every other stage takes mu_r, at every size.
DENSE_LIMIT = 2048
#: the matrix-free stage's CG tolerance and iteration cap per corner column,
#: and the tolerance of rn_derivative's positivity check of mu_ac
_CG_TOL = 1e-10
_CG_MAXITER = 2000
_POSITIVITY_TOL = 1e-6


# ---------------------------------------------------------------------------
# resolvents

def hermitian_cg(matvec, b: np.ndarray, tol: float = 1e-10,
                 maxiter: int = 2000, m: int | None = None,
                 size: int | None = None) -> tuple:
    """Conjugate gradients for Hermitian positive definite systems.

    The stopping rule is on the relative residual ||b - A x|| / ||b||.
    Returns (x, iterations, relative_residual); raises RuntimeError on
    non-convergence or breakdown (p^H A p not finite and positive, or a
    non-finite residual) so that failed solves are never silently used.
    With size, the system has size unknowns and b gives the first len(b)
    entries of its right-hand side, zero beyond; matvec gets the first k
    entries of p, all that can be nonzero, and returns A p on its first
    k' >= k, zero beyond, and res and p grow to k' entries: for an operator
    of grade band q (_cg_corner's) and b through grade g, iteration i works
    on the words of grade <= g + i q alone.  Without size, every vector has
    len(b) entries.  With m (at most len(b)), x is formed on the first m
    words alone: the iteration reads only res and p, so these are the first
    m entries of the whole x, bit for bit, with the same iterations and
    residual.  CG overwrites matvec's result (alpha Ap for res, then p
    alpha for x, not a BLAS axpy, whose fused multiply-add can round
    differently), so it may be a reused buffer; a result that shares memory
    with matvec's argument is copied.
    """
    n, k = (len(b) if size is None else size), len(b)
    if m is not None and m > k:
        raise ValueError(f"x on {m} words needs b on at least as many, got {k}")
    res = np.zeros(n, dtype=complex)  # x, res and p are updated in place
    res[:k] = b
    x = np.zeros(n if m is None else m, dtype=complex)
    p = np.zeros(n, dtype=complex)
    p[:k] = res[:k]
    rs = float(np.vdot(res[:k], res[:k]).real)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, 0, 0.0
    for it in range(1, maxiter + 1):
        Ap = matvec(p[:k])
        if not k <= len(Ap) <= n:
            raise ValueError(f"matvec returned {len(Ap)} words for {k} of {n}")
        if np.may_share_memory(Ap, p):
            Ap = Ap.copy()
        pAp = float(np.vdot(p[:k], Ap[:k]).real)
        if not np.isfinite(pAp) or pAp <= 0.0:
            raise RuntimeError(
                f"CG breakdown at iteration {it}: p^H A p = {pAp:.3e}, "
                "operator not positive definite")
        alpha = rs / pAp
        mx = min(k, len(x))
        k = len(Ap)
        res[:k] -= np.multiply(Ap, alpha, out=Ap)
        x[:mx] += np.multiply(p[:mx], alpha, out=Ap[:mx])
        rs_new = float(np.vdot(res[:k], res[:k]).real)
        if not np.isfinite(rs_new):
            raise RuntimeError(f"CG breakdown at iteration {it}: non-finite residual")
        if np.sqrt(rs_new) <= tol * bnorm:
            return x, it, np.sqrt(rs_new) / bnorm
        p[:k] *= rs_new / rs
        p[:k] += res[:k]
        rs = rs_new
    raise RuntimeError(
        f"CG did not converge in {maxiter} iterations "
        f"(relative residual {np.sqrt(rs) / bnorm:.3e})")


def _herm(X: np.ndarray) -> np.ndarray:
    return 0.5 * (X + X.conj().T)


def _eliminate(mu_r: MomentFunctional, r: float, eps: float, m: int, m_out: int) -> tuple:
    """T_hat and the grade-M corner of an elimination stage at radius r,
    in O(n N) work on O(n) numbers.

    m and m_out count the words of grade <= M_rec and <= M.  T_r is the
    Gram matrix of mu_r, and one sweep of eps I + T_r on the tree of
    prefixes (measure._prefix_sweep, whose docstring gives its state) runs
    in two legs, with eps kept off its diagonal, so that it works on
    S - eps I: after grades N..M_rec + 1 the grade-M block
    (measure._prefix_blocks) is T_hat; after grades M_rec..M + 1 it is
    the inverse of the corner less eps I.  Raises LinAlgError if a pivot
    is not positive.
    """
    b = mu_r.basis
    grade_rec, M = (int(np.searchsorted(b.offsets, k)) - 1 for k in (m, m_out))
    try:
        T, C = _prefix_blocks(mu_r, eps, (grade_rec, M), M)
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(
            f"eps I + T_r is not positive definite at r = {r!r}: {err}") from None
    C[np.diag_indices_from(C)] += eps
    return T, _inverse_corner(C, m_out)


def _exp_series(a: np.ndarray, m: int) -> np.ndarray:
    """The first m coefficients of exp(a(z)), from a[:m]: y' = a' y gives
    j y_j = sum_{k=1..j} k a_k y_{j-k} (Knuth, TAOCP vol. 2, 4.7)."""
    ka = np.arange(m) * a[:m]
    y = np.empty(m, dtype=complex)
    y[0] = np.exp(a[0])
    for j in range(1, m):
        y[j] = ka[1:j + 1] @ y[j - 1::-1] / j
    return y


def _spectral_block(mu_r: MomentFunctional, r: float, eps: float, m: int,
                    m_out: int) -> tuple:
    """T_hat and the grade-M corner of the untruncated d = 1 operator at
    radius r (the Toeplitz mode above), in O(G log G + m^2).

    s is read off the moments of mu_r on G points by one real FFT, G the
    smallest of 2^k, 3 2^k and 5 2^k >= 2n - 1 (irfft reads the real part
    of mu_r(I) alone), and A = P_+ log s, the analytic half of the
    cepstrum with a_0 halved, by a second (Oppenheim & Schafer, ch. 13);
    y[:m] and v[:m_out] are the power-series exponentials of A and -A.
    Raises RuntimeError if s is not positive on the grid.
    """
    n = mu_r.basis.size
    G = min(c << ((2 * n - 2) // c).bit_length() for c in (1, 3, 5))
    s = G * np.fft.irfft(mu_r.moments, G) + eps
    if not s.min() > 0.0:
        raise RuntimeError(
            f"symbol eps + Re H(r e^it) is not positive at r = {r!r}, "
            f"N = {n - 1}: min s = {s.min():.3e}")
    a = np.fft.rfft(np.log(s))[:m].conj() / G
    a[0] *= 0.5
    Y = toeplitz(_exp_series(a, m), np.zeros(m))
    V = toeplitz(_exp_series(-a, m_out), np.zeros(m_out))
    return (_herm((Y.conj().T @ Y)[:m_out, :m_out]) - eps * np.eye(m_out),
            _herm(V @ V.conj().T))


def _inverse_corner(S: np.ndarray, k: int) -> np.ndarray:
    """(S^{-1})[:k, :k] = X^H X with X = L^{-1} E_k, from S = L L^H
    (np.linalg.cholesky, which raises LinAlgError if S is not positive
    definite) and one np.linalg.solve for X; Hermitized."""
    L = np.linalg.cholesky(S)
    X = np.linalg.solve(L, np.eye(len(L), k))
    return _herm(X.conj().T @ X)


def _stage(op, r: float, eps: float, m: int, m_out: int) -> tuple:
    """(T_hat, corner, solver) of one stage at radius r and at eps, on a
    recovery corner of m words and an output block of m_out; solver holds
    StageRecord's mode and, if matrix-free, its CG fields.

    op is mu_r, or a Schur symbol B (an NCSeries) on a d >= 2 basis of
    more than DENSE_LIMIT words, which runs CG.  A measure is eliminated
    at d >= 2, and at d = 1 when the corner is the whole basis (m = n),
    which leaves no word beyond it; any other d = 1 measure goes to the
    Toeplitz symbol.
    """
    if isinstance(op, NCSeries):
        c, iters, residual = _cg_corner(op, r, eps, m)
        return (_herm(np.linalg.inv(c)[:m_out, :m_out]) - eps * np.eye(m_out),
                c[:m_out, :m_out],
                {"mode": "matrix-free", "cg_iterations": iters, "cg_residual": residual})
    if op.basis.d > 1 or m == op.basis.size:
        return (*_eliminate(op, r, eps, m, m_out), {"mode": "elimination"})
    return (*_spectral_block(op, r, eps, m, m_out), {"mode": "toeplitz"})


def _cg_corner(B: NCSeries, r: float, eps: float, m: int) -> tuple:
    """The matrix-free corner of the Schur symbol B at radius r: the first
    m columns of (eps I + T_r)^{-1} on the truncated basis, on the corner
    words, by CG on the banded form of eps I + T_r.

    K = I - B(rR) is lower triangular by grade, so the compression of
    K^{-1} is K_N^{-1}, and T_r = K^{-1} + K^{-*} - I gives eps I + T_r =
    K_N^{-*} A K_N^{-1} on the truncation, with A = K_N + K_N^* + (eps - 1)
    K_N^* K_N = (1 + eps) I - eps (B_N + B_N^*) + (eps - 1) B_N^* B_N of
    grade band q = deg B.  Column j is x = K_N y with A y = K_N^* e_j,
    solved by CG to _CG_TOL.  K_N^* e_j lives on the m corner words, of
    grade <= M_rec, so CG's k-th residual and direction live on the words
    of grade <= M_rec + k q, and each iteration works on those alone
    (hermitian_cg's size): only the last iterations touch the whole basis,
    and no triangular solve runs.  x on the corner words needs y on them
    alone (hermitian_cg's m).  A v = K v + K^* (v + (eps - 1) K v) is
    formed in two work rows, which CG scales in place, so a corner holds
    four basis rows: those two and CG's res and p.  Returns (Hermitized
    corner, iteration counts, largest final relative residual of A y =
    K_N^* e_j).
    """
    if m > 256:
        raise ValueError(
            f"matrix-free corner extraction with {m} columns is not "
            "practical; use a smaller corner")
    basis = B.basis
    support = WordBasis(basis.d, B.degree())
    k = -radial_scale(NCSeries(support, B.coeffs[:support.size]), r).coeffs
    k[0] += 1.0
    K = TruncatedOperator(basis, k[support.transpose_permutation], "right")
    work = np.empty((2, basis.size), dtype=complex)

    def matvec(v):
        Kv = K.apply(v, out=work[0])
        if eps == 1.0:
            Av, spare = Kv, work[1]
        else:
            Av = K.adjoint_apply(Kv, out=work[1])
            Av *= eps - 1.0
            Av += Kv
            spare = work[0]
        Av[:len(v)] += K.adjoint_apply(v, out=spare)
        return Av

    corner = np.zeros((m, m), dtype=complex)
    e = np.zeros(m, dtype=complex)
    iters, residual = [], 0.0
    for j in range(m):
        e[j] = 1.0
        y, it, rel = hermitian_cg(matvec, K.adjoint_apply(e), tol=_CG_TOL, maxiter=_CG_MAXITER,
                                  m=m, size=basis.size)
        corner[:, j] = K.apply(y)[:m]
        iters.append(it)
        residual = max(residual, float(rel))
        e[j] = 0.0
    return _herm(corner), tuple(iters), residual


# ---------------------------------------------------------------------------
# the coupled limit

@dataclass(frozen=True)
class StageRecord:
    """One stage of the coupled limit; mode ('elimination', 'toeplitz' or
    'matrix-free', as _stage routed it), words (the basis size),
    cg_residual (the largest final relative CG residual of A y = K_N^* e_j
    over the corner columns, _cg_corner's banded form; 0.0 if direct) and
    seconds (the stage's wall time, forming its mu_r, or its symbol
    on the stage basis, included) enter no CSV."""

    r: float
    N: int
    words: int
    mode: str
    vacuum_delta: float
    mass: float
    increment: float
    seconds: float
    cg_iterations: tuple = ()
    cg_residual: float = 0.0


@dataclass(frozen=True)
class RNResult:
    """Output of the coupled (r, N) resolvent limit.

    T_compression is the recovered Radon-Nikodym compression on words of
    length <= M; mu_ac its moment functional read off the vacuum row, and
    mu_s = mu - mu_ac exactly.  Each stage recovers T on an enlarged
    corner, but only its grade-M block is formed and kept.
    """

    d: int
    M: int
    eps_grid: tuple
    primary_eps: float
    T_compression: np.ndarray
    mu: MomentFunctional
    mu_ac: MomentFunctional
    mu_s: MomentFunctional
    stages: tuple
    eps_consistency: float
    achieved_r_max: float
    mass_strictly_decreasing: bool
    vacuum_strictly_increasing: bool
    singular: bool
    positivity_ac: PositivityReport

    @property
    def mass_trend(self) -> np.ndarray:
        return np.array([s.mass for s in self.stages])


def rn_derivative(source, *, M: int = 8, eps_grid=(0.25, 1.0),
                  schedule: Schedule | None = None, recovery_buffer: int = 8,
                  singular_tol: float = 0.05) -> RNResult:
    """Recover the NC Radon-Nikodym compression by the resolvent limit.

    source is either a Schur-class NCSeries (the symbol B) or a positive
    MomentFunctional with moments through the largest scheduled grade.
    It becomes moments mu once, before the first stage: B becomes its
    Clark measure (germ |B(0)| < 1 checked) on the highest grade that M,
    deg B or a stage other than a matrix-free one needs; a moment source
    is used as given.  For each stage, T_stage = (P Delta_r(eps) P)^{-1}
    - eps I is recovered on the words of grade <= M + recovery_buffer;
    every stage of the schedule runs, and each records the max-norm
    change of its grade-M resolvent corner from the stage before
    (StageRecord.increment); schedule defaults to Schedule.coupled(d).
    Each stage (_stage) returns the grade-M block of T_stage and the
    grade-M corner, whose (0, 0) entry is the vacuum delta, from mu_r =
    radial_measure(mu, r) on its basis: at d >= 2 by one elimination over
    grades (_eliminate), O(n N) work on O(n) numbers with no dense T_r; at
    d = 1 from the outer factor y of the symbol and from 1/y on the
    untruncated operator (_spectral_block), which raises RuntimeError if
    the symbol is not positive, unless the recovery corner is the whole
    basis (m_rec = n) and the stage is eliminated.  A Schur symbol on a
    d >= 2 basis of more than DENSE_LIMIT words takes B itself, reads its
    corner by CG on the banded form of eps I + T_r (_cg_corner, each column
    to _CG_TOL) and T_stage from its inverse.
    The reported T_hat comes from the smallest eps in the grid (least
    upward bias on near-singular directions); the other grid values only
    feed the eps-consistency cross-check, which reruns the last stage at
    each of them and keeps its T_hat.
    """
    if not isinstance(source, (NCSeries, MomentFunctional)):
        raise TypeError(f"source must be NCSeries or MomentFunctional, got {type(source)}")
    d = source.basis.d
    if M < 0:
        raise ValueError(f"M must be >= 0, got {M}")
    if recovery_buffer < 0:
        raise ValueError(f"recovery_buffer must be >= 0, got {recovery_buffer}")
    eps_grid = tuple(sorted(float(e) for e in eps_grid))
    if not eps_grid or eps_grid[0] <= 0:
        raise ValueError(f"eps grid must be positive, got {eps_grid}")
    primary = eps_grid[0]
    if schedule is None:
        schedule = Schedule.coupled(d)
    if any(N < M for _, N in schedule.stages):
        raise ValueError("schedule stage grade below the output grade M")

    grades = [N for _, N in schedule.stages]
    mu, cg = source, set()
    if isinstance(source, NCSeries):
        deg = source.degree()
        if deg > min(grades):
            raise ValueError(f"symbol degree {deg} exceeds stage grade {min(grades)}")
        cg = {N for N in grades if d > 1 and word_count(d, N) > DENSE_LIMIT}
        top = max([M, deg] + [N for N in grades if N not in cg])
        mu = clark_measure(NCSeries.from_dict(WordBasis(d, top), dict(source.support())))
    elif source.basis.N < max(grades):
        raise ValueError(
            f"schedule stage needs moments through grade {max(grades)}, "
            f"functional only reaches {source.basis.N}")

    m_out = word_count(d, M)

    records = []
    prev = None
    for (r, N) in schedule.stages:
        start = time.perf_counter()
        if N in cg:
            op = NCSeries.from_dict(WordBasis(d, N), dict(source.support()))
        else:
            op = radial_measure(mu.restricted(N), r)
        m_rec = word_count(d, min(M + recovery_buffer, N))
        T_hat, corner, solver = _stage(op, r, primary, m_rec, m_out)
        seconds = time.perf_counter() - start
        increment = np.inf if prev is None else float(np.abs(corner - prev).max())
        records.append(StageRecord(
            r=r, N=N, words=op.basis.size, vacuum_delta=float(corner[0, 0].real),
            mass=float(T_hat[0, 0].real), increment=increment, seconds=seconds,
            **solver))
        prev = corner

    # cross-check the recovery against the other resolvent parameters
    eps_consistency = 0.0
    blocks = {primary: T_hat}
    for eps in eps_grid[1:]:
        blocks[eps] = _stage(op, r, eps, m_rec, m_out)[0]
    for ea in eps_grid:
        for eb in eps_grid:
            if ea < eb:
                eps_consistency = max(eps_consistency, float(
                    np.abs(blocks[ea] - blocks[eb]).max()))

    basis_M = WordBasis(d, M)
    mu = mu.restricted(M)
    moments_ac = T_hat[0, :].copy()
    moments_ac[0] = moments_ac[0].real
    mu_ac = MomentFunctional(basis_M, moments_ac)
    mu_s = mu - mu_ac

    masses = [rec.mass for rec in records]
    vacua = [rec.vacuum_delta for rec in records]
    decreasing = len(masses) > 1 and all(b < a for a, b in zip(masses, masses[1:]))
    increasing = len(vacua) > 1 and all(b > a for a, b in zip(vacua, vacua[1:]))
    singular = decreasing and masses[-1] < singular_tol

    return RNResult(
        d=d, M=M, eps_grid=eps_grid, primary_eps=primary,
        T_compression=T_hat,
        mu=mu, mu_ac=mu_ac, mu_s=mu_s, stages=tuple(records),
        eps_consistency=eps_consistency,
        achieved_r_max=schedule.achieved_r_max,
        mass_strictly_decreasing=decreasing,
        vacuum_strictly_increasing=increasing, singular=singular,
        positivity_ac=is_positive(mu_ac, tol=_POSITIVITY_TOL))


# ---------------------------------------------------------------------------
# PSD form checks

def majorant_check(B: NCSeries, x: NCSeries, r: float, M: int) -> PositivityReport:
    """Positivity of 1 + mu_r - m_y on the grade <= M words: the
    harmonic-majorant inequality I + T_r >= x(rR)* x(rR), compressed to
    grade M, for mu_r the radial Clark measure of B and m_y the vector
    state of y, the transpose of the rescaled x.

    x must come from the outer factorization of I + T_tau for a positive
    measure tau dominated by the Clark measure of B; then the inequality
    holds up to numerical error.  gram is linear in the functional and
    gram(vacuum) = I, so the compression is the Gram matrix of
    1 + mu_r - m_y, one is_positive at tol 0.

    Both terms are exact compressions of the operators on the full Fock
    space.  K = I - B(rR) is block lower-triangular in the graded-lex
    basis, so mu_r depends on B only through grade M and is formed on the
    grade-M basis.  x(rR) is right multiplication by y, a polynomial, so
    <x(rR) e_a, x(rR) e_b> = m_y(L^{a*} L^b), read on x's own basis with
    no truncation at grade N.
    """
    if min(B.basis.N, x.basis.N) < M:
        raise ValueError(f"B and x must reach grade M = {M}, "
                         f"got grades {B.basis.N} and {x.basis.N}")
    basis = WordBasis(B.basis.d, M)
    mu_r = radial_measure(clark_measure(NCSeries(basis, B.coeffs[:basis.size])), r)
    y = FockVector(x.basis, transpose_conjugate(radial_scale(x, r)).coeffs)
    return is_positive(nc_lebesgue(basis) + mu_r - vector_state(y).restricted(M), tol=0.0)


def fatou_form_check(B: NCSeries, T_moments: MomentFunctional, M: int) -> PositivityReport:
    """Floor of 2(I - Re B(R)) - (I - B(R))*(I + T)(I - B(R)) at grade <= M.

    T_moments must reach grade M + deg(B) so that every product stays
    inside the working basis and the compression is exact.
    """
    d = B.basis.d
    deg = B.degree()
    need = M + deg
    if T_moments.basis.N < need:
        raise ValueError(
            f"need T moments through grade {need} for an exact check, "
            f"got {T_moments.basis.N}")
    if T_moments.basis.d != d:
        raise ValueError("B and T moments have mismatched alphabet sizes")
    basis = WordBasis(d, need)
    B_loc = NCSeries.from_dict(basis, dict(B.support()))
    Bop = series_at_right_shifts(B_loc).to_dense()
    T_hat = gram(T_moments.restricted(need)).matrix
    eye = np.eye(basis.size)
    lhs = 2.0 * (eye - 0.5 * (Bop + Bop.conj().T))
    rhs = (eye - Bop).conj().T @ (eye + T_hat) @ (eye - Bop)
    m = basis.sub_basis_size(M)
    return PositivityReport(hermitian_floor((lhs - rhs)[:m, :m]), M, m, 0.0)
