"""Truncated NC power series: graded arithmetic, evaluation, multipliers, kernels.

All series operations are exact grade-by-grade through the truncation; only
evaluation at matrix points carries an analytic truncation error, and that
tail bound is always returned with the value, never dropped.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .fock import TruncatedOperator
from .words import Word, WordBasis, reversals, word_from_str

#: Germ conditions use strict inequalities with no tolerance; exact boundary
#: germs are rejected as degenerate.
_GERM_MSG = "germ condition violated: {}"

#: Real entries per block of NCSeries.degree's scan from the end.
_SCAN_BLOCK = 1 << 14


@dataclass(frozen=True)
class NCSeries:
    """Truncated NC power series sum_{|a| <= N} c_a Z^a over a word basis.

    norm() and degree() are computed once per series; the first call
    makes coeffs read-only, so that an in-place write after it raises
    instead of leaving a stale value.  one() and from_dict() know their
    degree from the words they write, so they return read-only
    coefficients and degree() scans nothing.
    """

    basis: WordBasis
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=complex)
        if c.shape != (self.basis.size,):
            raise ValueError(
                f"coefficient vector has shape {c.shape}, basis size {self.basis.size}")
        object.__setattr__(self, "coeffs", c)

    @staticmethod
    def zero(basis: WordBasis) -> "NCSeries":
        return NCSeries(basis, np.zeros(basis.size, dtype=complex))

    @staticmethod
    def one(basis: WordBasis) -> "NCSeries":
        c = np.zeros(basis.size, dtype=complex)
        c[0] = 1.0
        return NCSeries(basis, c)._known_degree(0)

    @staticmethod
    def from_dict(basis: WordBasis, entries: dict) -> "NCSeries":
        """The series with the given {word: value} entries, zero elsewhere;
        its degree is the longest word with a nonzero value, NaN included."""
        c = np.zeros(basis.size, dtype=complex)
        degree = 0
        for w, v in entries.items():
            i = basis.index(tuple(w))
            c[i] = v
            if c[i] != 0:  # -0.0 is not, NaN is
                degree = max(degree, len(w))
        return NCSeries(basis, c)._known_degree(degree)

    def _known_degree(self, degree: int) -> "NCSeries":
        """Cache degree() as given, making coeffs read-only as its scan does."""
        self.coeffs.setflags(write=False)
        self.__dict__["_degree"] = degree
        return self

    def coefficient(self, w: Word) -> complex:
        return complex(self.coeffs[self.basis.index(w)])

    def constant_term(self) -> complex:
        return complex(self.coeffs[0])

    def degree(self, floor: float = 0.0) -> int:
        """Largest grade with a coefficient of modulus > floor (floor >= 0);
        a NaN coefficient counts as above every floor."""
        if floor > 0:
            above = np.flatnonzero(~(self._grade_max <= floor))  # NaN max: above
            return int(above[-1]) if above.size else 0
        return self._degree

    @cached_property
    def _degree(self) -> int:
        """Grade of the last nonzero coefficient: blocks of the real view
        are scanned from the end, so a nonzero top grade reads one block."""
        self.coeffs.setflags(write=False)
        v = self.coeffs.view(float)
        for stop in range(len(v), 0, -_SCAN_BLOCK):
            start = max(0, stop - _SCAN_BLOCK)
            block = v[start:stop]
            if block.any():  # NaN is nonzero, -0.0 is not
                last = (start + int(np.flatnonzero(block)[-1])) // 2
                return int(np.searchsorted(self.basis.offsets, last, side="right")) - 1
        return 0

    @cached_property
    def _grade_max(self) -> np.ndarray:
        """Largest coefficient modulus of each grade."""
        self.coeffs.setflags(write=False)
        return np.maximum.reduceat(np.abs(self.coeffs), self.basis.offsets[:-1])

    def support(self):
        """Yield (word, coefficient) over exactly-nonzero entries."""
        for i in np.flatnonzero(self.coeffs):
            yield self.basis.word(int(i)), complex(self.coeffs[i])

    def norm(self) -> float:
        return self._norm

    @cached_property
    def _norm(self) -> float:
        """Over the coefficients through degree(), the last nonzero grade:
        one contiguous einsum pass over their real view, summed in a fixed
        order that no BLAS thread count changes."""
        self.coeffs.setflags(write=False)
        v = self.coeffs[:self.basis.sub_basis_size(self.degree())].view(float)
        return float(np.sqrt(np.einsum("i,i", v, v)))


def invert(f: NCSeries) -> NCSeries:
    """Multiplicative inverse through grade N; requires a nonzero germ.

    h solves f h = 1 by forward substitution over grades,
    h_n = -(1/c) sum_{j >= 1} f_j h_{n-j} with c the germ, exact on the
    truncation (one TruncatedOperator.solve; at d = 1 a substitution by
    blocks).
    """
    if f.coeffs[0] == 0:
        raise ValueError(_GERM_MSG.format("series has zero constant term, not invertible"))
    one = NCSeries.one(f.basis).coeffs
    return NCSeries(f.basis, TruncatedOperator(f.basis, f.coeffs).solve(one))


def radial_scale(f: NCSeries, r: float) -> NCSeries:
    """Coefficient rescaling c_a -> c_a r^{|a|} for 0 < r < 1."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"radial parameter must lie in (0,1), got {r}")
    basis = f.basis
    scale = r ** np.arange(basis.N + 1)
    if basis.d > 1:  # at d = 1 every grade holds one word
        scale = np.repeat(scale, np.diff(basis.offsets))
    return NCSeries(basis, f.coeffs * scale)


def transpose_conjugate(f: NCSeries) -> NCSeries:
    """The series with coefficient at a given word taken from its reversal."""
    return NCSeries(f.basis, f.coeffs[f.basis.transpose_permutation])


def cayley_to_herglotz(B: NCSeries) -> NCSeries:
    """(1 - B)^{-1}(1 + B); requires |B's germ| < 1 strictly."""
    if abs(B.constant_term()) >= 1.0:
        raise ValueError(_GERM_MSG.format(
            f"|B(0)| = {abs(B.constant_term()):.6g} >= 1"))
    return _cayley(B, 1.0)


def cayley_to_schur(H: NCSeries) -> NCSeries:
    """(H + 1)^{-1}(H - 1); requires Re H(0) > -1 strictly."""
    if H.constant_term().real <= -1.0:
        raise ValueError(_GERM_MSG.format(
            f"Re H(0) = {H.constant_term().real:.6g} <= -1"))
    return _cayley(H, -1.0)


def _cayley(f: NCSeries, s: float) -> NCSeries:
    """s (1 - s f)^{-1}(1 + s f) = (1 - s f)^{-1} 2s - s, since
    1 + s f = 2 - (1 - s f): one graded solve against the vacuum times
    2s (a one-entry right-hand side), with 1 - s f cut at the degree of
    f, and no product.  2s = +-2 is a power of two, so every product and
    difference of the substitution scales exactly: the bits are those of
    2s times the solve against the vacuum, without a pass to scale it.
    s = 1 maps B to H, s = -1 maps H back to B."""
    k = f.coeffs[:f.basis.sub_basis_size(f.degree())] * -s
    k[0] += 1.0
    h = TruncatedOperator(f.basis, k).solve(np.full(1, 2.0 * s, dtype=complex))
    h[0] -= s
    return NCSeries(f.basis, h)


# ---------------------------------------------------------------------------
# matrix points and evaluation

class EvalResult(NamedTuple):
    """Truncated value together with a geometric bound on the dropped tail."""

    value: np.ndarray
    tail: float


@dataclass(frozen=True)
class MatrixPoint:
    """A d-tuple of n x n matrices strictly inside the row ball."""

    Z: tuple

    def __post_init__(self):
        mats = tuple(np.ascontiguousarray(M, dtype=complex) for M in self.Z)
        if not mats:
            raise ValueError("matrix point needs at least one component")
        n = mats[0].shape[0]
        for M in mats:
            if M.shape != (n, n):
                raise ValueError("all components must be square of equal size")
        object.__setattr__(self, "Z", mats)

    @property
    def d(self) -> int:
        return len(self.Z)

    @property
    def n(self) -> int:
        return self.Z[0].shape[0]

    @cached_property
    def row_norm(self) -> float:
        S = sum(M @ M.conj().T for M in self.Z)
        return float(np.sqrt(max(np.linalg.eigvalsh(S).max(), 0.0)))

    def scaled(self, r: float) -> "MatrixPoint":
        return MatrixPoint(tuple(r * M for M in self.Z))


#: Column tile of evaluate's BLAS products: OpenBLAS's zgemm rounds the
#: columns of a partial last tile differently from those of full tiles.
_TILE = 4


def _require_interior(Z: MatrixPoint, who: str):
    if Z.row_norm >= 1.0:
        raise ValueError(f"{who}: point has row norm {Z.row_norm:.6g} >= 1, "
                         "outside the open row ball")


def evaluate(f: NCSeries, Z: MatrixPoint | Sequence[MatrixPoint]
             ) -> EvalResult | list[EvalResult]:
    """sum_{|a| <= N} c_a Z^a, Z^a = Z_{a_1} ... Z_{a_|a|}, with a tail bound.

    Z is one MatrixPoint, or a sequence of them; a sequence returns one
    EvalResult per point, in order, from one sweep over the coefficients.

    N is the degree of f; higher grades are exactly zero.  The word trie
    is split baby-step/giant-step (Paterson & Stockmeyer 1973): with
    j = ceil(N/2) and g0 = N - j, every word of length >= g0 is w v with
    |w| = g0 and |v| <= j.  The blocks X_w = sum_{|v| <= j} c_{wv} Z^v
    come from a table of Z^v and one BLAS product per grade g0 + i, the
    coefficients viewed without a copy as a d^g0 x d^i matrix and the
    tables of all points, by size, side by side as its right factor,
    padded to whole tiles of _TILE columns: about |basis| sum_p n_p^2
    multiply-adds.  The P points of a size n share one batched product
    per letter and grade, a BLAS call per point: the table's Z^{vk} =
    Z^v Z_k, (P, d^(i-1) n, n) @ (P, n, n), and Horner's X_w = c_w I +
    sum_k Z_k X_{wk} over grades g0-1..0 on (P, n, d^m n), with a grade's
    words in reversed-digit order, so that those ending in one letter are
    one block.  Table and Horner take about (d^j + d^g0) n^3 per point,
    and the memory beyond the coefficients (d^j + d^g0) sum_p n_p^2.

    The tail bound is ||f|| * rho^(N+1) / sqrt(1 - rho^2) with rho the row
    norm of Z and N the truncation grade of the basis, valid for the
    dropped grades of any l2 coefficient sequence.
    """
    points = (Z,) if isinstance(Z, MatrixPoint) else tuple(Z)
    basis = f.basis
    for pt in points:
        _require_interior(pt, "evaluate")
        if pt.d != basis.d:
            raise ValueError(f"point has {pt.d} components, basis expects {basis.d}")
    d = basis.d
    N = f.degree()
    j = (N + 1) // 2
    g0 = N - j
    rev = reversals(d, j)  # rev[i][place]: rank of the grade-i word at a reversed-order place
    sizes, a = [], 0  # per size: its points, letters (d, P, n, n), table columns, last Z^v
    for n in dict.fromkeys(pt.n for pt in points):
        same = [p for p, pt in enumerate(points) if pt.n == n]
        eye = np.broadcast_to(np.eye(n, dtype=complex), (len(same), n, n))
        Zs = np.stack([[points[p].Z[k] for p in same] for k in range(d)])
        sizes.append([same, Zs, slice(a, a + eye.size), eye])
        a += eye.size
    # whole tiles, so no point's value depends on which others share the sweep
    table = np.zeros((d ** j, -(-a // _TILE) * _TILE), dtype=complex)
    for _, _, cs, eye in sizes:
        table[0, cs] = eye.ravel()
    X = f.coeffs[basis.grade_slice(g0)][:, None] * table[:1]
    for i in range(1, j + 1):
        for size in sizes:
            _, Zs, cs, pw = size
            P, n = Zs.shape[1:3]
            nxt = np.empty((P, d, d ** (i - 1) * n, n), dtype=complex)
            for k in range(d):
                np.matmul(pw, Zs[k], out=nxt[:, k])
            size[3] = nxt.reshape(P, d ** i * n, n)
            view = table[:, cs].reshape(d ** j, P, n, n)
            view[rev[i]] = nxt.reshape(P, d ** i, n, n).swapaxes(0, 1)
        c = f.coeffs[basis.grade_slice(g0 + i)].reshape(d ** g0, d ** i)
        X += c @ table[:d ** i]
    X = X[rev[g0]]
    results = [None] * len(points)
    for same, Zs, cs, _ in sizes:
        P, n = Zs.shape[1:3]
        Y = X[:, cs].reshape(d ** g0, P, n, n).transpose(1, 2, 0, 3).reshape(P, n, -1)
        for m in range(g0 - 1, -1, -1):
            w = d ** m * n
            cI = f.coeffs[basis.grade_slice(m)][rev[m], None] * np.eye(n, dtype=complex)[:, None]
            nY = cI.reshape(n, w) + Zs[0] @ Y[:, :, :w]
            for k in range(1, d):
                nY += Zs[k] @ Y[:, :, k * w:(k + 1) * w]
            Y = nY
        for q, p in enumerate(same):
            rho = points[p].row_norm
            tail = f.norm() * rho ** (basis.N + 1) / np.sqrt(1.0 - rho ** 2)
            results[p] = EvalResult(Y[q], float(tail))
    return results[0] if isinstance(Z, MatrixPoint) else results


# ---------------------------------------------------------------------------
# multiplier operators

def series_at_right_shifts(f: NCSeries) -> TruncatedOperator:
    """The operator f(R) = U_t f(L) U_t: multiplication on the right by the
    transpose-conjugate g of f, e_b -> sum_a g_a e_{ba}."""
    return TruncatedOperator(f.basis, transpose_conjugate(f).coeffs, "right")


# ---------------------------------------------------------------------------
# NC kernels

def szego_kernel(Z: MatrixPoint, W: MatrixPoint, P: np.ndarray,
                 order: int) -> EvalResult:
    """Truncated NC Szego kernel sum_{|a| <= order} Z^a P (W^a)^*.

    P may be a stack of shape (..., Z.n, W.n); the value then has P's shape
    and the tail P's leading shape.  Tail bound
    ||P|| (rho_Z rho_W)^(order+1) / (1 - rho_Z rho_W).
    """
    _require_interior(Z, "szego_kernel")
    _require_interior(W, "szego_kernel")
    if Z.d != W.d:
        raise ValueError("points must have the same number of components")
    P = np.ascontiguousarray(P, dtype=complex)
    if P.shape[-2:] != (Z.n, W.n):
        raise ValueError(f"P must be {Z.n} x {W.n}, got {P.shape}")
    # the letters stacked once, on an axis of their own in front of P's stack
    lead = (Z.d,) + (1,) * (P.ndim - 2)
    Zs = np.stack(Z.Z).reshape(lead + (Z.n, Z.n))
    Wh = np.stack([M.conj().T for M in W.Z]).reshape(lead + (W.n, W.n))
    total = P.copy()
    S = P.copy()
    for _ in range(order):
        S = sum(Zs @ S @ Wh)
        total += S
    rr = Z.row_norm * W.row_norm
    tail = np.linalg.norm(P, 2, axis=(-2, -1)) * rr ** (order + 1) / (1.0 - rr)
    return EvalResult(total, float(tail) if P.ndim == 2 else tail)


def szego_kernel_matrix(Z: MatrixPoint, W: MatrixPoint, order: int) -> np.ndarray:
    """Dense realization of P -> K(Z,W)[P] on column-major vectorized P:
    column col*n + row is K(Z,W) at the unit matrix E_{row,col}."""
    n, m = Z.n, W.n
    E = np.eye(n * m, dtype=complex).reshape(n * m, m, n).transpose(0, 2, 1)
    K = szego_kernel(Z, W, E, order).value
    return np.ascontiguousarray(K.transpose(2, 1, 0).reshape(n * m, n * m))


def kernel_identity(BZ: EvalResult, BW: EvalResult, HZ: EvalResult, HW: EvalResult,
                    Z: MatrixPoint, W: MatrixPoint, P: np.ndarray,
                    order: int) -> tuple[EvalResult, EvalResult]:
    """Both sides of the kernel identity of a Schur symbol B and its Cayley
    transform H, from the values BZ = evaluate(B, Z), BW, HZ and HW:

        left  = K(Z,W)[P] - K(Z,W)[B(Z) P B(W)^*]  (de Branges-Rovnyak)
        right = (1/2) K(Z,W)[H(Z) Q + Q H(W)^*]     (Herglotz)

    with Q = (I - B(Z)) P (I - B(W))^*, from one Szego sweep over the stack
    of the three matrices.  Each tail adds the sweep's to the evaluation
    tails times ||P|| / (1 - rho_Z rho_W), or ||Q|| / (1 - rho_Z rho_W).
    """
    Q = (np.eye(Z.n) - BZ.value) @ P @ (np.eye(W.n) - BW.value).conj().T
    A = 0.5 * (HZ.value @ Q + Q @ HW.value.conj().T)
    K = szego_kernel(Z, W, np.stack([P, BZ.value @ P @ BW.value.conj().T, A]), order)
    gap = 1.0 - Z.row_norm * W.row_norm
    left_tail = K.tail[0] + K.tail[1] + (BZ.tail + BW.tail) * (np.linalg.norm(P, 2) / gap)
    right_tail = K.tail[2] + 0.5 * (HZ.tail + HW.tail) * (np.linalg.norm(Q, 2) / gap)
    return (EvalResult(K.value[0] - K.value[1], float(left_tail)),
            EvalResult(K.value[2], float(right_tail)))


# ---------------------------------------------------------------------------
# file format: CSV with header word,re,im; absent words are zero

def read_word_csv(path, basis: WordBasis) -> dict:
    """{basis index: value} over the rows of a word,re,im file; a word
    given twice, or a value that is not finite, raises naming the word.
    The messages leave the path to the caller, which knows the field that
    named the file."""
    values = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != ["word", "re", "im"]:
            raise ValueError("expected header word,re,im")
        for row in reader:
            i = basis.index(word_from_str(row["word"], d=basis.d))
            if i in values:
                raise ValueError(f"repeated word {row['word'].strip()!r}")
            re, im = float(row["re"]), float(row["im"])
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ValueError(f"word {row['word'].strip()!r} has a value "
                                 f"that is not finite: {re!r}, {im!r}")
            values[i] = re + 1j * im
    return values


def read_series_csv(path, basis: WordBasis) -> NCSeries:
    coeffs = np.zeros(basis.size, dtype=complex)
    for i, c in read_word_csv(path, basis).items():
        coeffs[i] = c
    return NCSeries(basis, coeffs)
