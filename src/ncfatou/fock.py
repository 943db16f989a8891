"""Truncated full Fock space: vectors and the one operator class.

Every operator the package applies (the shifts L_k and R_k, the
multipliers M^R_f, the half of the Gram matrix, K = I - B(rR), the outer
factor) is multiplication by a series on one side, so it is a
TruncatedOperator.  Each is a compression P_N (.) P_N of the
corresponding operator on l2 of the free monoid; identities that hold on
the full space hold here only after composing with grade projections that
excise boundary grades.  Operators are immutable and application is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .words import Word, WordBasis


@dataclass(frozen=True)
class FockVector:
    """Coefficient vector over words of length <= N."""

    basis: WordBasis
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=complex)
        if c.shape != (self.basis.size,):
            raise ValueError(
                f"coefficient vector has shape {c.shape}, basis size {self.basis.size}")
        object.__setattr__(self, "coeffs", c)


# ---------------------------------------------------------------------------
# graded products: multiplication by a coefficient vector, and its inverse

#: Words per chunk of a grade in the forward graded substitution, rounded
#: down to a power of d: a chunk, its products and their sources stay in
#: a core's L2 cache.
_CHUNK = 1 << 14

#: Least block length of the d = 1 substitution; a block is never shorter
#: than the band, deg f + 1 words.
_BAND_BLOCK = 256


class TruncatedOperator:
    """Compression of multiplication by f = sum_a c_a Z^a: x -> f x (side
    'left', e_b -> sum_a c_a e_{ab}) or x -> x f (side 'right', e_b ->
    sum_a c_a e_{ba}), with its adjoint (adjoint_apply), its dense matrix
    (to_dense) and its inverse (solve).  The Gram matrix (and with it the
    radial operator T_r), vector states and the sum-of-squares split of
    measure are all built on it.

    f is stored as its nonzero grade blocks f_j (the coefficients of the
    grade-j words in lex order).  Since rank(a.b) = rank(a) d**|b| +
    rank(b), the grade-(h+j) block of the product gets outer(f_j, x_h)
    on the left and outer(x_h, f_j) on the right, flattened.  The product
    is block lower-triangular in the graded-lex basis, so with f_0 != 0
    it is inverted by one substitution over grades; at d = 1 it is the
    banded lower-triangular Toeplitz matrix of f, solved by blocks (solve).
    coeffs, and the vectors that apply, adjoint_apply and solve take, may
    stop after the words of some grade g, the higher ones being zero.
    """

    def __init__(self, basis: WordBasis, coeffs, side: str = "left"):
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        coeffs = np.ascontiguousarray(coeffs, dtype=complex)
        if coeffs.ndim != 1 or len(coeffs) not in basis.offsets[1:]:
            raise ValueError(
                f"coefficient vector has shape {coeffs.shape}, not the words of "
                f"grade <= g of a basis of size {basis.size}")
        self.basis, self.left, self.coeffs = basis, side == "left", coeffs
        # d = 1 multiplies by np.convolve, and solves on the band, with f
        # cut at its degree
        self.trimmed = _trim(coeffs) if basis.d == 1 else None

    @cached_property
    def slices(self) -> list:
        """The index slice of each grade of the basis, by grade."""
        return [self.basis.grade_slice(g) for g in range(self.basis.N + 1)]

    @cached_property
    def blocks(self) -> list:
        """(j, f_j) for the nonzero grade blocks, by increasing j."""
        blocks = ((j, self.coeffs[s]) for j, s in enumerate(self.slices))
        return [(j, fj) for j, fj in blocks if fj.any()]

    def _up(self, fj, xh, part, start, t, base=None, op=np.subtract):
        """part = op(base, P), P the words start .. start + len(part) - 1
        of the grade-(h+j) contribution of f_j and x_h (len(part) a power
        of d, start a multiple of it; base None is part itself): the outer
        product a c of a slice of each factor (a = f_j on the left, x_h on
        the right), one scalar product per entry of the shorter factor,
        into t.  Each is a[i] c or a c[k], in that operand order: numpy's
        complex-times-scalar loop fuses a multiply-add, and c a[i] can
        differ from a[i] c in the last bit.  A zero word of f_j along the
        loop adds nothing: its row (left) or column (right) takes base."""
        a, c = (fj, xh) if self.left else (xh, fj)
        n, m = len(part), len(c)
        a = a[start // m:start // m + max(1, n // m)]
        c = c[start % m:start % m + n]
        o = part.reshape(len(a), len(c))
        b = o if base is None else base.reshape(o.shape)
        rows = len(a) <= len(c)
        o, b = (o, b) if rows else (o.T, b.T)
        for i in range(len(o)):
            s = a[i] if rows else c[i]
            if s != 0 or rows != self.left:
                p = np.multiply(s, c, out=t[:len(c)]) if rows else np.multiply(a, s, out=t[:len(a)])
                op(b[i], p, out=o[i])
            elif base is not None:  # a zero word of f_j: base as it is
                o[i] = b[i]

    def _down(self, fj, y, h, out=None, start=0):
        """Adjoint of _up: the grade-h contribution of the grade-(h+j) y;
        into out, only its words start .. start + len(out) - 1."""
        d = self.basis.d
        w = slice(start, start + (d ** h if out is None else len(out)))
        if self.left:
            return np.matmul(fj.conj(), y.reshape(len(fj), d ** h)[:, w], out=out)
        return np.matmul(y.reshape(d ** h, len(fj))[w], fj.conj(), out=out)

    def _grade(self, n: int) -> int:
        """g for a vector of the n words of grade <= g."""
        if n not in self.basis.offsets[1:]:
            raise ValueError(f"vector of {n} words is not the words of grade <= g "
                             f"of a basis of size {self.basis.size}")
        return int(np.searchsorted(self.basis.offsets, n)) - 1

    def _zeros(self, n: int, out):
        """n zeros: out[:n] cleared, or a new array."""
        if out is None:
            return np.zeros(n, dtype=complex)
        out[:n] = 0.0
        return out[:n]

    def apply(self, x, out=None):
        """f x (left) or x f (right) for x given through some grade g: the
        words of grade <= min(N, g + deg f), in out[:k] if given, else in
        a new array; the blocks f_j are added into zeros by increasing j.
        On the left each grade of x goes through _up, and zero grades are
        skipped: unit vectors and sparse series touch one or a few grades.
        On the right a block is one strided product per letter word s of
        f_j over all words w of x from its first nonzero grade on: w.s has
        the index d**j idx(w) + offsets[j] + rank(s), so x[w] f_j[s] is
        column s of those words of the product read as a (words, d**j)
        array, formed as _up forms it, x first.  The first block is written
        straight into the zeros it covers and 0.0 added (0 + p, the same
        bits as an add, signed zeros too); a later one goes through a
        scratch row of at most _CHUNK words, w taken in chunks of that
        size.  At d = 1 it is one np.convolve."""
        x = np.asarray(x, dtype=complex)
        b = self.basis
        g = self._grade(len(x))
        top = len(self.trimmed) - 1 if b.d == 1 else self.blocks[-1][0] if self.blocks else 0
        o = self._zeros(int(b.offsets[min(b.N, g + top) + 1]), out)
        if b.d == 1:
            p = np.convolve(self.trimmed, _trim(x))[:len(o)]
            o[:len(p)] = p
            return o
        sl = self.slices
        hs = (h for h in range(g + 1) if x[sl[h]].any())
        if self.left:
            hs = list(hs)
            t = np.empty(b.d ** max([top] + hs), dtype=complex)  # the longer factor
            for j, fj in self.blocks:
                for h in hs:
                    if h + j > b.N:
                        break
                    self._up(fj, x[sl[h]], o[sl[h + j]], 0, t, op=np.add)
            return o
        lo = next((int(b.offsets[h]) for h in hs), len(x))
        t = None
        for i, (j, fj) in enumerate(self.blocks):
            hi = min(len(x), int(b.offsets[b.N + 1 - j]))
            if hi <= lo:
                break
            n, off = len(fj), int(b.offsets[j])
            if i == 0:  # o is zero there
                view = o[n * lo + off:n * hi + off].reshape(hi - lo, n)
                for s, fs in enumerate(fj):
                    np.multiply(x[lo:hi], fs, out=view[:, s])
                view += 0.0
                continue
            if t is None:  # sized for the first later block, which reaches most
                t = np.empty(min(_CHUNK, hi - lo), dtype=complex)
            for c in range(lo, hi, len(t)):
                e = min(c + len(t), hi)
                view = o[n * c + off:n * e + off].reshape(e - c, n)
                for s, fs in enumerate(fj):
                    view[:, s] += np.multiply(x[c:e], fs, out=t[:e - c])
        return o

    def adjoint_apply(self, y, out=None):
        """The adjoint of apply, for y given through some grade g: the
        words of grade <= g, in out[:len(y)] if given, else in a new
        array; grade by grade through _down, the blocks added into zeros
        by increasing j, each grade in chunks of the largest power of d
        within _CHUNK words, through one scratch row of that size."""
        y = np.asarray(y, dtype=complex)
        b = self.basis
        g = self._grade(len(y))
        o = self._zeros(len(y), out)
        if b.d == 1:
            pad = np.concatenate((y, np.zeros(len(self.trimmed) - 1, dtype=complex)))
            o[:] = np.correlate(pad, self.trimmed, "valid")
            return o
        sl = self.slices
        t = np.empty(b.d ** min(g, int(np.log2(_CHUNK) / np.log2(b.d))), dtype=complex)
        for j, fj in self.blocks:
            for h in range(g + 1 - j):
                og = o[sl[h]]
                for c in range(0, len(og), len(t)):
                    part = og[c:c + len(t)]
                    part += self._down(fj, y[sl[h + j]], h, t[:len(part)], c)
        return o

    def to_dense(self, m: int | None = None) -> np.ndarray:
        """Index fill of every block f_j in one assignment: f_j[k] times
        x_h[i] lands at rank k d**h + i (left) or i d**j + k (right) of
        grade h+j, for every word of grade h <= N - j.  With m, only the
        first m columns, entry for entry the same."""
        b = self.basis
        m = b.size if m is None else m
        A = np.zeros((b.size, m), dtype=complex)
        count = np.diff(b.offsets)  # d**h
        grade = np.repeat(np.arange(b.N + 1), count)
        # the words v of the nonzero blocks, each against its columns
        v = np.flatnonzero(np.isin(grade[:len(self.coeffs)], [j for j, _ in self.blocks]))
        width = np.minimum(b.offsets[b.N + 1 - grade[v]], m)
        entry = np.repeat(np.arange(len(v)), width)
        col = np.arange(len(entry)) - np.repeat(np.cumsum(width) - width, width)
        v = v[entry]
        h, j = grade[col], grade[v]
        i, k = col - b.offsets[h], v - b.offsets[j]
        rank = k * count[h] + i if self.left else i * count[j] + k
        A[b.offsets[h + j] + rank, col] = self.coeffs[v]
        return A

    def solve(self, w, adjoint: bool = False):
        """x with (f x) = w, or its adjoint; needs f_0 != 0 (ValueError
        otherwise).  Exact on the truncation: forward over grades, backward
        for the adjoint, one pass either way, into one new array of the
        basis's size.  Like coeffs, w may stop after the words of some
        grade, the higher ones being zero (the vacuum is one entry).  At
        d >= 2 the forward pass takes each grade in chunks of at most
        _CHUNK words, and finishes a chunk while it is in cache: _up
        subtracts each f_j's products from w's words straight into x, then
        from x, over the nonzero words of f_j only (on the left word i of
        f_j covers x_g[i d^h:(i+1) d^h]), then it is divided by f_0
        (skipped for f_0 = 1).  The adjoint takes whole grades.  The
        products go into one scratch row; the grade slices are built once
        per product (slices).  At d = 1 it is _band_solve, O(N max(256,
        deg f)) work on O(N) numbers."""
        if self.coeffs[0] == 0:
            raise ValueError("graded inverse needs a nonzero constant coefficient")
        b = self.basis
        if b.d == 1:
            return self._band_solve(w, adjoint)
        x = np.empty(b.size, dtype=complex)
        f0 = np.conj(self.coeffs[0]) if adjoint else self.coeffs[0]
        rest, sl = [(j, fj) for j, fj in self.blocks if j > 0], self.slices
        # forward chunks: the largest power of d within _CHUNK words
        q = b.N if adjoint else min(b.N, int(np.log2(_CHUNK) / np.log2(b.d)))
        row = np.empty(b.d ** q, dtype=complex)
        zero = np.broadcast_to(np.zeros(1, dtype=complex), len(row))
        for g in (range(b.N, -1, -1) if adjoint else range(b.N + 1)):
            acc = x[sl[g]]
            wg = w[sl[g]] if b.offsets[g + 1] <= len(w) else None
            srcs = [(fj, x[sl[g + j if adjoint else g - j]]) for j, fj in rest
                    if (g + j <= b.N if adjoint else j <= g)]
            n = min(len(acc), len(row))
            for s in range(0, len(acc), n):
                part = acc[s:s + n]
                base = zero[:n] if wg is None else wg[s:s + n]
                for i, (fj, xs) in enumerate(srcs):
                    if adjoint:
                        np.subtract(part if i else base, self._down(fj, xs, g, row[:n]), out=part)
                    else:
                        self._up(fj, xs, part, s, row, None if i else base)
                if not srcs:
                    part[:] = base
                if f0 != 1:
                    part /= f0
        return x

    @cached_property
    def _inverse_head(self) -> np.ndarray:
        """The first L = max(_BAND_BLOCK, deg f + 1) coefficients of 1/f at
        d = 1, by Newton's iteration for the reciprocal of a power series:
        with g exact through m terms, f g = 1 + z^m r, and the next terms
        of 1/f = g (1 - z^m r + ...) are those of -g r (Knuth, TAOCP vol. 2,
        4.7).  r has at most deg f nonzero terms; f gets one zero term more,
        so that r is never empty.  O(L deg f)."""
        f = np.concatenate((self.trimmed, np.zeros(1, dtype=complex)))
        size = max(_BAND_BLOCK, len(f) - 1)
        g = np.array([1.0 / f[0]])
        while len(g) < size:
            m, k = len(g), min(2 * len(g), size)
            r = np.convolve(f, g)[m:k]
            g = np.concatenate((g, -np.convolve(g, r)[:k - m]))
        return g

    def _band_solve(self, w, adjoint: bool) -> np.ndarray:
        """x with (f x) = w at d = 1, or its adjoint, as a new array: the
        lower-triangular Toeplitz system of f solved by blocks of the
        fixed length L of _inverse_head, from word 0.  Block b couples to
        block b - 1 alone (L > deg f = p), and x_b = G (w_b - C x_{b-1}),
        G the lower-triangular Toeplitz matrix of g = _inverse_head and C
        the one of f's spill into the next block: G v is the first L terms
        of the product g v, and C x_{b-1} the terms L .. L + p - 1 of f
        times x_{b-1}, both by np.convolve.  v is cut after its last word
        that can be nonzero, the first p for a block beyond w's last
        nonzero word: with w of one entry (invert, the Cayley transform)
        a block costs O(L p).  Every product has a shape fixed by f and
        w's last nonzero word alone, so x[:k] is the same, bit for bit,
        on every basis that holds it.  The adjoint is the same solve of
        conj(f) on the reversed vector."""
        n, f, g = self.basis.size, self.trimmed, self._inverse_head
        if adjoint:
            f, g = f.conj(), g.conj()
        p, L = len(f) - 1, len(g)
        x = np.zeros(-(-n // L) * L, dtype=complex)
        if adjoint:
            x[n - len(w):n] = w[::-1]
        else:
            x[:len(w)] = w
        nz = np.flatnonzero(x)
        last = nz[-1] if nz.size else -1
        for s in range(0, n, L):
            v = x[s:s + L]
            if s and p:
                v[:p] -= np.convolve(f, x[s - p:s])[p:]
            q = max(p if s else 0, min(L, last + 1 - s))
            if q:
                v[:] = np.convolve(g, v[:q])[:L]
        return x[n - 1::-1].copy() if adjoint else x[:n]


def toeplitz(c, r) -> np.ndarray:
    """The Toeplitz matrix with first column c and first row r (r[0] is
    not read): one strided copy of the reversed r and c laid end to end,
    entry A[i, j] read at offset i - j from c[0]."""
    c, r = np.asarray(c), np.asarray(r)
    vals = np.concatenate((r[:0:-1], c))
    s = vals.strides[0]
    return np.lib.stride_tricks.as_strided(
        vals[len(r) - 1:], (len(c), len(r)), (s, -s)).copy()


def _trim(c: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(c)
    return c[:nz[-1] + 1] if nz.size else c[:1]


def left_shift(basis: WordBasis, k: int) -> TruncatedOperator:
    """Compression of L_k: e_w -> e_{kw}, words of top grade map to 0."""
    _check_letter(basis, k)
    return _monomial(basis, (k,), "left")


def right_shift(basis: WordBasis, k: int) -> TruncatedOperator:
    """Compression of R_k: e_w -> e_{wk}, words of top grade map to 0."""
    _check_letter(basis, k)
    return _monomial(basis, (k,), "right")


def _check_letter(basis: WordBasis, k: int):
    if not 1 <= k <= basis.d:
        raise ValueError(f"shift letter {k} outside 1..{basis.d}")


def _monomial(basis: WordBasis, w: Word, side: str) -> TruncatedOperator:
    """Multiplication by Z^w on one side; zero when w is longer than N."""
    c = np.zeros(basis.size, dtype=complex)
    if len(w) <= basis.N:
        c[basis.index(w)] = 1.0
    return TruncatedOperator(basis, c, side)
