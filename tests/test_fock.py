import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from ncfatou import fock
from ncfatou.fock import FockVector, TruncatedOperator, left_shift, right_shift
from ncfatou.series import NCSeries
from ncfatou.words import WordBasis

from helpers import adjoint_residual, basis_vector, vacuum


@pytest.fixture
def basis():
    return WordBasis(2, 3)


def test_left_shift_examples(basis):
    L1 = left_shift(basis, 1)
    e = vacuum(basis).coeffs
    assert np.allclose(L1.apply(e), basis_vector(basis, (1,)).coeffs)
    top = basis_vector(basis, (1, 2, 1)).coeffs
    assert np.allclose(L1.apply(top), 0.0)
    L2 = left_shift(basis, 2)
    assert abs(L2.adjoint_apply(L1.apply(e))).max() == 0.0
    assert np.allclose(L1.adjoint_apply(L1.apply(e)), e)


def test_right_shift_examples(basis):
    R2 = right_shift(basis, 2)
    assert np.allclose(R2.apply(basis_vector(basis, (1,)).coeffs),
                       basis_vector(basis, (1, 2)).coeffs)
    assert np.allclose(R2.apply(vacuum(basis).coeffs), basis_vector(basis, (2,)).coeffs)
    assert abs(R2.apply(basis_vector(basis, (2, 2, 2)).coeffs)).max() == 0.0


def test_shift_letter_out_of_range(basis):
    with pytest.raises(ValueError):
        left_shift(basis, 3)
    with pytest.raises(ValueError):
        right_shift(basis, 0)


def test_transpose_unitary_examples(basis):
    # U: e_w -> e_{transpose(w)} is indexing by the transpose permutation,
    # a self-adjoint unitary involution
    p = basis.transpose_permutation
    assert np.array_equal(basis_vector(basis, (1, 2)).coeffs[p],
                          basis_vector(basis, (2, 1)).coeffs)
    assert np.array_equal(p[p], np.arange(basis.size))
    Ud = np.eye(basis.size)[p]
    assert np.allclose(Ud @ Ud, np.eye(basis.size))
    assert np.allclose(Ud.conj().T @ Ud, np.eye(basis.size))


def test_transpose_unitary_conjugates_shifts(basis):
    U = np.eye(basis.size)[basis.transpose_permutation]
    for k in (1, 2):
        L = left_shift(basis, k).to_dense()
        R = right_shift(basis, k).to_dense()
        assert np.abs(U @ L @ U - R).max() == 0.0
        # and on every basis vector, U L = R U
        assert np.abs(U @ L - R @ U).max() == 0.0


def grade_projection(basis, M):
    """The orthogonal projection onto the words of length <= M."""
    return np.diag((np.arange(basis.size) < basis.sub_basis_size(M)).astype(float))


def test_row_isometry_compressed_relations(basis):
    shifts = [left_shift(basis, k) for k in (1, 2)]
    total = sum(Lk.to_dense() @ Lk.to_dense().conj().T for Lk in shifts)
    P0 = grade_projection(basis, 0)
    assert np.abs(total - (np.eye(basis.size) - P0)).max() == 0.0
    PN1 = grade_projection(basis, basis.N - 1)
    for j, Lj in enumerate(shifts):
        for k, Lk in enumerate(shifts):
            prod = Lk.to_dense().conj().T @ Lj.to_dense()
            target = PN1 if j == k else np.zeros_like(prod)
            assert np.abs(prod - target).max() == 0.0


def test_shift_columns_have_single_unit_entry(basis):
    for k in (1, 2):
        M = left_shift(basis, k).to_dense()
        below_top = basis.sub_basis_size(basis.N - 1)
        counts = (np.abs(M[:, :below_top]) > 0).sum(axis=0)
        assert (counts == 1).all()
        assert np.allclose(M[:, :below_top][np.abs(M[:, :below_top]) > 0], 1.0)


def test_adjoint_pairs_on_probes(basis):
    rng = np.random.default_rng(7)
    monomial = np.zeros(basis.size, dtype=complex)
    monomial[basis.index((1, 2))] = 1.0
    for op in (left_shift(basis, 1), right_shift(basis, 2),
               TruncatedOperator(basis, monomial)):
        assert adjoint_residual(op.apply, op.adjoint_apply, basis.size, rng) < 1e-12


def test_dimension_mismatch_rejected(basis):
    with pytest.raises(ValueError):
        FockVector(basis, np.zeros(3))
    # a vector that is not the words of grade <= g for any g
    with pytest.raises(ValueError):
        left_shift(basis, 1).apply(np.zeros(5))


# -- graded products ---------------------------------------------------------

def random_symbol(rng, basis, sparsity):
    """Coefficients with a germ of modulus in [1, 2] and an l1-small rest,
    so that the product and its inverse stay well conditioned."""
    c = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    c[rng.random(basis.size) < sparsity] = 0.0
    c[0] = rng.uniform(1.0, 2.0) * np.exp(2j * np.pi * rng.random())
    rest = np.abs(c[1:]).sum()
    if rest > 0:
        c[1:] *= 0.5 * abs(c[0]) / rest
    return c


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), N=st.integers(0, 4),
       side=st.sampled_from(["left", "right"]),
       sparsity=st.sampled_from([0.0, 0.5, 0.9]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_graded_product_kernel_properties(d, N, side, sparsity, seed):
    rng = np.random.default_rng(seed)
    basis = WordBasis(d, N)
    c = random_symbol(rng, basis, sparsity)
    op = TruncatedOperator(basis, c, side)
    # the index fill agrees with column-by-column application, and filled
    # for its first m columns alone it is those columns exactly
    cols = np.column_stack([op.apply(e) for e in np.eye(basis.size)])
    assert np.abs(op.to_dense() - cols).max() < 1e-14
    m = int(rng.integers(1, basis.size + 1))
    assert np.array_equal(op.to_dense(m), op.to_dense()[:, :m])
    n = basis.size
    assert adjoint_residual(op.apply, op.adjoint_apply, n, rng) < 1e-12
    assert adjoint_residual(op.solve, lambda u: op.solve(u, adjoint=True), n, rng) < 1e-12
    x = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    assert np.abs(op.solve(op.apply(x)) - x).max() < 1e-12
    assert np.abs(op.solve(op.adjoint_apply(x), adjoint=True) - x).max() < 1e-12
    assert np.abs(op.apply(op.solve(x)) - x).max() < 1e-12
    f = NCSeries(basis, c)
    g = NCSeries(basis, rng.standard_normal(basis.size))
    # f g is f's left multiplier applied to g and g's right multiplier applied to f
    left = TruncatedOperator(f.basis, f.coeffs, "left")
    right = TruncatedOperator(g.basis, g.coeffs, "right")
    assert np.abs(right.apply(f.coeffs) - left.apply(g.coeffs)).max() < 1e-12


def test_graded_product_sides_and_germ():
    basis = WordBasis(2, 2)
    c = np.zeros(basis.size, dtype=complex)
    c[basis.index((1,))] = 1.0
    # multiplication by Z_1 on either side is the matching shift
    assert np.array_equal(TruncatedOperator(basis, c, "left").to_dense(),
                          left_shift(basis, 1).to_dense())
    assert np.array_equal(TruncatedOperator(basis, c, "right").to_dense(),
                          right_shift(basis, 1).to_dense())
    with pytest.raises(ValueError):
        TruncatedOperator(basis, c).solve(np.ones(1))
    with pytest.raises(ValueError):
        TruncatedOperator(basis, c, "middle")


@pytest.mark.parametrize("d", [1, 2, 3])
def test_solve_refuses_a_zero_germ(d):
    # f with f_0 = 0 is not invertible: solve raises rather than divide by
    # zero, on both sides and for the adjoint, with a full right-hand side
    # and with the one-entry vacuum
    basis = WordBasis(d, 3)
    c = np.zeros(basis.size, dtype=complex)
    c[basis.index((1,))] = 0.5
    for side in ("left", "right"):
        op = TruncatedOperator(basis, c, side)
        for adjoint in (False, True):
            for w in (np.ones(basis.size, dtype=complex), np.ones(1, dtype=complex)):
                with pytest.raises(ValueError, match="nonzero constant coefficient"):
                    op.solve(w, adjoint)


@pytest.mark.parametrize("d", [1, 2])
def test_graded_product_takes_the_coefficients_through_a_grade(d):
    # the product, given f through grade 2 of a grade-6 basis, acts as f
    # padded with zeros, bit for bit; a vector that stops inside a grade or
    # runs past the basis is rejected
    rng = np.random.default_rng(7)
    basis = WordBasis(d, 6)
    m = basis.sub_basis_size(2)
    c = np.zeros(basis.size, dtype=complex)
    c[:m] = random_symbol(rng, WordBasis(d, 2), 0.0)
    x = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    for side in ("left", "right"):
        full = TruncatedOperator(basis, c, side)
        cut = TruncatedOperator(basis, c[:m], side)
        assert np.array_equal(full.apply(x), cut.apply(x))
        assert np.array_equal(full.adjoint_apply(x), cut.adjoint_apply(x))
        assert np.array_equal(full.to_dense(), cut.to_dense())
        for adjoint in (False, True):
            assert np.array_equal(full.solve(x, adjoint), cut.solve(x, adjoint))
    for bad in (c[:m + 1] if d > 1 else c[:0], np.ones(basis.size + 1)):
        with pytest.raises(ValueError):
            TruncatedOperator(basis, bad, "left")


def _outer_product_substitution(basis, c, side, w, adjoint):
    # the substitution over grades with a fresh np.outer or matrix product
    # per (grade, block) and a division by f_0 at every grade
    d, N = basis.d, basis.N
    blocks = [(j, c[basis.grade_slice(j)]) for j in range(1, N + 1)]
    blocks = [(j, fj) for j, fj in blocks if fj.any()]
    f0 = np.conj(c[0]) if adjoint else c[0]
    x = np.empty_like(w)
    for g in (range(N, -1, -1) if adjoint else range(N + 1)):
        acc = w[basis.grade_slice(g)].copy()
        for j, fj in blocks:
            src = g + j if adjoint else g - j
            if not 0 <= src <= N:
                break
            xs = x[basis.grade_slice(src)]
            if adjoint and side == "left":
                acc -= fj.conj() @ xs.reshape(len(fj), d ** g)
            elif adjoint:
                acc -= xs.reshape(d ** g, len(fj)) @ fj.conj()
            else:
                acc -= (np.outer(fj, xs) if side == "left" else np.outer(xs, fj)).ravel()
        acc /= f0
        x[basis.grade_slice(g)] = acc
    return x


@pytest.mark.parametrize("d, N", [(2, 6), (3, 4)])
@pytest.mark.parametrize("f0", [1.0, 1.3 - 0.4j])
def test_graded_solve_is_the_outer_product_substitution_bit_for_bit(d, N, f0, monkeypatch):
    # the scratch-row substitution, into a new array, equals the one with
    # a fresh product of every word per grade exactly, signed zeros too,
    # although the forward pass subtracts only the nonzero words of each
    # f_j: for 1 + a Z1 + b Z1Z2Z1, whose grade-2 block is zero, for the
    # kernels symbol 1 - B (one nonzero grade-2 word of d**2), for a symbol
    # with about half of its words zero through grade 3, and for symbols
    # dense through grade 2 and through grade 3, each with f_0 = 1 (no
    # division) and f_0 != 1; against a full right-hand side and the
    # one-entry vacuum; with whole grades and with forward chunks of d and
    # of d**3 words, which cut the rows of f_j and of x_h, so that the
    # products loop over the entries of f_j and over those of x_h
    rng = np.random.default_rng(17)
    basis = WordBasis(d, N)
    sparse, kernels, half = (np.zeros(basis.size, dtype=complex) for _ in range(3))
    sparse[basis.index((1,))] = 0.4 - 0.2j
    sparse[basis.index((1, 2, 1))] = 0.3j
    for word, v in (((1,), -0.3), ((2,), -0.25j), ((1, 2), -0.2)):
        kernels[basis.index(word)] = v
    denses = []
    for g in (2, 3):
        dense = np.zeros(basis.size, dtype=complex)
        m = basis.sub_basis_size(g)
        dense[:m] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        dense[:m] *= 0.5 / np.abs(dense[1:m]).sum()
        denses.append(dense)
    w = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    half[:m] = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * (rng.random(m) < 0.5)
    half[:m] *= 0.5 / np.abs(half[1:m]).sum()
    vacuum = np.zeros(basis.size, dtype=complex)
    vacuum[0] = 2.0
    chunks = (fock._CHUNK, d, d ** 3)
    for c in (sparse, kernels, half, *denses):
        c[0] = f0
        for side in ("left", "right"):
            k = TruncatedOperator(basis, c, side)
            A = k.to_dense()
            for adjoint in (False, True):
                for rhs, given in ((vacuum, vacuum[:1]), (w, w)):
                    ref = _outer_product_substitution(basis, c, side, rhs, adjoint)
                    for chunk in chunks:
                        monkeypatch.setattr(fock, "_CHUNK", chunk)
                        x = k.solve(given, adjoint)
                        assert np.array_equal(x.view(np.int64), ref.view(np.int64))
                        assert not np.shares_memory(x, given)
                exact = np.linalg.solve(A.conj().T if adjoint else A, w)
                assert np.abs(ref - exact).max() <= 1e-12 * np.abs(exact).max()


def _outer(side, fj, xh):
    return (np.outer(fj, xh) if side == "left" else np.outer(xh, fj)).ravel()


@pytest.mark.parametrize("side", ["left", "right"])
def test_graded_product_up_is_the_outer_product_bit_for_bit(side):
    # every shape of f_j against x_h, the shorter factor on either axis
    # (one scalar product per entry of f_j or of x_h), cut into every
    # aligned window of d**q words, the whole product among them,
    # subtracted from a base and from the window itself, and added; with
    # f_j dense and with every other word zero
    rng = np.random.default_rng(71)
    d = 2
    k = TruncatedOperator(WordBasis(d, 7), np.ones(1), side)
    t = np.full(d ** 7, np.nan, dtype=complex)
    for j in range(4):
        for h in range(5):
            fj = rng.standard_normal(d ** j) + 1j * rng.standard_normal(d ** j)
            xh = rng.standard_normal(d ** h) + 1j * rng.standard_normal(d ** h)
            for f in (fj, np.where(np.arange(d ** j) % 2, fj, 0)):
                ref = _outer(side, f, xh)
                for q in range(j + h + 1):
                    n = d ** q
                    for start in range(0, len(ref), n):
                        p = ref[start:start + n]
                        base = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                        part = np.full(n, np.nan, dtype=complex)
                        k._up(f, xh, part, start, t, base)
                        assert np.array_equal(part, base - p)
                        k._up(f, xh, part, start, t)
                        assert np.array_equal(part, base - p - p)
                        k._up(f, xh, part, start, t, op=np.add)
                        assert np.array_equal(part, base - p - p + p)
    # a zero word of f_j multiplies nothing: a NaN in x_h stays out of its
    # rows (left) or columns (right), which keep the base
    f, xh = np.array([0, 0.5j]), np.array([np.nan, 1, 2, 3], dtype=complex)
    part, base = np.empty(8, dtype=complex), np.arange(8) + 1j
    k._up(f, xh, part, 0, t, base)
    shape, pick = ((2, 4), np.s_[0]) if side == "left" else ((4, 2), np.s_[:, 0])
    assert np.array_equal(part.reshape(shape)[pick], base.reshape(shape)[pick])


@pytest.mark.parametrize("shape", [(2, 8), (3, 5), (8, 2), (5, 3)])
def test_graded_product_up_keeps_the_operand_order(shape):
    # numpy's complex-times-scalar loop fuses a multiply-add, so c a[i]
    # differs from a[i] c in the last bit on these shapes; _up forms a c,
    # the order of the outer product, with a the left factor on both sides
    # and a loop over the shorter one
    rng = np.random.default_rng(73)
    a = rng.standard_normal(shape[0]) + 1j * rng.standard_normal(shape[0])
    c = rng.standard_normal(shape[1]) + 1j * rng.standard_normal(shape[1])
    ref = np.outer(a, c)
    swapped = np.array([np.multiply(c, ai) for ai in a])
    assert not np.array_equal(swapped, ref)
    for side, fj, xh in (("left", a, c), ("right", c, a)):
        k = TruncatedOperator(WordBasis(2, 1), np.ones(1), side)
        part = np.zeros(ref.size, dtype=complex)
        k._up(fj, xh, part, 0, np.empty(max(shape), dtype=complex), op=np.add)
        assert np.array_equal(part, ref.ravel())


@pytest.mark.parametrize("d, N", [(2, 6), (3, 4)])
def test_graded_matvec_is_the_outer_product_sum_bit_for_bit(d, N, monkeypatch):
    # apply sums np.outer of every block of f against every grade of x,
    # block by block, exactly, with the right side's words of x in one
    # chunk or in chunks of 1, d and 7 words; adjoint_apply is its adjoint,
    # against the matrix of those products
    rng = np.random.default_rng(79)
    basis = WordBasis(d, N)
    m = basis.sub_basis_size(3)
    c = np.zeros(basis.size, dtype=complex)
    c[:m] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    x = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    sl = [basis.grade_slice(g) for g in range(N + 1)]

    def reference(side, x):
        out = np.zeros(basis.size, dtype=complex)
        for j in range(N + 1):
            for h in range(N + 1 - j):
                out[sl[h + j]] += _outer(side, c[sl[j]], x[sl[h]])
        return out

    for side in ("left", "right"):
        k = TruncatedOperator(basis, c, side)
        for chunk in (fock._CHUNK, 1, d, 7):
            monkeypatch.setattr(fock, "_CHUNK", chunk)
            assert np.array_equal(k.apply(x), reference(side, x))
        A = np.column_stack([reference(side, e) for e in np.eye(basis.size, dtype=complex)])
        ref = A.conj().T @ x
        assert np.abs(k.adjoint_apply(x) - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("d, N", [(2, 15), (3, 9)])
def test_graded_rmatvec_in_chunks_is_the_whole_grade_product_bit_for_bit(d, N):
    # the grades beyond the chunk (2^14 words at d = 2, 3^8 at d = 3) are
    # taken in chunks of it: the same bits as one np.matmul per grade and
    # block, added into zeros by increasing j
    rng = np.random.default_rng(37)
    basis = WordBasis(d, N)
    m = basis.sub_basis_size(2)
    c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    y = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    sl = [basis.grade_slice(g) for g in range(N + 1)]
    for side in ("left", "right"):
        ref = np.zeros(basis.size, dtype=complex)
        for j in range(3):
            fj = c[sl[j]].conj()
            for h in range(N + 1 - j):
                yh = y[sl[h + j]]
                ref[sl[h]] += (fj @ yh.reshape(len(fj), -1) if side == "left"
                               else yh.reshape(-1, len(fj)) @ fj)
        got = TruncatedOperator(basis, c, side).adjoint_apply(y)
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("d, N", [(1, 9), (2, 6), (3, 4)])
def test_graded_solve_takes_a_right_hand_side_through_a_grade(d, N):
    # w given through grade g solves as w padded with zeros, bit for bit,
    # for every g (the vacuum is g = 0), both sides, adjoint or not, into
    # a new array of the basis's size
    rng = np.random.default_rng(29)
    basis = WordBasis(d, N)
    for c in (random_symbol(rng, basis, 0.5), random_symbol(rng, basis, 0.0)):
        for side in ("left", "right"):
            k = TruncatedOperator(basis, c, side)
            for g in range(N + 1):
                m = basis.sub_basis_size(g)
                padded = np.zeros(basis.size, dtype=complex)
                padded[:m] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                for adjoint in (False, True):
                    ref = k.solve(padded, adjoint)
                    short = k.solve(padded[:m], adjoint)
                    assert short.shape == ref.shape
                    assert ref.tobytes() == short.tobytes()  # signed zeros too
                    assert not np.shares_memory(short, padded)


@pytest.mark.parametrize("d, N", [(1, 9), (2, 6), (3, 4)])
def test_graded_products_take_a_vector_through_a_grade(d, N):
    # x given through grade g multiplies as x padded with zeros, bit for
    # bit, signed zeros too: apply returns the words of grade <= g + deg f
    # (at most N), the rest being zero, and adjoint_apply those of grade <= g;
    # with out, into its first words (beyond them out is left as it was)
    rng = np.random.default_rng(31)
    basis = WordBasis(d, N)
    sparse = np.zeros(basis.sub_basis_size(2), dtype=complex)
    sparse[[0, basis.sub_basis_size(1)]] = 1.0, 0.5j
    for c in (random_symbol(rng, basis, 0.5)[:basis.sub_basis_size(2)], sparse,
              random_symbol(rng, basis, 0.0)):
        deg = max(g for g in range(N + 1) if c[basis.grade_slice(g)].any())
        for side in ("left", "right"):
            k = TruncatedOperator(basis, c, side)
            for g in range(N + 1):
                m = basis.sub_basis_size(g)
                padded = np.zeros(basis.size, dtype=complex)
                padded[:m] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                padded[basis.grade_slice(0)] = 0.0  # a leading zero grade
                for apply, reach in ((k.apply, basis.sub_basis_size(min(N, g + deg))),
                                     (k.adjoint_apply, m)):
                    ref = apply(padded)
                    short = apply(padded[:m])
                    assert len(short) == reach
                    assert short.tobytes() == ref[:reach].tobytes()
                    assert not ref[reach:].any()
                    out = np.full(basis.size + 1, np.nan, dtype=complex)
                    into = apply(padded[:m], out=out)
                    assert np.shares_memory(into, out) and len(into) == reach
                    assert out[:reach].tobytes() == short.tobytes()
                    assert np.isnan(out[reach:]).all()
    if d > 1:
        with pytest.raises(ValueError, match="not the words of grade <= g"):
            TruncatedOperator(basis, np.ones(1)).apply(np.ones(basis.size - 1))


@st.composite
def band_systems(draw):
    # f of degree p with sum_k>0 |f_k| <= 0.9 |f_0|, so that 1/f decays and
    # the triangular system is well conditioned; n on either side of a
    # block boundary (blocks of max(256, p + 1) words) or anywhere, and a
    # right-hand side through any word
    p = draw(st.integers(0, 200))
    L = max(fock._BAND_BLOCK, p + 1)
    near = draw(st.integers(1, 3)) * L + draw(st.integers(-2, 2))
    n = max(p + 1, draw(st.sampled_from([near, draw(st.integers(1, 3 * L + 3))])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    f = rng.standard_normal(p + 1) + 1j * rng.standard_normal(p + 1)
    f[1:] *= 0.9 * draw(st.floats(0.0, 1.0)) * abs(f[0]) / max(np.abs(f[1:]).sum(), 1e-300)
    k = draw(st.integers(1, n))
    w = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return f, n, w


@settings(max_examples=40, deadline=None)
@given(band_systems())
def test_d1_solve_matches_a_dense_triangular_solve(system):
    f, n, w = system
    k = TruncatedOperator(WordBasis(1, n - 1), f)
    A = scipy.linalg.toeplitz(np.concatenate((f, np.zeros(n - len(f)))), np.zeros(n))
    rhs = np.concatenate((w, np.zeros(n - len(w))))
    for adjoint, trans in ((False, "N"), (True, "C")):
        ref = scipy.linalg.solve_triangular(A, rhs, lower=True, trans=trans)
        got = k.solve(w, adjoint)
        assert got.shape == (n,)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@settings(max_examples=25, deadline=None)
@given(band_systems(), st.integers(1, 600))
def test_d1_solve_is_the_same_on_every_larger_basis(system, extra):
    # the blocks start at word 0 and have a length fixed by f, so the
    # solution's first n words do not depend on the basis size
    f, n, w = system
    x = TruncatedOperator(WordBasis(1, n - 1), f).solve(w)
    y = TruncatedOperator(WordBasis(1, n + extra - 1), f).solve(w)
    assert y[:n].tobytes() == x.tobytes()


def test_toeplitz_fill_is_scipys_bit_for_bit():
    rng = np.random.default_rng(5)
    for m, k in ((1, 1), (4, 7), (9, 3), (40, 40)):
        c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        r = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        for col, row in ((c, r), (c, np.zeros(k)), (c, c.conj())):
            ref = scipy.linalg.toeplitz(col, row)
            got = fock.toeplitz(col, row)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kind", ["degree 1", "full degree"])
def test_graded_inverse_d1_matches_dense_triangular_solve(kind):
    # the d = 1 product is the lower-triangular Toeplitz matrix of f; its
    # dense triangular solve is the reference for the banded one
    basis = WordBasis(1, 2999)
    n = basis.size
    if kind == "degree 1":  # |f_1| > |f_0|: the solution grows along the band
        c = np.zeros(n, dtype=complex)
        c[:2] = 0.8 - 0.3j, 0.9 * np.exp(1.1j)
    else:  # geometric decay; f_N is about 1e-291, so the band is the full matrix
        c = (1.5 + 0.5j) * (0.8 * np.exp(0.7j)) ** np.arange(n)
        assert c[-1] != 0
    A = scipy.linalg.toeplitz(c, np.zeros(n))
    op = TruncatedOperator(basis, c)
    rng = np.random.default_rng(11)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for got, trans in ((op.solve(w), "N"), (op.solve(w, adjoint=True), "C")):
        ref = scipy.linalg.solve_triangular(A, w, lower=True, trans=trans)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
