import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ncfatou.fock import TruncatedOperator
from ncfatou.series import (EvalResult, MatrixPoint, NCSeries, cayley_to_herglotz,
                            cayley_to_schur, evaluate, invert, kernel_identity,
                            radial_scale, read_series_csv, series_at_right_shifts,
                            szego_kernel, szego_kernel_matrix, transpose_conjugate)
from ncfatou.words import WordBasis
from helpers import left_multiplier_norm, write_series_csv
from test_measure import brute_cayley_herglotz


# -- independent brute-force oracle for the graded algebra ------------------

def brute_multiply(a: dict, b: dict, N: int) -> dict:
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            if len(w) <= N:
                out[w] = out.get(w, 0.0) + ca * cb
    return out


def brute_invert(f: dict, d: int, N: int) -> dict:
    basis = WordBasis(d, N)
    inv = {(): 1.0 / f[()]}
    for i in range(1, basis.size):
        w = basis.word(i)
        s = 0.0
        for cut in range(1, len(w) + 1):
            u, v = w[:cut], w[cut:]
            if u in f and v in inv:
                s += f[u] * inv[v]
        inv[w] = -s / f[()]
    return inv


def series_from(basis, entries):
    return NCSeries.from_dict(basis, entries)


def product(f, g):
    """The graded Cauchy product f g: f's left multiplier applied to g."""
    return NCSeries(f.basis, TruncatedOperator(f.basis, f.coeffs).apply(g.coeffs))


def test_multiply_examples():
    basis = WordBasis(2, 4)
    z1 = series_from(basis, {(1,): 1.0})
    z2 = series_from(basis, {(2,): 1.0})
    prod = product(z1, z2)
    assert prod.coefficient((1, 2)) == 1.0
    assert prod.coefficient((2, 1)) == 0.0
    assert np.abs(product(z1, z2).coeffs - product(z2, z1).coeffs).max() == 1.0


def test_geometric_inverse_d1():
    basis = WordBasis(1, 12)
    f = series_from(basis, {(): 1.0, (1,): -1.0})
    g = invert(f)
    assert np.allclose(g.coeffs, np.ones(13))
    assert np.allclose(product(f, g).coeffs, NCSeries.one(basis).coeffs)


@pytest.mark.parametrize("d, N, f, tol", [
    # B(Z) = (Z_2 - Z_2 Z_1)/sqrt(2); invert 1 - B
    (2, 6, {(): 1.0, (2,): -2 ** -0.5, (2, 1): 2 ** -0.5}, 1e-15),
    # |f_1| > |f_0|: the inverse grows like 1.05^n
    (1, 40, {(): 0.8 - 0.3j, (1,): 0.9 * np.exp(1.1j)}, 1e-14),
    (1, 12, {(): 1.0, (1,): -0.5, (1, 1): 0.25j, (1, 1, 1, 1, 1): -0.125}, 1e-14),
], ids=["remark-d2", "d1-growing", "d1-gapped"])
def test_invert_matches_brute_oracle(d, N, f, tol):
    # compare with the word-convolution oracle, coefficient by coefficient
    basis = WordBasis(d, N)
    g = invert(series_from(basis, f))
    for w, val in brute_invert(f, d, N).items():
        assert g.coefficient(w) == pytest.approx(val, abs=tol * max(1.0, abs(val)))
    assert np.abs(product(series_from(basis, f), g).coeffs
                  - NCSeries.one(basis).coeffs).max() < 1e-14


def test_invert_rejects_zero_germ():
    basis = WordBasis(2, 3)
    with pytest.raises(ValueError):
        invert(series_from(basis, {(1,): 1.0}))


def test_multiply_matches_brute_oracle_random():
    rng = np.random.default_rng(5)
    basis = WordBasis(2, 5)
    fa = {basis.word(i): complex(x, y) for i, x, y in
          zip(rng.integers(0, basis.size, 6), rng.standard_normal(6),
              rng.standard_normal(6))}
    fb = {basis.word(i): complex(x, y) for i, x, y in
          zip(rng.integers(0, basis.size, 6), rng.standard_normal(6),
              rng.standard_normal(6))}
    prod = product(series_from(basis, fa), series_from(basis, fb))
    oracle = brute_multiply(fa, fb, 5)
    for i in range(basis.size):
        w = basis.word(i)
        assert prod.coefficient(w) == pytest.approx(oracle.get(w, 0.0), abs=1e-12)


def test_cayley_examples_and_round_trip():
    basis = WordBasis(2, 5)
    H0 = cayley_to_herglotz(NCSeries.zero(basis))
    assert np.allclose(H0.coeffs, NCSeries.one(basis).coeffs)
    # d=1, B = z: H = 1 + 2 sum z^k  (formal series division oracle)
    b1 = WordBasis(1, 8)
    H = cayley_to_herglotz(series_from(b1, {(1,): 1.0}))
    assert np.allclose(H.coeffs, np.array([1.0] + [2.0] * 8))
    rng = np.random.default_rng(11)
    B = series_from(basis, {(1,): 0.3, (2,): 0.2j, (1, 2): -0.15,
                            (2, 2, 1): 0.1})
    round_trip = cayley_to_schur(cayley_to_herglotz(B))
    assert np.abs(round_trip.coeffs - B.coeffs).max() < 1e-12


def test_cayley_rejects_boundary_germ():
    basis = WordBasis(1, 3)
    with pytest.raises(ValueError):
        cayley_to_herglotz(series_from(basis, {(): 1.0}))
    with pytest.raises(ValueError):
        cayley_to_schur(series_from(basis, {(): -1.0}))


symbols = st.lists(st.tuples(st.integers(1, 14), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
                   min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 2), terms=symbols, germ=st.complex_numbers(max_magnitude=0.9))
def test_cayley_matches_brute_product_oracle(d, terms, germ):
    # H = 2 (1 - B)^{-1} - 1 against (1 - B)^{-1}(1 + B) by word convolution
    basis = WordBasis(d, 4 if d == 1 else 3)
    B = {(): germ}
    for i, re, im in terms:
        w = basis.word(1 + i % (basis.size - 1))  # the germ stays put
        B[w] = B.get(w, 0.0) + re + 1j * im
    H = cayley_to_herglotz(series_from(basis, B))
    for w, val in brute_cayley_herglotz(B, d, basis.N).items():
        assert abs(H.coefficient(w) - val) <= 1e-13 * max(1.0, abs(val))
    back = cayley_to_schur(H)
    assert np.abs(back.coeffs - series_from(basis, B).coeffs).max() < 1e-12


def test_cayley_is_one_solve_and_no_product(monkeypatch):
    calls = []
    for name in ("solve", "apply", "adjoint_apply"):
        real = getattr(TruncatedOperator, name)

        def counted(self, *args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(TruncatedOperator, name, counted)
    B = series_from(WordBasis(2, 6), {(1,): 0.4, (2, 1): -0.3j})
    H = cayley_to_herglotz(B)
    assert calls == ["solve"]
    cayley_to_schur(H)
    assert calls == ["solve", "solve"]


def _cayley_by_rescale(f, s):
    # the reference: solve against the vacuum, then scale the whole
    # solution by 2s in a pass of its own
    k = f.coeffs[:f.basis.sub_basis_size(f.degree())] * -s
    k[0] += 1.0
    h = TruncatedOperator(f.basis, k).solve(np.ones(1, dtype=complex))
    h *= 2.0 * s
    h[0] -= s
    return h


@pytest.mark.parametrize("d, N", [(1, 300), (2, 9), (3, 6)])
def test_cayley_is_the_rescaled_solve_bit_for_bit(d, N):
    # 2s = +-2 is a power of two: solving against 2s rounds every product
    # and difference exactly as scaling the solution afterwards does
    rng = np.random.default_rng(41 + d)
    basis = WordBasis(d, N)
    m = basis.sub_basis_size(2)
    c = np.zeros(basis.size, dtype=complex)
    c[:m] = 0.3 * (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(m)
    B = NCSeries(basis, c)
    H = cayley_to_herglotz(B)
    assert np.array_equal(H.coeffs, _cayley_by_rescale(B, 1.0))
    assert np.array_equal(cayley_to_schur(H).coeffs, _cayley_by_rescale(H, -1.0))


def test_radial_scale():
    basis = WordBasis(1, 4)
    const = NCSeries.one(basis)
    assert np.allclose(radial_scale(const, 0.3).coeffs, const.coeffs)
    z = series_from(basis, {(1,): 1.0})
    assert radial_scale(z, 0.5).coefficient((1,)) == 0.5
    # every grade of d = 1 holds one word; d = 2 repeats r^g over its grade
    for basis in (WordBasis(1, 5), WordBasis(2, 4)):
        c = np.arange(1.0, basis.size + 1)
        powers = 0.7 ** np.arange(basis.N + 1)
        expected = [c[i] * powers[len(w)] for i, w in enumerate(basis)]
        assert np.array_equal(radial_scale(NCSeries(basis, c), 0.7).coeffs, expected)
    with pytest.raises(ValueError):
        radial_scale(z, 1.0)
    with pytest.raises(ValueError):
        radial_scale(z, 0.0)


def test_radial_scale_evaluation_identity():
    rng = np.random.default_rng(2)
    basis = WordBasis(2, 6)
    f = series_from(basis, {basis.word(i): complex(a, b) for i, a, b in
                            zip(rng.integers(0, basis.size, 8),
                                rng.standard_normal(8), rng.standard_normal(8))})
    Z = MatrixPoint((0.25 * rng.standard_normal((3, 3)),
                     0.25 * rng.standard_normal((3, 3))))
    r = 0.75
    lhs = evaluate(radial_scale(f, r), Z).value
    rhs = evaluate(f, Z.scaled(r)).value
    assert np.abs(lhs - rhs).max() < 1e-12


def test_transpose_conjugate():
    basis = WordBasis(2, 4)
    f = series_from(basis, {(1, 2): 1.0})
    assert transpose_conjugate(f).coefficient((2, 1)) == 1.0
    b1 = WordBasis(1, 5)
    g = NCSeries(b1, np.arange(6, dtype=complex))
    assert np.allclose(transpose_conjugate(g).coeffs, g.coeffs)
    # involution
    assert np.allclose(transpose_conjugate(transpose_conjugate(f)).coeffs, f.coeffs)


def test_right_multiplier_is_transposed_left_multiplier():
    basis = WordBasis(2, 4)
    rng = np.random.default_rng(9)
    f = series_from(basis, {(1,): 0.7, (2, 1): -0.4j, (1, 1, 2): 0.2})
    p = basis.transpose_permutation  # U: e_w -> e_{transpose(w)}
    v = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    lhs = TruncatedOperator(basis, f.coeffs, "right").apply(v)
    ft = transpose_conjugate(f)
    rhs = TruncatedOperator(basis, ft.coeffs).apply(v[p])[p]
    assert np.abs(lhs - rhs).max() < 1e-12
    # and f(R) = U f(L) U
    lhs2 = series_at_right_shifts(f).apply(v)
    rhs2 = TruncatedOperator(basis, f.coeffs).apply(v[p])[p]
    assert np.abs(lhs2 - rhs2).max() < 1e-12


def test_left_multiplier_examples():
    basis = WordBasis(2, 3)
    from ncfatou.fock import left_shift
    z1 = series_from(basis, {(1,): 1.0})
    assert np.abs(TruncatedOperator(basis, z1.coeffs, "left").to_dense()
                  - left_shift(basis, 1).to_dense()).max() == 0.0
    one = NCSeries.one(basis)
    assert np.allclose(TruncatedOperator(basis, one.coeffs, "left").to_dense(),
                       np.eye(basis.size))


def test_left_multiplier_homomorphism_exact():
    # compressions of grade-raising operators compose exactly
    basis = WordBasis(2, 5)
    rng = np.random.default_rng(4)
    f = series_from(basis, {(1,): 0.5, (2, 1): 0.25})
    g = series_from(basis, {(): 1.0, (2,): -0.5j})
    v = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    fg = product(f, g)
    lhs = TruncatedOperator(basis, fg.coeffs, "left").apply(v)
    rhs = TruncatedOperator(basis, f.coeffs, "left").apply(
        TruncatedOperator(basis, g.coeffs, "left").apply(v))
    assert np.abs(lhs - rhs).max() < 1e-14


def test_remark_example_right_isometry_and_left_norm():
    # B(Z) = 2^{-1/2} Z_2 (I - Z_1): inner as a right multiplier, but with
    # left multiplier norm sqrt(1 + cos(pi/(N+2))) on the truncated domain
    N = 8
    basis = WordBasis(2, N)
    c = 2 ** -0.5
    B = series_from(basis, {(2,): c, (2, 1): -c})
    M = TruncatedOperator(basis, B.coeffs, "right")
    m_low = basis.sub_basis_size(N - 2)
    rng = np.random.default_rng(6)
    for _ in range(10):
        v = np.zeros(basis.size, dtype=complex)
        w = np.zeros(basis.size, dtype=complex)
        v[:m_low] = rng.standard_normal(m_low) + 1j * rng.standard_normal(m_low)
        w[:m_low] = rng.standard_normal(m_low)
        assert abs(np.vdot(M.apply(v), M.apply(w)) - np.vdot(v, w)) < 1e-12 * \
            np.linalg.norm(v) * np.linalg.norm(w)
    norm = left_multiplier_norm(B)
    assert norm == pytest.approx(np.sqrt(1 + np.cos(np.pi / (N + 2))), abs=1e-7)


def test_evaluate_examples():
    basis = WordBasis(2, 4)
    f = series_from(basis, {(): 1.0, (1,): 1.0})
    Z0 = MatrixPoint((np.zeros((3, 3)), np.zeros((3, 3))))
    val, tail = evaluate(f, Z0)
    assert np.allclose(val, np.eye(3))
    assert tail == 0.0
    # d=1 geometric series at 0.5
    b1 = WordBasis(1, 40)
    geo = NCSeries(b1, np.ones(41, dtype=complex))
    val, tail = evaluate(geo, MatrixPoint((np.array([[0.5]]),)))
    assert abs(val[0, 0] - 2.0) <= tail + 1e-12
    assert tail < 1e-10


def brute_evaluate(f: NCSeries, Z: MatrixPoint):
    """sum_a c_a Z_{a_1} ... Z_{a_|a|} by explicit products; also returns
    sum_a |c_a| ||Z^a||, the scale of the rounding errors."""
    n = Z.n
    total = np.zeros((n, n), dtype=complex)
    scale = 0.0
    for i in np.flatnonzero(f.coeffs):
        term = np.eye(n, dtype=complex)
        for letter in f.basis.word(int(i)):
            term = term @ Z.Z[letter - 1]
        total += f.coeffs[i] * term
        scale += abs(f.coeffs[i]) * np.linalg.norm(term)
    return total, scale


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 3), N=st.integers(0, 6), deg=st.integers(0, 6),
       n=st.integers(1, 3), rho=st.floats(0.05, 0.95), seed=st.integers(0, 2 ** 16))
@example(d=2, N=5, deg=0, n=2, rho=0.5, seed=0)  # degree 0 below N: no split
@example(d=3, N=6, deg=6, n=3, rho=0.9, seed=1)  # even degree
@example(d=2, N=6, deg=5, n=2, rho=0.7, seed=2)  # odd degree below N
@example(d=1, N=6, deg=3, n=1, rho=0.6, seed=3)
def test_evaluate_matches_explicit_products(d, N, deg, n, rho, seed):
    deg = min(deg, N)
    rng = np.random.default_rng(seed)
    basis = WordBasis(d, N)
    m = basis.sub_basis_size(deg)
    coeffs = np.zeros(basis.size, dtype=complex)
    coeffs[:m] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    f = NCSeries(basis, coeffs)
    assert f.degree() == deg
    Z = MatrixPoint(tuple(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                          for _ in range(d)))
    Z = Z.scaled(rho / Z.row_norm)
    value, tail = evaluate(f, Z)
    ref, scale = brute_evaluate(f, Z)
    assert np.linalg.norm(value - ref) <= 1e-12 * scale
    r = Z.row_norm
    # ||f|| is one fixed-order pass over the real view, not a BLAS norm
    v = coeffs[:m].view(float)
    assert tail == np.sqrt(np.einsum("i,i", v, v)) * r ** (N + 1) / np.sqrt(1.0 - r ** 2)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 3), N=st.integers(0, 8), deg=st.integers(0, 8),
       sizes=st.lists(st.integers(1, 3), min_size=1, max_size=9),
       seed=st.integers(0, 2 ** 16))
@example(d=2, N=7, deg=7, sizes=[3, 1, 2, 3], seed=0)  # n = 3 and n = 1 beside others
@example(d=3, N=1, deg=1, sizes=[1, 1, 3], seed=1)  # no split: g0 = 0
@example(d=1, N=8, deg=0, sizes=[2], seed=2)
@example(d=2, N=8, deg=8, sizes=[1, 2, 3] * 3, seed=3)  # three points of each size
@example(d=3, N=5, deg=5, sizes=[2, 2, 1, 3, 3, 1, 2], seed=4)
def test_evaluate_at_several_points_equals_each_point_alone(d, N, deg, sizes, seed):
    # the points of one size share batched products, and the points of all
    # sizes one coefficient sweep; each point's value and tail are the same
    # bits alone, as a one-point sweep, in the sweep and in a shuffled sweep
    deg = min(deg, N)
    rng = np.random.default_rng(seed)
    basis = WordBasis(d, N)
    m = basis.sub_basis_size(deg)
    coeffs = np.zeros(basis.size, dtype=complex)
    coeffs[:m] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    f = NCSeries(basis, coeffs)
    points = []
    for n in sizes:
        Z = MatrixPoint(tuple(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                              for _ in range(d)))
        points.append(Z.scaled(rng.uniform(0.05, 0.95) / Z.row_norm))
    results = evaluate(f, points)
    assert isinstance(results, list) and len(results) == len(points)
    order = rng.permutation(len(points))
    shuffled = evaluate(f, [points[i] for i in order])
    for Z, res, again in zip(points, results, [shuffled[i] for i in np.argsort(order)]):
        alone = evaluate(f, Z)
        assert isinstance(alone, EvalResult)
        (single,) = evaluate(f, [Z])
        for other in (single, res, again):  # signed zeros too
            assert np.array_equal(_bits(other.value), _bits(alone.value))
            assert other.tail == alone.tail


def test_evaluate_rejects_boundary_point():
    basis = WordBasis(2, 3)
    f = NCSeries.one(basis)
    Z = MatrixPoint((np.eye(2) * 0.8, np.eye(2) * 0.61))
    assert Z.row_norm > 1.0
    with pytest.raises(ValueError):
        evaluate(f, Z)


def test_evaluate_respects_similarity():
    rng = np.random.default_rng(13)
    basis = WordBasis(2, 5)
    f = series_from(basis, {(): 0.5, (1, 2): 1.0, (2,): -0.3})
    A = (0.2 * rng.standard_normal((3, 3)), 0.2 * rng.standard_normal((3, 3)))
    S = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
    Sinv = np.linalg.inv(S)
    W = MatrixPoint(tuple(Sinv @ M @ S for M in A))
    Z = MatrixPoint(A)
    assert np.abs(evaluate(f, W).value
                  - Sinv @ evaluate(f, Z).value @ S).max() < 1e-12


def test_szego_kernel_examples():
    Z0 = MatrixPoint((np.zeros((2, 2)), np.zeros((2, 2))))
    P = np.array([[1.0, 2.0], [3.0, 4.0]])
    val, tail = szego_kernel(Z0, Z0, P, order=5)
    assert np.allclose(val, P) and tail == 0.0
    # d=1 scalars: 1/(1 - z conj(w))
    z, w = 0.4 + 0.1j, -0.3 + 0.2j
    Zp = MatrixPoint((np.array([[z]]),))
    Wp = MatrixPoint((np.array([[w]]),))
    val, tail = szego_kernel(Zp, Wp, np.eye(1), order=80)
    assert abs(val[0, 0] - 1.0 / (1.0 - z * np.conj(w))) < 1e-12


def test_szego_kernel_psd_realization():
    rng = np.random.default_rng(21)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3))
    pt = MatrixPoint((A, B))
    scale = 0.5 / pt.row_norm
    Z = MatrixPoint((scale * A, scale * B))
    K = szego_kernel_matrix(Z, Z, order=40)
    lam = np.linalg.eigvalsh(0.5 * (K + K.conj().T)).min()
    assert lam >= -1e-10


def test_szego_kernel_matrix_is_the_column_loop_bit_for_bit():
    # the reference applies the kernel to one unit matrix per column
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            Z, W = (MatrixPoint(tuple(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
                                      for _ in range(2))) for k in (n, m))
            Z, W = Z.scaled(0.4 / Z.row_norm), W.scaled(0.3 / W.row_norm)
            ref = np.empty((n * m, n * m), dtype=complex)
            E = np.zeros((n, m), dtype=complex)
            for j in range(n * m):
                col, row = divmod(j, n)
                E[row, col] = 1.0
                ref[:, j] = szego_kernel(Z, W, E, 12).value.ravel(order="F")
                E[row, col] = 0.0
            assert np.array_equal(szego_kernel_matrix(Z, W, 12), ref)
            stack = rng.standard_normal((2, 4, n, m))
            val, tail = szego_kernel(Z, W, stack, 12)
            assert val.shape == stack.shape and tail.shape == (2, 4)
            one = szego_kernel(Z, W, stack[1, 3], 12)
            assert np.array_equal(val[1, 3], one.value) and tail[1, 3] == one.tail


@pytest.mark.parametrize("d", [1, 2, 3])
def test_szego_kernel_is_the_per_letter_loop_bit_for_bit(d):
    # the letters stacked once against the sum over letters, one pair of
    # products per letter, in the same order
    rng = np.random.default_rng(29 + d)
    order = 10
    for n, m in ((1, 1), (2, 3), (3, 2)):
        Z, W = (MatrixPoint(tuple(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
                                  for _ in range(d))) for k in (n, m))
        Z, W = Z.scaled(0.4 / Z.row_norm), W.scaled(0.3 / W.row_norm)
        for shape in ((n, m), (3, n, m), (2, 2, n, m)):
            P = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            total, S = P.copy(), P.copy()
            for _ in range(order):
                S = sum(Zk @ S @ Wk.conj().T for Zk, Wk in zip(Z.Z, W.Z))
                total += S
            assert np.array_equal(szego_kernel(Z, W, P, order).value, total)


def test_kernel_identity_is_three_lone_szego_kernels_bit_for_bit():
    # left is K[P] - K[B(Z) P B(W)^*] and right is K[A], A = (H(Z) Q + Q H(W)^*)/2,
    # each kernel value and tail the bytes of a lone szego_kernel call
    rng = np.random.default_rng(31)
    basis = WordBasis(2, 8)
    B = series_from(basis, {(1,): 0.3, (2,): 0.25j, (1, 2): 0.2})
    H = cayley_to_herglotz(B)
    for n, m in ((1, 1), (1, 3), (2, 2), (3, 2)):
        Z, W = (MatrixPoint(tuple(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
                                  for _ in range(2))) for k in (n, m))
        Z, W = Z.scaled(0.4 / Z.row_norm), W.scaled(0.3 / W.row_norm)
        BZ, BW = evaluate(B, [Z, W])
        HZ, HW = evaluate(H, [Z, W])
        P = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        Q = (np.eye(n) - BZ.value) @ P @ (np.eye(m) - BW.value).conj().T
        first = szego_kernel(Z, W, P, basis.N)
        second = szego_kernel(Z, W, BZ.value @ P @ BW.value.conj().T, basis.N)
        third = szego_kernel(Z, W, 0.5 * (HZ.value @ Q + Q @ HW.value.conj().T), basis.N)
        gap = 1.0 - Z.row_norm * W.row_norm
        left, right = kernel_identity(BZ, BW, HZ, HW, Z, W, P, basis.N)
        assert left.value.tobytes() == (first.value - second.value).tobytes()
        assert left.tail == first.tail + second.tail + \
            (BZ.tail + BW.tail) * (np.linalg.norm(P, 2) / gap)
        assert right.value.tobytes() == third.value.tobytes()
        assert right.tail == third.tail + 0.5 * (HZ.tail + HW.tail) * (np.linalg.norm(Q, 2) / gap)
        assert type(left.tail) is float and type(right.tail) is float


def test_kernel_identity_small():
    # K^B(Z,W)[P] = K^H(Z,W)[(I-B(Z)) P (I-B(W))^*]
    rng = np.random.default_rng(17)
    basis = WordBasis(2, 14)
    B = series_from(basis, {(1,): 0.3, (2,): 0.25j, (2, 1): -0.2})
    H = cayley_to_herglotz(B)
    for _ in range(3):
        mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(4)]
        Zr = MatrixPoint(tuple(mats[:2]))
        Wr = MatrixPoint(tuple(mats[2:]))
        Z = MatrixPoint(tuple(0.15 / Zr.row_norm * M for M in Zr.Z))
        W = MatrixPoint(tuple(0.15 / Wr.row_norm * M for M in Wr.Z))
        P = rng.standard_normal((2, 2))
        left, right = kernel_identity(*evaluate(B, [Z, W]), *evaluate(H, [Z, W]), Z, W, P,
                                      basis.N)
        assert np.abs(left.value - right.value).max() < 1e-9
    # sanity: B = 0 and H = 1 reduce both sides to the Szego kernel K[P]
    zero, one = (evaluate(f, [Z, W]) for f in (NCSeries.zero(basis), NCSeries.one(basis)))
    left, right = kernel_identity(*zero, *one, Z, W, P, 10)
    ref, _ = szego_kernel(Z, W, P, 10)
    assert np.abs(left.value - ref).max() < 1e-14
    assert np.abs(right.value - ref).max() < 1e-14


def test_series_csv_round_trip(tmp_path):
    basis = WordBasis(2, 3)
    f = series_from(basis, {(): 1.5, (2, 1): -0.25 + 0.75j})
    path = tmp_path / "series.csv"
    write_series_csv(f, path)
    g = read_series_csv(path, basis)
    assert np.abs(f.coeffs - g.coeffs).max() == 0.0
    with pytest.raises(ValueError):
        read_series_csv(path, WordBasis(1, 3))
    # a value that is not finite is refused naming the word; the caller
    # names the file
    for row in ("21,nan,0", "e,1,inf", "1,1e400,0"):
        path.write_text(f"word,re,im\n{row}\n")
        word = row.split(",")[0]
        with pytest.raises(ValueError, match=f"^word '{word}' has a value that is not"):
            read_series_csv(path, basis)


def test_norm_and_degree_are_cached_and_cannot_go_stale():
    basis = WordBasis(2, 3)
    f = NCSeries(basis, np.zeros(basis.size, dtype=complex))
    f.coeffs[basis.index((1, 2))] = 3.0 + 4.0j  # in place, before the first read
    assert (f.norm(), f.degree(), f.degree(floor=5.0)) == (5.0, 2, 0)
    with pytest.raises(ValueError):
        f.coeffs[0] = 1.0


def _degree_by_grade(f, floors):
    # one grade at a time: at floor 0 any nonzero entry, NaN included; above
    # it every grade whose largest modulus is not <= floor, so a NaN in the
    # grade (which makes that maximum NaN) counts at every floor
    blocks = [f.coeffs[f.basis.grade_slice(g)] for g in range(f.basis.N + 1)]
    nonzero = [g for g, b in enumerate(blocks) if b.any()]
    top = [abs(b).max() for b in blocks]
    return [nonzero[-1] if nonzero else 0] + [
        max([g for g, m in enumerate(top) if not m <= floor], default=0)
        for floor in floors[1:]]


def test_degree_examples():
    long = WordBasis(1, 20000)  # 19999 zero grades above the last nonzero one
    assert series_from(long, {(): 1.0, (1,): 0.5}).degree() == 1
    big = WordBasis(2, 20)
    sparse = series_from(big, {(1,): 0.3, (2,): 0.25j, (1, 2): 0.2})
    assert sparse.degree() == 2
    assert NCSeries.zero(big).degree() == 0
    top = series_from(big, {(): 1.0, (2,) * 20: 1e-300j})  # imaginary part only
    assert top.degree() == 20
    basis = WordBasis(2, 4)
    assert series_from(basis, {(1,): 1.0, (1, 2, 1): -0.0}).degree() == 1
    assert series_from(basis, {(1,): 1.0, (1, 2, 1): complex(0.0, -0.0)}).degree() == 1
    assert series_from(basis, {(1,): -0.0}).degree() == 0


def test_degree_counts_nan_as_nonzero():
    # a NaN above the last finite coefficient is part of the series: it
    # enters the evaluation instead of being cut off with the grades above
    basis = WordBasis(2, 4)
    f = series_from(basis, {(1,): 0.3, (1, 2, 1): np.nan})
    assert f.degree() == 3
    value, tail = evaluate(f, MatrixPoint((0.1 * np.eye(1), np.zeros((1, 1)))))
    assert np.isnan(value).all() and np.isnan(tail)
    assert series_from(basis, {(): complex(0.0, np.nan)}).degree() == 0
    assert series_from(basis, {(2, 2, 2, 2): complex(0.0, np.nan)}).degree() == 4
    # above a floor too: a NaN next to 1.0 in grade 5 keeps grade 5
    g = series_from(WordBasis(2, 5), {(1,) * 5: 1.0, (2,) * 5: np.nan})
    assert g.degree(0.5) == 5
    assert series_from(basis, {(1,): 0.3, (1, 2, 1): np.nan}).degree(0.5) == 3


def test_from_dict_and_one_know_the_scanned_degree():
    # the degree from the words written equals the scan of the same
    # coefficients, and the coefficients are read-only from the start
    big, small = WordBasis(2, 20), WordBasis(3, 4)
    cases = [(big, {}), (big, {(1,): 0.0}), (big, {(1, 2): 0.5, (2,) * 20: 0.0}),
             (big, {(2,) * 20: 1e-300j, (): 1.0}),  # the deepest word first
             (big, {(1,) * 7: 0.25, (2,): 0.5j, (1, 2): -1.0}),
             (small, {(1, 2, 3): np.nan}), (small, {(): complex(0.0, np.nan), (3, 3): -0.0}),
             (small, {(2, 1): complex(0.0, -0.0), (1,): 2.0}),
             (small, {(3, 1, 2, 2): np.nan, (1,): 0.0})]
    for basis, entries in cases:
        f = NCSeries.from_dict(basis, entries)
        assert not f.coeffs.flags.writeable
        assert f.degree() == NCSeries(basis, f.coeffs.copy()).degree(), entries
    for basis in (big, small, WordBasis(1, 0)):
        f = NCSeries.one(basis)
        assert not f.coeffs.flags.writeable
        assert f.degree() == NCSeries(basis, f.coeffs.copy()).degree() == 0
        with pytest.raises(ValueError):
            f.coeffs[1 % basis.size] = 1.0


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), big=st.booleans(),
       entries=st.lists(st.tuples(st.floats(0, 1), st.sampled_from(
           [1.0, 1j, -0.0, complex(-0.0, -0.0), 1e-320, np.nan, 0.4, 2.5])), max_size=6))
def test_degree_is_the_last_grade_above_the_floor(d, big, entries):
    # the scan from the end, across its block boundaries, against the
    # grade-by-grade definition; floor > 0 keeps its per-grade maximum
    basis = WordBasis(d, {1: 9000 if big else 12, 2: 14 if big else 5, 3: 9 if big else 3}[d])
    c = np.zeros(basis.size, dtype=complex)
    for where, value in entries:
        c[min(int(where * basis.size), basis.size - 1)] = value
    f = NCSeries(basis, c)
    floors = (0.0, 0.5, 2.0)
    assert [f.degree(floor) for floor in floors] == _degree_by_grade(f, floors)
    assert not f.coeffs.flags.writeable


small_series = st.lists(
    st.tuples(st.integers(0, 6), st.floats(-2, 2), st.floats(-2, 2)),
    min_size=0, max_size=5)


@settings(max_examples=60, deadline=None)
@given(small_series, small_series)
def test_multiply_distributes_over_addition(fa, fb):
    basis = WordBasis(2, 3)
    f = NCSeries(basis, np.zeros(basis.size, dtype=complex))
    g = NCSeries(basis, np.zeros(basis.size, dtype=complex))
    for i, re, im in fa:
        f.coeffs[i] += re + 1j * im
    for i, re, im in fb:
        g.coeffs[i] += re + 1j * im
    h = series_from(basis, {(1,): 0.5, (2,): -1.0})
    lhs = product(NCSeries(basis, f.coeffs + g.coeffs), h).coeffs
    rhs = product(f, h).coeffs + product(g, h).coeffs
    assert np.abs(lhs - rhs).max() < 1e-12
