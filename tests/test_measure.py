import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncfatou import measure
from ncfatou.fock import FockVector, TruncatedOperator
from ncfatou.measure import (MomentFunctional, _gram_apply, _prefix_blocks, _prefix_sweep,
                             clark_measure, gram, herglotz_eval, herglotz_transform,
                             is_positive, nc_lebesgue, quadratic_form, read_moments_csv,
                             sos_split, vector_state)
from ncfatou.series import MatrixPoint, NCSeries, cayley_to_herglotz, evaluate
from ncfatou.words import WordBasis

from helpers import (basis_vector, herglotz_integral, left_multiplier_norm, vacuum,
                     write_moments_csv)


# -- independent oracle: formal Cayley transform by brute division ----------

def brute_cayley_herglotz(B: dict, d: int, N: int) -> dict:
    from test_series import brute_invert, brute_multiply
    one_minus = {(): 1.0}
    one_plus = {(): 1.0}
    for w, c in B.items():
        one_minus[w] = one_minus.get(w, 0.0) - c
        one_plus[w] = one_plus.get(w, 0.0) + c
    return brute_multiply(brute_invert(one_minus, d, N), one_plus, N)


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_clark_measure_on_a_larger_basis_restricts_bit_for_bit(d, seed, data):
    # the Cayley transform is a substitution over grades, so the moments
    # through grade N do not depend on the grades above it: rn_derivative
    # forms a symbol's Clark measure once, on its top stage grade, and
    # every stage restricts it
    top = data.draw(st.integers(0, {1: 300, 2: 9, 3: 6}[d]))
    deg = data.draw(st.integers(0, min(top, 3)))
    n = WordBasis(d, deg).size
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c *= data.draw(st.floats(0.05, 0.95)) / np.abs(c).sum()

    def clark_on(N):
        basis = WordBasis(d, N)
        return clark_measure(NCSeries(basis, np.pad(c, (0, basis.size - n))))

    big = clark_on(top)
    for N in range(deg, top + 1):
        assert np.array_equal(big.restricted(N).moments, clark_on(N).moments)


def test_nc_lebesgue_examples():
    basis = WordBasis(2, 3)
    m = nc_lebesgue(basis)
    assert m(()) == 1.0
    assert m((1, 2)) == 0.0
    assert np.allclose(gram(m).matrix, np.eye(basis.size))


def test_vector_state_examples():
    basis = WordBasis(1, 4)
    assert np.abs(vector_state(vacuum(basis)).moments
                  - nc_lebesgue(basis).moments).max() == 0.0
    x = FockVector(basis, vacuum(basis).coeffs + basis_vector(basis, (1,)).coeffs)
    mx = vector_state(x)
    assert mx((1,)) == 1.0  # <x, S x> = <e0 + e1, e1 + e2> = 1
    assert mx(()) == 2.0
    lam = np.linalg.eigvalsh(gram(mx).matrix).min()
    assert lam >= -1e-12


def test_vector_state_gram_is_shifted_inner_products():
    rng = np.random.default_rng(8)
    basis = WordBasis(2, 3)
    x = FockVector(basis, rng.standard_normal(basis.size)
                   + 1j * rng.standard_normal(basis.size))
    G = gram(vector_state(x)).matrix
    # brute force on an enlarged basis where no shift truncates
    big = WordBasis(2, 6)
    x_big = np.zeros(big.size, dtype=complex)
    x_big[:basis.size] = x.coeffs
    shifted = []  # Z^w x, left multiplication by the monomial of each word w
    for i in range(basis.size):
        c = np.zeros(big.size, dtype=complex)
        c[big.index(basis.word(i))] = 1.0
        shifted.append(TruncatedOperator(big, c).apply(x_big))
    for i in range(basis.size):
        for j in range(basis.size):
            assert G[i, j] == pytest.approx(np.vdot(shifted[i], shifted[j]), abs=1e-12)


def test_is_positive_examples():
    basis = WordBasis(1, 1)
    assert is_positive(nc_lebesgue(basis))
    bad = MomentFunctional(basis, np.array([0.0, 1.0], dtype=complex))
    report = is_positive(bad)
    assert not report
    assert report.min_eigenvalue == pytest.approx(-1.0, abs=1e-14)
    assert (report.grade, report.size, report.tol) == (1, 2, 1e-10)


def test_clark_measure_examples():
    basis = WordBasis(2, 4)
    assert np.abs(clark_measure(NCSeries.zero(basis)).moments
                  - nc_lebesgue(basis).moments).max() == 0.0
    # d=1, B = z: point mass moments, all ones
    b1 = WordBasis(1, 6)
    mu = clark_measure(NCSeries.from_dict(b1, {(1,): 1.0}))
    assert np.allclose(mu.moments, np.ones(7))
    # d=2, B = (z1+z2)/sqrt(2): mu(L^a) = 2^{-|a|/2}
    c = 2 ** -0.5
    B = NCSeries.from_dict(basis, {(1,): c, (2,): c})
    mu2 = clark_measure(B)
    expected = np.concatenate([
        np.full(2 ** g, 2.0 ** (-g / 2.0)) for g in range(5)])
    assert np.abs(mu2.moments - expected).max() < 1e-13
    # cross-check against the brute-division oracle
    H_oracle = brute_cayley_herglotz({(1,): c, (2,): c}, 2, 4)
    for w, val in H_oracle.items():
        if w:
            assert mu2(tuple(reversed(w))) == pytest.approx(
                np.conj(val) / 2.0, abs=1e-13)
    assert is_positive(mu2)


def test_herglotz_transform_examples():
    basis = WordBasis(2, 4)
    H = herglotz_transform(nc_lebesgue(basis))
    assert np.allclose(H.coeffs, NCSeries.one(basis).coeffs)
    # d=1, b = alpha z: mu(S^k) = conj(alpha)^k and H = 1 + 2 sum alpha^k z^k
    alpha = 0.6 * np.exp(0.3j)
    b1 = WordBasis(1, 8)
    mu = clark_measure(NCSeries.from_dict(b1, {(1,): alpha}))
    ks = np.arange(9)
    assert np.abs(mu.moments - np.conj(alpha) ** ks).max() < 1e-13
    H1 = herglotz_transform(mu)
    expected = 2.0 * alpha ** ks
    expected[0] = 1.0
    assert np.abs(H1.coeffs - expected).max() < 1e-13


def test_clark_herglotz_round_trip_random():
    rng = np.random.default_rng(15)
    basis = WordBasis(2, 5)
    B = NCSeries.from_dict(basis, {
        (1,): 0.3 * rng.standard_normal() + 0.2j,
        (2, 1): 0.25, (1, 1, 2): -0.15j})
    H = cayley_to_herglotz(B)
    mu = clark_measure(B)
    assert np.abs(herglotz_transform(mu).coeffs - H.coeffs).max() < 1e-12


def test_herglotz_eval_matches_series_evaluation():
    rng = np.random.default_rng(19)
    basis = WordBasis(2, 5)
    B = NCSeries.from_dict(basis, {(1,): 0.4, (2,): -0.3j, (1, 2): 0.1})
    mu = clark_measure(B)
    Z = MatrixPoint((0.3 * rng.standard_normal((2, 2)),
                     0.3 * rng.standard_normal((2, 2))))
    lhs = herglotz_eval(mu, Z)
    rhs = evaluate(herglotz_transform(mu), Z)
    assert np.abs(lhs.value - rhs.value).max() < 1e-13
    # positive real part up to the tail bound
    lam = np.linalg.eigvalsh(lhs.value + lhs.value.conj().T).min() / 2.0
    assert lam >= -lhs.tail - 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_herglotz_eval_matches_series_evaluation_deep_trie(n):
    # N = 16 splits the trie of evaluate at grade 8 with 2^8 leaf blocks
    rng = np.random.default_rng(23 + n)
    basis = WordBasis(2, 16)
    B = NCSeries.from_dict(basis, {(1,): 0.3, (2,): 0.25j, (1, 2): 0.2})
    mu = clark_measure(B)
    Z = MatrixPoint(tuple(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                          for _ in range(2)))
    Z = Z.scaled(0.6 / Z.row_norm)
    lhs = herglotz_eval(mu, Z).value
    rhs = evaluate(herglotz_transform(mu), Z).value
    assert np.abs(lhs - rhs).max() < 1e-13


@pytest.mark.parametrize("d, N, n", [(1, 40, 2), (3, 7, 1), (3, 7, 3)])
def test_herglotz_eval_matches_series_evaluation_at_d_1_and_3(d, N, n):
    rng = np.random.default_rng(5 * d + n)
    basis = WordBasis(d, N)
    B = NCSeries.from_dict(basis, {(1,): 0.3, (d,) * 2: 0.25j, (1, d): 0.2})
    mu = clark_measure(B)
    Z = MatrixPoint(tuple(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                          for _ in range(d)))
    Z = Z.scaled(0.6 / Z.row_norm)
    lhs = herglotz_eval(mu, Z).value
    rhs = evaluate(herglotz_transform(mu), Z).value
    assert np.abs(lhs - rhs).max() < 1e-13


def test_herglotz_eval_identity_for_vacuum_state():
    basis = WordBasis(2, 4)
    Z = MatrixPoint((0.2 * np.eye(2), 0.1 * np.ones((2, 2))))
    val, tail = herglotz_eval(nc_lebesgue(basis), Z)
    assert np.allclose(val, np.eye(2))


def test_herglotz_eval_matches_classical_integral():
    from ncfatou.oracle1d import MeasureSpec, classical_moments, poisson_density
    spec = MeasureSpec(point_masses=((0.5, 0.25),),
                       density=0.75 * poisson_density(0.4, 1.0))
    mu = classical_moments(spec, 400)
    z = 0.35 - 0.2j
    val, tail = herglotz_eval(mu, MatrixPoint((np.array([[z]]),)))
    ref = herglotz_integral(spec, z)
    assert abs(val[0, 0] - ref) <= tail + 1e-10


def test_gram_examples_and_fill_rule():
    b1 = WordBasis(1, 1)
    mu = MomentFunctional(b1, np.array([1.0, 1.0], dtype=complex))
    assert np.allclose(gram(mu).matrix, np.ones((2, 2)))
    basis = WordBasis(2, 2)
    rng = np.random.default_rng(31)
    moments = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    moments[0] = 2.0
    mu2 = MomentFunctional(basis, moments)
    G = gram(mu2).matrix
    assert G[basis.index((1,)), basis.index((2,))] == 0.0
    assert G[basis.index((1,)), basis.index((1, 2))] == mu2((2,))
    assert G[basis.index((1, 2)), basis.index((1,))] == np.conj(mu2((2,)))
    assert np.abs(G - G.conj().T).max() == 0.0
    v = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    assert np.abs(G @ v - _gram_apply(mu2)(v)).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), N=st.integers(0, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_graded_kernel_forms_match_word_arithmetic(d, N, seed):
    """gram, its matvec _gram_apply, vector_state and sos_split against sums over
    explicit pairs of words s, t."""
    rng = np.random.default_rng(seed)
    basis = WordBasis(d, N)
    n = basis.size

    def unit():
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return z / np.linalg.norm(z)

    mu = MomentFunctional(basis, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    x, p, v = unit(), unit(), unit()
    G = np.zeros((n, n), dtype=complex)
    m_x = np.zeros(n, dtype=complex)
    u = np.zeros(n, dtype=complex)
    for i, s in enumerate(basis):
        for j, t in enumerate(basis):
            if t[:len(s)] == s:  # t = s.g: G[s, t] = mu(g), G[t, s] = conj(mu(g))
                g = t[len(s):]
                if g:
                    G[i, j], G[j, i] = mu(g), np.conj(mu(g))
                else:
                    G[i, i] = mu.mass()
                u[basis.index(g)] += np.conj(p[i]) * p[j]
            if t[len(t) - len(s):] == s:  # t = w.s: m_x(w) gets conj(x_t) x_s
                m_x[basis.index(t[:len(t) - len(s)])] += np.conj(x[j]) * x[i]
    u[0] *= 0.5
    assert np.array_equal(gram(mu).matrix, G)
    assert np.abs(_gram_apply(mu)(v) - G @ v).max() < 1e-13
    assert np.abs(vector_state(FockVector(basis, x)).moments - m_x).max() < 1e-13
    assert np.abs(sos_split(FockVector(basis, p)).coeffs - u).max() < 1e-13


def _per_k_sweep(mu, eps, stop):
    """The prefix-tree sweep with one array per (grade, k) and one product
    per (g, i, k), the loop the stacked sweep replaced: the reference it
    must reproduce bit for bit."""
    b = mu.basis
    d = b.d
    D = [float(mu.moments[0].real)] * (b.N + 1)
    E = [[mu.moments[b.grade_slice(k)].copy() for k in range(1, g + 1)]
         for g in range(b.N + 1)]
    for g in range(b.N, stop, -1):
        pivot = D[g] + eps
        for i in range(1, g + 1):
            f = E[g][i - 1].conj() / pivot
            D[g - i] -= float((E[g][i - 1] * f).real.sum())
            for k in range(1, g - i + 1):
                E[g - i][k - 1] -= E[g][i + k - 1].reshape(d ** k, d ** i) @ f
    return D, E


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 2, 3, 4]), data=st.data(), eps=st.floats(0.1, 2.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_prefix_sweep_matches_the_per_k_loop_bit_for_bit(d, data, eps, seed):
    # one (sum_k d^k) x d^i product per (grade, i) in place of one d^k x d^i
    # product per (grade, i, k): the same dot products, so D and E agree
    # bit for bit, at every stop, the resumed sweep included
    basis = WordBasis(d, data.draw(st.integers(0, {1: 24, 2: 9, 3: 6, 4: 5}[d])))
    stops = sorted(data.draw(st.lists(st.integers(-1, basis.N), min_size=1, max_size=2)),
                   reverse=True)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    mu = vector_state(FockVector(basis, x * (rng.random(basis.size) < 0.5)))
    for stop, (D, E) in zip(stops, _prefix_sweep(mu, eps, stops)):
        D_ref, E_ref = _per_k_sweep(mu, eps, stop)
        assert D == D_ref
        for g in range(basis.N + 1):
            flat = np.concatenate(E_ref[g]) if g else np.zeros(0, dtype=complex)
            assert np.array_equal(E[g], flat)


def test_prefix_sweep_checks_the_grade_0_pivot():
    # G = [[1, 1, 1], [1, 1, 0], [1, 0, 1]]: the grade-1 pivots are
    # 1 + eps, and eliminating them leaves 1 + eps - 2/(1 + eps) at the
    # root, -0.35 at eps = 0.25; a sweep that stops at grade 0 never reads it
    mu = MomentFunctional(WordBasis(2, 1), np.ones(3, dtype=complex))
    (D, _), = _prefix_sweep(mu, 0.25, (0,))
    assert D[0] + 0.25 == pytest.approx(-0.35)
    with pytest.raises(np.linalg.LinAlgError, match="pivot -3.500e-01 at grade 0"):
        list(_prefix_sweep(mu, 0.25, (-1,)))


@pytest.mark.parametrize("d, N, M", [(1, 6, 2), (2, 4, 1), (3, 3, 2)])
def test_prefix_blocks_are_new_arrays_at_every_stop(d, N, M, monkeypatch):
    # the sweep updates its (D, E) in place between the yields; the blocks
    # read off it share no memory with it or with each other, and a block
    # kept past the next stop still holds the Schur complement of its stop
    basis = WordBasis(d, N)
    rng = np.random.default_rng(d)
    x = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    mu = vector_state(FockVector(basis, x * (rng.random(basis.size) < 0.5)))
    states = []

    def spy(*args):
        for D, E in _prefix_sweep(*args):
            states.append(E)
            yield D, E
    monkeypatch.setattr(measure, "_prefix_sweep", spy)
    eps, stops = 0.5, (N - 1, M)
    blocks = list(_prefix_blocks(mu, eps, stops, M))
    assert len(blocks) == 2 and not np.shares_memory(*blocks)
    assert not any(np.shares_memory(X, e) for X in blocks for E in states for e in E)
    A = gram(mu).matrix + eps * np.eye(basis.size)
    m = basis.sub_basis_size(M)
    for X, stop in zip(blocks, stops):
        k = basis.sub_basis_size(stop)
        S = A[:k, :k] - A[:k, k:] @ np.linalg.solve(A[k:, k:], A[k:, :k])
        assert np.allclose(X + eps * np.eye(m), S[:m, :m], rtol=0, atol=1e-10)


@pytest.mark.parametrize("d, N, terms", [(1, 9, 3), (2, 5, 4), (3, 3, 3), (2, 6, 3)])
def test_left_multiplier_norm_is_the_norm_on_an_enlarged_basis(d, N, terms):
    # against the compression of M^L_f to the grade <= N words inside a
    # basis deg f grades higher, where no product is truncated; the last
    # case has 127 words and takes the eigsh branch
    basis = WordBasis(d, N)
    rng = np.random.default_rng(N)
    words = [basis.word(int(i)) for i in rng.integers(0, basis.sub_basis_size(2), terms)]
    entries = {w: complex(*rng.standard_normal(2)) for w in words}
    f = NCSeries.from_dict(basis, entries)
    big = WordBasis(d, N + f.degree())
    g = NCSeries.from_dict(big, entries)
    cols = TruncatedOperator(big, g.coeffs).to_dense(basis.size)
    assert left_multiplier_norm(f) == pytest.approx(np.linalg.norm(cols, 2), rel=1e-11)


def test_gram_cone_structure():
    basis = WordBasis(2, 3)
    rng = np.random.default_rng(33)
    x = FockVector(basis, rng.standard_normal(basis.size))
    y = FockVector(basis, rng.standard_normal(basis.size))
    mu, lam = vector_state(x), vector_state(y)
    assert np.abs(gram(mu + lam).matrix
                  - (gram(mu).matrix + gram(lam).matrix)).max() < 1e-13
    assert np.abs(gram(2.5 * mu).matrix - 2.5 * gram(mu).matrix).max() < 1e-13


def test_sos_split_examples():
    basis = WordBasis(1, 3)
    u = sos_split(vacuum(basis))
    assert u.coefficient(()) == 0.5
    assert np.abs(u.coeffs[1:]).max() == 0.0
    p = FockVector(basis, vacuum(basis).coeffs + basis_vector(basis, (1,)).coeffs)
    u2 = sos_split(p)
    assert u2.coefficient(()) == 1.0
    assert u2.coefficient((1,)) == 1.0


def test_sos_split_identity_random():
    rng = np.random.default_rng(37)
    basis = WordBasis(2, 4)
    p = FockVector(basis, rng.standard_normal(basis.size)
                   + 1j * rng.standard_normal(basis.size))
    x = FockVector(basis, rng.standard_normal(basis.size))
    for mu in (vector_state(x), clark_measure(
            NCSeries.from_dict(basis, {(1,): 0.4, (2,): 0.3}))):
        u = sos_split(p)
        lhs = quadratic_form(mu, p)
        rhs = 2.0 * float(np.real(np.sum(u.coeffs * mu.moments)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_moments_csv_round_trip(tmp_path):
    basis = WordBasis(2, 2)
    mu = MomentFunctional(basis, np.array([1.0, 0.5, 0, 0.25j, 0, 0, 0]))
    path = tmp_path / "moments.csv"
    write_moments_csv(mu, path)
    nu = read_moments_csv(path, basis)
    assert np.abs(mu.moments - nu.moments).max() == 0.0
    # a file without the unit word is rejected
    bad = tmp_path / "bad.csv"
    bad.write_text("word,re,im\n1,0.5,0.0\n")
    with pytest.raises(ValueError):
        read_moments_csv(bad, basis)
