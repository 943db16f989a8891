import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncfatou.words import WordBasis, transpose, word_count, word_from_str, word_to_str


def test_transpose_examples():
    assert transpose((1, 2)) == (2, 1)
    assert transpose(()) == ()
    assert transpose((1, 2, 1)) == (1, 2, 1)


def test_enumerate_examples():
    b = WordBasis(2, 2)
    assert [word_to_str(w) for w in b] == ["e", "1", "2", "11", "12", "21", "22"]
    assert b.size == 7
    assert [word_to_str(w) for w in WordBasis(1, 3)] == ["e", "1", "11", "111"]
    assert WordBasis(3, 1).size == 4


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        WordBasis(0, 3)
    with pytest.raises(ValueError):
        WordBasis(2, -1)


def test_a_basis_beyond_int64_is_refused():
    # the offsets are int64: a larger word count would wrap, not fail
    for d, N in ((3, 40), (2, 63)):
        with pytest.raises(ValueError, match=f"d = {d}, N = {N}: {word_count(d, N)} words"):
            WordBasis(d, N)
    assert WordBasis(2, 62).size == 2 ** 63 - 1


def test_d1_offsets_match_the_general_formula():
    # d = 1 takes arange in place of the powers and cumsum of every other d
    for N in (0, 1, 18854):
        counts = 1 ** np.arange(N + 1, dtype=np.int64)
        general = np.concatenate(([0], np.cumsum(counts)))
        offsets = WordBasis(1, N).offsets
        assert offsets.dtype == general.dtype and np.array_equal(offsets, general)


def test_word_count_formula():
    assert word_count(2, 3) == (2 ** 4 - 1) // (2 - 1)
    assert word_count(1, 7) == 8
    assert word_count(3, 2) == 13


def test_serialization_round_trip():
    for s in ("e", "1", "121", "3312"):
        assert word_to_str(word_from_str(s)) == s
    with pytest.raises(ValueError):
        word_from_str("102")
    with pytest.raises(ValueError):
        word_from_str("13", d=2)
    with pytest.raises(ValueError):
        word_from_str("x1")


def test_index_word_bijection_and_monotonicity():
    b = WordBasis(3, 4)
    prev = None
    for i in range(b.size):
        w = b.word(i)
        assert b.index(w) == i
        key = (len(w), w)
        if prev is not None:
            assert prev < key
        prev = key


def test_index_rejects_bad_words():
    b = WordBasis(2, 3)
    with pytest.raises(ValueError):
        b.index((3,))
    with pytest.raises(ValueError):
        b.index((1, 1, 1, 1))
    with pytest.raises(IndexError):
        b.word(b.size)


def test_transpose_permutation_matches_word_reversal():
    for d, N in ((1, 6), (2, 5), (3, 3)):
        b = WordBasis(d, N)
        p = b.transpose_permutation
        for i in range(b.size):
            assert b.word(int(p[i])) == transpose(b.word(i))


words_strategy = st.lists(st.integers(min_value=1, max_value=3),
                          min_size=0, max_size=6).map(tuple)


@settings(max_examples=200, deadline=None)
@given(words_strategy, words_strategy)
def test_transpose_antihomomorphism(a, b):
    assert transpose(a + b) == transpose(b) + transpose(a)
    assert transpose(transpose(a)) == a
