"""Free-monoid combinatorics: words over {1,..,d} and the graded-lex basis.

A word is a tuple of integer letters in 1..d; the empty tuple is the unit.
Words of length <= N, ordered by (length, lexicographic), index the basis
of every truncated Fock-space object in this package.  The serialized form
of a word is a digit string ("121"), with "e" for the empty word, which
caps d <= 9 in file formats (the in-memory API has no such cap).
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

Word = tuple  # tuple of int letters, each in 1..d


def transpose(a: Word) -> Word:
    """Letter reversal; an involutive anti-homomorphism of the monoid."""
    return tuple(reversed(a))


def word_to_str(a: Word) -> str:
    """Serialize a word: digit string, 'e' for the empty word."""
    if not a:
        return "e"
    if any(l > 9 for l in a):
        raise ValueError("digit-string serialization requires letters <= 9")
    return "".join(str(l) for l in a)


def word_from_str(s: str, d: int | None = None) -> Word:
    """Parse the digit-string form; validates letters are in 1..d if given."""
    s = s.strip()
    if s == "e" or s == "":
        return ()
    if not s.isdigit():
        raise ValueError(f"not a word string: {s!r}")
    w = tuple(int(ch) for ch in s)
    if any(l < 1 for l in w):
        raise ValueError(f"letter 0 not allowed in word {s!r}")
    if d is not None and any(l > d for l in w):
        raise ValueError(f"word {s!r} has letters outside 1..{d}")
    return w


def reversals(d: int, N: int) -> list:
    """rev[g] for g <= N: rev[g][r] is the rank of the reversal of the
    grade-g word of rank r, base-d digit reversal (an involution).  The
    reversal of k u has rank d rank(reversal of u) + k, so rev[g] is, over
    the words that begin with each letter k in turn, d rev[g-1] + k."""
    rev = [np.zeros(1, dtype=np.int64)]
    for _ in range(N):
        rev.append((d * rev[-1] + np.arange(d)[:, None]).ravel())
    return rev


def word_count(d: int, N: int) -> int:
    """Number of words of length <= N over d letters."""
    if d == 1:
        return N + 1
    return (d ** (N + 1) - 1) // (d - 1)


class WordBasis:
    """Graded-lexicographic basis of all words of length <= N over 1..d.

    Shorter words come first; within a grade the order is lexicographic,
    so index(empty) = 0 and, within grade g, the rank of a word is its
    base-d digit value (letters shifted to 0..d-1).  The order is chosen
    so that every degree-raising operator is strictly block-subdiagonal.
    Instances are immutable and safe for concurrent reads.
    """

    def __init__(self, d: int, N: int):
        if d < 1:
            raise ValueError(f"alphabet size d must be >= 1, got {d}")
        if N < 0:
            raise ValueError(f"truncation grade N must be >= 0, got {N}")
        self.size = word_count(d, N)
        if self.size >= 1 << 63:  # the offsets are int64
            raise ValueError(f"d = {d}, N = {N}: {self.size} words are more than "
                             "int64 can index")
        self.d = d
        self.N = N
        if d == 1:
            self.offsets = np.arange(N + 2, dtype=np.int64)
        else:
            counts = d ** np.arange(N + 1, dtype=np.int64)
            self.offsets = np.concatenate(([0], np.cumsum(counts)))

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other) -> bool:
        return isinstance(other, WordBasis) and (self.d, self.N) == (other.d, other.N)

    def __repr__(self) -> str:
        return f"WordBasis(d={self.d}, N={self.N}, size={self.size})"

    def grade_slice(self, g: int) -> slice:
        """Index slice of the words of length exactly g."""
        if not 0 <= g <= self.N:
            raise ValueError(f"grade {g} outside 0..{self.N}")
        return slice(int(self.offsets[g]), int(self.offsets[g + 1]))

    def rank(self, w: Word) -> int:
        """Lexicographic rank of w within its own grade."""
        r = 0
        for l in w:
            r = r * self.d + (l - 1)
        return r

    def index(self, w: Word) -> int:
        """Basis index of w; raises if w has bad letters or is too long."""
        if len(w) > self.N:
            raise ValueError(f"word of length {len(w)} exceeds truncation {self.N}")
        if any(not 1 <= l <= self.d for l in w):
            raise ValueError(f"word {w} has letters outside 1..{self.d}")
        return int(self.offsets[len(w)]) + self.rank(w)

    def word(self, i: int) -> Word:
        """Inverse of index()."""
        if not 0 <= i < self.size:
            raise IndexError(f"index {i} outside basis of size {self.size}")
        g = int(np.searchsorted(self.offsets, i, side="right")) - 1
        if self.d == 1:
            return (1,) * g
        r = i - int(self.offsets[g])
        letters = []
        for _ in range(g):
            letters.append(r % self.d + 1)
            r //= self.d
        return tuple(reversed(letters))

    def __iter__(self):
        yield ()
        for g in range(1, self.N + 1):
            for w in itertools.product(range(1, self.d + 1), repeat=g):
                yield w

    @cached_property
    def transpose_permutation(self) -> np.ndarray:
        """Permutation p with p[index(w)] = index(transpose(w)).

        Within grade g this is base-d digit reversal of the rank.
        """
        if self.d == 1:
            return np.arange(self.size, dtype=np.int64)
        return np.concatenate([o + r for o, r in zip(self.offsets, reversals(self.d, self.N))])

    def sub_basis_size(self, M: int) -> int:
        """Number of words of length <= M (M <= N)."""
        if not 0 <= M <= self.N:
            raise ValueError(f"grade {M} outside 0..{self.N}")
        return int(self.offsets[M + 1])

