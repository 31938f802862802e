"""Transition matrices, allowable words, and clopen sets as maximal cylinders.

The symbol space of a 0/1 transition matrix ``A`` is the one-sided shift of
finite type: infinite sequences over ``{1..n}`` whose consecutive letters
satisfy ``A[x_i, x_{i+1}] = 1``.  Finite data suffices everywhere in this
package, so the module works with finite allowable words and with clopen
subsets held in their unique form, the maximal cylinders they contain, which
``cklef validate`` prints as a generator's range.  The validity check of a
presentation builds no such form: it sorts cylinders and counts the words
that extend them.
Words are walked depth first by one function, :func:`walk`, which
:func:`iter_paths` filters by length and the enumerated index routes read
directly.  They are counted, unwalked, by one recurrence,
:func:`path_columns`, and no power of ``A`` is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .errors import (
    EntryOutOfRange,
    InvalidParameter,
    NonSquare,
    UnallowableWord,
    ZeroRowOrColumn,
    require_int,
)

Word = tuple[int, ...]
# a presentation pair (nu, mu), the monomial s_nu s_mu*
Pair = tuple[Word, Word]

EMPTY_WORD: Word = ()


@dataclass(frozen=True)
class TransitionMatrix:
    """A validated 0/1 transition matrix with 1-based letters.

    The matrix owns derived tables, left out of equality and hashing: its
    follower table, built once as ordered tuples and as sets, and its
    K-groups (one Smith form of I - A^T), which
    :func:`cklef.ktheory.k_groups` fills on its first call so that every
    later K-theory call on this matrix reads them.  It keeps no powers of
    A: path counts are stepped over the follower table by
    :func:`path_columns` and dropped by the caller.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]
    irreducible: bool
    # _successors[a] lists the letters that may follow a, in order; index 0
    # is the empty terminus, which every letter may follow.
    _successors: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    # _followers[a] is the set of _successors[a].
    _followers: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)
    # _k_groups holds the matrix's KTheoryData once computed: at most one entry.
    _k_groups: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        successors = (tuple(self.alphabet),) + tuple(
            tuple(j + 1 for j, v in enumerate(row) if v) for row in self.rows
        )
        object.__setattr__(self, "_successors", successors)
        object.__setattr__(self, "_followers", tuple(map(frozenset, successors)))
        object.__setattr__(self, "_k_groups", [])

    def entry(self, a: int, b: int) -> int:
        return self.rows[a - 1][b - 1]

    @property
    def alphabet(self) -> range:
        return range(1, self.n + 1)

    def followers(self, a: int | None) -> frozenset[int]:
        """Letters that may follow ``a``; the empty terminus follows everything."""
        return self._followers[a or 0]


def validate_matrix(raw: Sequence[Sequence[int]]) -> TransitionMatrix:
    """Validate a raw 0/1 grid and record irreducibility.

    Raises :class:`NonSquare`, :class:`EntryOutOfRange`, or
    :class:`ZeroRowOrColumn` for inputs that would describe a degenerate
    algebra.
    """
    n = len(raw)
    if n == 0:
        raise NonSquare("matrix must be nonempty")
    rows = []
    for r in raw:
        row = tuple(r)
        if len(row) != n:
            raise NonSquare(f"expected {n} columns, got {len(row)}")
        for v in row:
            if v not in (0, 1):
                raise EntryOutOfRange(f"entry {v!r} is not 0 or 1")
        rows.append(row)
    for i, row in enumerate(rows):
        if not any(row):
            raise ZeroRowOrColumn(f"row {i + 1} is zero")
    for j in range(n):
        if not any(rows[i][j] for i in range(n)):
            raise ZeroRowOrColumn(f"column {j + 1} is zero")
    return TransitionMatrix(n=n, rows=tuple(rows), irreducible=_is_irreducible(rows))


def _is_irreducible(rows: Sequence[Sequence[int]]) -> bool:
    """Strong connectivity of the directed graph on {1..n}."""
    n = len(rows)

    def reaches(start: int, adjacency) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in range(n):
                if adjacency(v, w) and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    forward = reaches(0, lambda v, w: rows[v][w] == 1)
    backward = reaches(0, lambda v, w: rows[w][v] == 1)
    return len(forward) == n and len(backward) == n


def terminus(w: Word) -> int | None:
    """Last letter of ``w``, or None for the empty word."""
    return w[-1] if w else None


def is_allowable(matrix: TransitionMatrix, w: Word) -> bool:
    """Whether each letter may follow the one before it, the first letter
    following the empty terminus; a letter outside ``1..n`` follows nothing."""
    followers = matrix._followers
    prev = 0
    for x in w:
        if x not in followers[prev]:
            return False
        prev = x
    return True


def require_allowable(matrix: TransitionMatrix, w: Word) -> Word:
    if not is_allowable(matrix, w):
        raise UnallowableWord(w)
    return w


def common_followers(matrix: TransitionMatrix, nu: Word, mu: Word) -> frozenset[int]:
    """The letters that may follow both termini: the first letters of the
    words y that extend a monomial ``s_nu s_mu*`` to ``s_{nu y} s_{mu y}*``."""
    return matrix.followers(terminus(nu)) & matrix.followers(terminus(mu))


def path_columns(matrix: TransitionMatrix, column: list[int], top: int) -> Iterator[list[int]]:
    """Steps 0 .. ``top`` of ``column[a] <- sum of column[b] over the
    followers b of a``, for the termini a = 0 .. n (0 the empty terminus).

    The package's one count of paths: from the unit column of b, step L
    holds ``(A^L)[a, b]``, and at index 0 the words of length L ending in b;
    from the all-ones column, the words of length L that may follow a.
    Only the latest step is held, and each costs one sum per entry of A.
    """
    followers = [matrix.followers(a) for a in range(matrix.n + 1)]
    yield column
    for _ in range(top):
        column = [sum(map(column.__getitem__, fol)) for fol in followers]
        yield column


def count_paths(matrix: TransitionMatrix, a: int | None, b: int, L: int) -> int:
    """Number of allowable words ``u`` of length ``L`` with last letter ``b``
    such that ``u`` may follow a word with terminus ``a``.

    Equals ``(A^L)[a, b]``; ``a=None`` (empty terminus) admits any first
    letter; a letter outside ``1..n``, or an ``L`` that is not an ``int``
    >= 1, raises :class:`InvalidParameter`.  It is step L of :func:`path_columns` from
    the unit column of b.
    """
    require_int(L, "L")
    if L < 1:
        raise InvalidParameter("L must be >= 1")
    if b not in matrix.alphabet or not (a is None or a in matrix.alphabet):
        raise InvalidParameter(f"letters must be in 1..{matrix.n}, got a={a!r}, b={b!r}")
    unit = [0] * (matrix.n + 1)
    unit[b] = 1
    return next(islice(path_columns(matrix, unit, L), L, None))[a or 0]


def walk(
    matrix: TransitionMatrix, start: Word, first: Iterable[int], top: int
) -> Iterator[list[int]]:
    """The words ``start + x`` with x nonempty and x[0] in ``first``, up to
    length ``top``, depth first: each word before its extensions and the
    letters in order, so the words of one length come in lexicographic order.

    This is the package's one walk over words.  ``first`` is not checked
    against ``start``'s terminus, so a caller may restrict it further.  The
    walk yields a single list, extended and shortened in place, so a caller
    reads it before the next step and copies it to keep it.  Memory is
    O(``top``).
    """
    if len(start) >= top:
        return
    successors = matrix._successors
    word = list(start)
    stack = [iter(sorted(first))]
    while stack:
        x = next(stack[-1], None)
        if x is None:
            stack.pop()
            if stack:
                word.pop()
            continue
        word.append(x)
        yield word
        if len(word) + 1 < top:
            stack.append(iter(successors[x]))
            continue
        if len(word) < top:  # the extensions are the last words: no stack
            for y in successors[x]:
                word.append(y)
                yield word
                word.pop()
        word.pop()


def iter_paths(matrix: TransitionMatrix, k: int, start: Word = EMPTY_WORD) -> Iterator[Word]:
    """Allowable extensions of ``start`` to length ``k``, in lexicographic order.

    The words of length ``k`` that :func:`walk` passes, so memory is O(k)
    however many words there are.  A ``start`` longer than ``k`` has no
    extension and yields nothing; one that is not allowable raises
    :class:`UnallowableWord`, and a ``k`` that is not an ``int`` >= 0
    raises :class:`InvalidParameter`.
    """
    require_int(k, "k")
    if k < 0:
        raise InvalidParameter("k must be >= 0")
    start = require_allowable(matrix, tuple(start))
    if len(start) >= k:
        if len(start) == k:
            yield start
        return
    for word in walk(matrix, start, matrix.followers(terminus(start)), k):
        if len(word) == k:
            yield tuple(word)


def enumerate_paths(matrix: TransitionMatrix, k: int) -> list[Word]:
    """All allowable words of length ``k`` in lexicographic order."""
    return list(iter_paths(matrix, k))


@dataclass(frozen=True)
class ClopenSet:
    """A clopen subset of the symbol space, held as its maximal cylinders.

    ``members`` are the words whose cylinders lie in the set while their
    parents' do not.  Letters are allowable and no row of A is zero, so every
    cylinder is nonempty and this form is unique: two sets are equal exactly
    when their members are.  Use :func:`clopen_make` to construct one.
    """

    matrix: TransitionMatrix
    members: frozenset[Word]


def clopen_make(matrix: TransitionMatrix, words: Iterable[Word]) -> ClopenSet:
    """The union of the cylinders of ``words``, which may have any lengths.

    Words covered by a shorter one are dropped; then, deepest first, each
    sibling group that covers every follower of its parent merges into it.
    In lexicographic order a word follows its prefixes, and every word
    between a prefix and the word extends that prefix, so a word is covered
    exactly when the last word kept before it is a prefix of it.  The kept
    words are bucketed by length once; a merged parent joins the bucket
    one shorter, which is grouped next.
    """
    by_len: dict[int, set[Word]] = {}
    last: Word | None = None
    for w in sorted(set(words)):
        require_allowable(matrix, w)
        if last is None or w[: len(last)] != last:
            by_len.setdefault(len(w), set()).add(w)
            last = w
    for depth in range(max(by_len, default=0), 0, -1):
        by_parent: dict[Word, list[Word]] = {}
        for w in by_len.get(depth, ()):
            by_parent.setdefault(w[:-1], []).append(w)
        for p, kids in by_parent.items():
            if len(kids) == len(matrix.followers(terminus(p))):
                by_len[depth].difference_update(kids)
                by_len.setdefault(depth - 1, set()).add(p)
    return ClopenSet(matrix=matrix, members=frozenset().union(*by_len.values()))
