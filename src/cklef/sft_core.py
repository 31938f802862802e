"""Transition matrices, allowable words, and cylinder-set algebra.

The symbol space of a 0/1 transition matrix ``A`` is the one-sided shift of
finite type: infinite sequences over ``{1..n}`` whose consecutive letters
satisfy ``A[x_i, x_{i+1}] = 1``.  Finite data suffices everywhere in this
package, so the module works with finite allowable words and with clopen
subsets described as unions of depth-``d`` cylinders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import (
    DepthTooSmall,
    EntryOutOfRange,
    MatrixMismatch,
    NonSquare,
    UnallowableWord,
    ZeroRowOrColumn,
)

Word = tuple[int, ...]

EMPTY_WORD: Word = ()


@dataclass(frozen=True)
class TransitionMatrix:
    """A validated 0/1 transition matrix with 1-based letters.

    The matrix owns two derived tables, left out of equality and hashing:
    its follower table, built once, and the powers ``A^L`` computed so far.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]
    irreducible: bool
    # _successors[a] lists the letters that may follow a, in order; index 0
    # is the empty terminus, which every letter may follow.
    _successors: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    # _powers[L] is A^L; the list grows to the largest L asked for.
    _powers: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        successors = (tuple(self.alphabet),) + tuple(
            tuple(j + 1 for j, v in enumerate(row) if v) for row in self.rows
        )
        identity = tuple(
            tuple(1 if i == j else 0 for j in range(self.n)) for i in range(self.n)
        )
        object.__setattr__(self, "_successors", successors)
        object.__setattr__(self, "_powers", [identity])

    def entry(self, a: int, b: int) -> int:
        return self.rows[a - 1][b - 1]

    @property
    def alphabet(self) -> range:
        return range(1, self.n + 1)

    def followers(self, a: int | None) -> frozenset[int]:
        """Letters that may follow ``a``; the empty terminus follows everything."""
        return frozenset(self._successors[a or 0])

    def power(self, L: int) -> tuple[tuple[int, ...], ...]:
        """``A^L`` as a tuple of rows, one product per exponent not yet computed."""
        powers = self._powers
        rows = self.rows
        n = self.n
        while len(powers) <= L:
            prev = powers[-1]
            powers.append(tuple(
                tuple(sum(prev[i][t] * rows[t][j] for t in range(n)) for j in range(n))
                for i in range(n)
            ))
        return powers[L]


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
    for x in w:
        if not 1 <= x <= matrix.n:
            return False
    return all(matrix.entry(w[i], w[i + 1]) == 1 for i in range(len(w) - 1))


def require_allowable(matrix: TransitionMatrix, w: Word) -> Word:
    if not is_allowable(matrix, w):
        raise UnallowableWord(w)
    return w


def count_paths(matrix: TransitionMatrix, a: int | None, b: int, L: int) -> int:
    """Number of allowable words ``u`` of length ``L`` with last letter ``b``
    such that ``u`` may follow a word with terminus ``a``.

    Equals ``(A^L)[a, b]``; ``a=None`` (empty terminus) admits any first
    letter.  Arbitrary-precision integers throughout.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if a is None:
        # The empty word's followers are the full alphabet: any first letter.
        if L == 1:
            return 1
        power = matrix.power(L - 1)
        return sum(power[c - 1][b - 1] for c in matrix.alphabet)
    return matrix.power(L)[a - 1][b - 1]


def iter_paths(matrix: TransitionMatrix, k: int, start: Word = EMPTY_WORD) -> Iterator[Word]:
    """Allowable extensions of ``start`` to length ``k``, in lexicographic order.

    A depth-first walk holding one word and one follower iterator per letter,
    so memory is O(k) however many words there are.  A ``start`` longer than
    ``k`` has no extension and yields nothing.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    start = tuple(start)
    if len(start) >= k:
        if len(start) == k:
            yield start
        return
    successors = matrix._successors
    word = list(start)
    stack = [iter(successors[word[-1] if word else 0])]
    while stack:
        if len(word) + 1 == k:
            prefix = tuple(word)
            for x in stack.pop():
                yield prefix + (x,)
        else:
            x = next(stack[-1], None)
            if x is not None:
                word.append(x)
                stack.append(iter(successors[x]))
                continue
            stack.pop()
        if len(word) > len(start):
            word.pop()


def enumerate_paths(matrix: TransitionMatrix, k: int) -> list[Word]:
    """All allowable words of length ``k`` in lexicographic order."""
    return list(iter_paths(matrix, k))


@dataclass(frozen=True)
class ClopenSet:
    """A clopen subset of the symbol space: a union of depth-``d`` cylinders.

    Instances are kept in canonical form: the minimal depth denoting the
    same subset.  Use :func:`clopen_make` to construct one.
    """

    matrix: TransitionMatrix
    depth: int
    members: frozenset[Word]


def clopen_make(matrix: TransitionMatrix, depth: int, members: Iterable[Word]) -> ClopenSet:
    mset = frozenset(members)
    for w in mset:
        if len(w) != depth:
            raise DepthTooSmall(f"member {w!r} does not have length {depth}")
        require_allowable(matrix, w)
    depth, mset = _reduce(matrix, depth, mset)
    return ClopenSet(matrix=matrix, depth=depth, members=mset)


def _reduce(matrix: TransitionMatrix, depth: int, members: frozenset[Word]):
    """Lower the depth while the member set is a union of shallower cylinders."""
    while depth > 0:
        by_prefix: dict[Word, set[Word]] = {}
        for w in members:
            by_prefix.setdefault(w[:-1], set()).add(w)
        reducible = all(
            {p + (j,) for j in matrix.followers(terminus(p))} == kids
            for p, kids in by_prefix.items()
        )
        if not reducible:
            break
        depth -= 1
        members = frozenset(by_prefix)
    return depth, members


def clopen_whole_space(matrix: TransitionMatrix) -> ClopenSet:
    return clopen_make(matrix, 0, [EMPTY_WORD])


def clopen_refine(s: ClopenSet, depth: int) -> ClopenSet:
    """The same subset written as a union of depth-``depth`` cylinders."""
    if depth < s.depth:
        raise DepthTooSmall(f"refinement depth {depth} below {s.depth}")
    members = set(s.members)
    for _ in range(depth - s.depth):
        members = {w + (j,) for w in members for j in s.matrix.followers(terminus(w))}
    # Bypass canonicalization: callers asked for this exact depth.
    return ClopenSet(matrix=s.matrix, depth=depth, members=frozenset(members))


def _common_depth(a: ClopenSet, b: ClopenSet):
    if a.matrix != b.matrix:
        raise MatrixMismatch("clopen sets over different matrices")
    d = max(a.depth, b.depth)
    return d, clopen_refine(a, d), clopen_refine(b, d)


def clopen_equals(a: ClopenSet, b: ClopenSet) -> bool:
    _, ra, rb = _common_depth(a, b)
    return ra.members == rb.members


def clopen_union(a: ClopenSet, b: ClopenSet) -> ClopenSet:
    d, ra, rb = _common_depth(a, b)
    return clopen_make(a.matrix, d, ra.members | rb.members)


def clopen_intersect(a: ClopenSet, b: ClopenSet) -> ClopenSet:
    d, ra, rb = _common_depth(a, b)
    return clopen_make(a.matrix, d, ra.members & rb.members)


def is_partition(parts: Sequence[ClopenSet]) -> bool:
    """True when the parts are pairwise disjoint and cover the symbol space."""
    if not parts:
        return False
    matrix = parts[0].matrix
    for p in parts[1:]:
        if p.matrix != matrix:
            raise MatrixMismatch("clopen sets over different matrices")
    d = max(p.depth for p in parts)
    refined = [clopen_refine(p, d) for p in parts]
    seen: set[Word] = set()
    for r in refined:
        if r.members & seen:
            return False
        seen |= r.members
    return seen == set(enumerate_paths(matrix, d))
