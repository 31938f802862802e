"""The Lefschetz index of a partial path map, computed four ways.

``Index_k`` counts image words of length ``k`` minus domain words of length
``k``; the index is the stabilizing sum over ``k``.  Besides the defining
series this module provides the telescoped boundary count ``gamma_m``, the
closed polynomial formula in matrix powers, and a truncated Fredholm-style
kernel/cokernel count.  All four agree on valid endomorphisms.

Enumeration-based routes walk the word sets directly, streaming them from
one depth-first walker without caching any word, and are meant for moderate
depths.  The :class:`LengthTransfer` table can also be filled from
the presentation pairs alone using matrix powers, which scales to deeply
composed endomorphisms (the counts are exact, not asymptotic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .errors import ExponentUnderflow, NoStabilization
from .sft_core import Word, count_paths, iter_paths, terminus
from .endo import GeometricEndomorphism, PartialPathMap


def propagation(e: GeometricEndomorphism) -> int:
    """Two-sided bound on how much the path map changes word lengths.

    A word matched by the pair (nu, mu) changes length by |nu| - |mu| - 1;
    the bound is the maximal absolute value over all pairs.  (The shrink-only
    bound would not control the stretch sum of the polynomial formula.)
    """
    e.require_valid()
    return max(
        abs(len(nu) - len(mu) - 1)
        for pairs in e.raw_images
        for nu, mu in pairs
    )


@dataclass(frozen=True)
class LengthTransfer:
    """Counts a(i, j) of domain words of length i sent to image length j."""

    a: Mapping[tuple[int, int], int]
    max_len: int
    bound: int

    def __post_init__(self):
        object.__setattr__(self, "a", dict(self.a))

    def dom_count(self, k: int) -> int:
        return sum(c for (i, _), c in self.a.items() if i == k)

    def im_count(self, k: int) -> int:
        """Image cardinality at length k; injectivity makes this a count of words."""
        return sum(c for (_, j), c in self.a.items() if j == k)

    def index_at(self, k: int) -> int:
        if k > self.max_len - self.bound:
            raise ValueError(f"table only covers Index_k for k <= {self.max_len - self.bound}")
        return self.im_count(k) - self.dom_count(k)

    def gamma(self, m: int) -> int:
        shrink = sum(c for (i, j), c in self.a.items() if i > m >= j)
        stretch = sum(c for (i, j), c in self.a.items() if i <= m < j)
        return shrink - stretch


def _walk(
    psi: PartialPathMap,
    lengths: Iterable[int],
    start: Word = (),
    last: int | None = None,
) -> Iterator[tuple[int, Word | None]]:
    """Yield ``(m, dot_apply(w))`` for every allowable word ``w`` of each
    length ``m`` that extends ``start`` and, when given, ends in ``last``.

    The one word enumerator of the enumerated routes.  Words are streamed,
    so a route keeps only the words its answer needs.
    """
    matrix = psi.matrix
    for m in lengths:
        if last is None:
            words = iter_paths(matrix, m, start)
        else:
            words = (
                p + (last,)
                for p in iter_paths(matrix, m - 1, start)
                if not p or matrix.entry(p[-1], last)
            )
        for w in words:
            yield m, psi.dot_apply(w)


def _tally(psi: PartialPathMap, lengths: Iterable[int], a: dict[tuple[int, int], int]):
    """Add the domain words of the given lengths to the a(i, j) counts."""
    for m, r in _walk(psi, lengths):
        if r is not None:
            key = (m, len(r))
            a[key] = a.get(key, 0) + 1


def length_transfer_enumerated(psi: PartialPathMap, max_len: int) -> LengthTransfer:
    """Fill the a(i, j) table by evaluating the path map on all words."""
    bound = propagation(psi.endo)
    a: dict[tuple[int, int], int] = {}
    _tally(psi, range(1, max_len + 1), a)
    return LengthTransfer(a=a, max_len=max_len, bound=bound)


def length_transfer_counted(e: GeometricEndomorphism, max_len: int) -> LengthTransfer:
    """Fill the a(i, j) table from the presentation pairs with matrix powers.

    A domain word matched by the pair (nu, mu) of t_i has the shape
    ``mu + q + (i,)`` where q runs over words that may follow both termini
    and may precede i; counting those q is a matrix-power evaluation, so the
    table is exact at any length without enumerating words.
    """
    e.require_valid()
    matrix = e.matrix
    bound = propagation(e)
    a: dict[tuple[int, int], int] = {}

    def bump(i: int, j: int, c: int):
        if c:
            a[(i, j)] = a.get((i, j), 0) + c

    for i in matrix.alphabet:
        for nu, mu in e.raw_images[i - 1]:
            first = matrix.followers(terminus(mu)) & matrix.followers(terminus(nu))
            # q empty: w = mu + (i,), defined only for |w| >= 2.
            if mu and matrix.entry(terminus(mu), i) == 1:
                bump(len(mu) + 1, len(nu), 1)
            for r in range(1, max_len - len(mu)):
                count = sum(count_paths(matrix, c, i, r) for c in first)
                bump(len(mu) + r + 1, len(nu) + r, count)
    return LengthTransfer(a=a, max_len=max_len, bound=bound)


@dataclass(frozen=True)
class IndexReport:
    per_k: Mapping[int, int]
    partial_sums: tuple[int, ...]
    stabilized_value: int
    method: str
    params: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "per_k", dict(self.per_k))
        object.__setattr__(self, "params", dict(self.params))


def index_at(psi: PartialPathMap, k: int) -> int:
    """Index_k = |P_k ∩ Im| - |P_k ∩ Dom| by direct enumeration."""
    if k < 1:
        raise ValueError("k must be >= 1")
    bound = propagation(psi.endo)
    dom = 0
    im = 0
    for m, r in _walk(psi, range(max(1, k - bound), k + bound + 1)):
        if r is not None:
            if m == k:
                dom += 1
            if len(r) == k:
                im += 1
    return im - dom


def gamma_parts(psi: PartialPathMap, m: int) -> tuple[int, int]:
    """Words shrinking past length m and words stretching past it, separately."""
    if m < 1:
        raise ValueError("m must be >= 1")
    bound = propagation(psi.endo)
    shrink = 0
    stretch = 0
    for length, r in _walk(psi, range(max(1, m - bound + 1), m + bound + 1)):
        if r is None:
            continue
        if length > m and len(r) <= m:
            shrink += 1
        elif length <= m and len(r) > m:
            stretch += 1
    return shrink, stretch


def gamma(psi: PartialPathMap, m: int) -> int:
    """Boundary count: words shrinking past length m minus words stretching past it."""
    shrink, stretch = gamma_parts(psi, m)
    return shrink - stretch


def _active_floor(e: GeometricEndomorphism) -> int:
    """The least length at which a domain or image word can exist.

    Index_k vanishes trivially below this length (a deep re-presentation has
    no short domain words at all), so such zeros must not be mistaken for the
    stabilization window.
    """
    floor = min(
        min(max(len(mu) + 1, 2), max(len(nu), 1))
        for pairs in e.raw_images
        for nu, mu in pairs
    )
    return max(floor, 1)


def _scan_for_window(
    index_of, gamma_of, bound: int, max_depth: int, method: str, active_floor: int = 1
):
    """Sum Index_k until the stabilization window is met.

    Window: Index_k = 0 for bound + 2 consecutive k at or above the active
    floor, and the independently computed gamma agrees with the partial sums
    at three consecutive m.
    """
    per_k: dict[int, int] = {}
    partial: list[int] = []
    running = 0
    zeros = 0
    need = bound + 2
    for k in range(1, max_depth + 1):
        per_k[k] = index_of(k)
        running += per_k[k]
        partial.append(running)
        if k >= active_floor:
            zeros = zeros + 1 if per_k[k] == 0 else 0
        if zeros >= need and k >= 3:
            gammas = [gamma_of(m) for m in (k - 2, k - 1, k)]
            if gammas == partial[-3:] and len(set(gammas)) == 1:
                return IndexReport(
                    per_k=per_k,
                    partial_sums=tuple(partial),
                    stabilized_value=running,
                    method=method,
                    params={"depth": k, "propagation": bound},
                )
    raise NoStabilization(max_depth, per_k)


def index_series(psi: PartialPathMap, max_depth: int | None = None) -> IndexReport:
    """The defining route: enumerate words, sum Index_k until stabilization."""
    bound = propagation(psi.endo)
    if max_depth is None:
        max_depth = max(14, psi.endo.k + 2 * bound + 8)

    a: dict[tuple[int, int], int] = {}
    filled = 0

    def fill(upto: int):
        nonlocal filled
        _tally(psi, range(filled + 1, upto + 1), a)
        filled = max(filled, upto)

    def index_of(k: int) -> int:
        fill(k + bound)
        im = sum(c for (_, j), c in a.items() if j == k)
        dom = sum(c for (i, _), c in a.items() if i == k)
        return im - dom

    return _scan_for_window(
        index_of,
        lambda m: gamma(psi, m),
        bound,
        max_depth,
        "series",
        active_floor=_active_floor(psi.endo),
    )


def index_series_counted(
    e: GeometricEndomorphism, max_depth: int | None = None
) -> IndexReport:
    """Stabilized index from the pair-counting table; scales to deep composites."""
    bound = propagation(e)
    if max_depth is None:
        max_depth = e.k + 3 * bound + 12
    table = length_transfer_counted(e, max_depth + bound)
    return _scan_for_window(
        table.index_at,
        table.gamma,
        bound,
        max_depth,
        "series-counted",
        active_floor=_active_floor(e),
    )


def stabilized_index(e: GeometricEndomorphism) -> int:
    return index_series_counted(e).stabilized_value


def _polynomial_strata(e: GeometricEndomorphism, N: int):
    """Nonempty (j, pair) strata of the polynomial formula with their exponents."""
    pos = []  # (exponent offset j, mu, i) with |nu| <= |mu| - j + 1
    neg = []  # (j, mu, i) with |nu| >= |mu| + j + 2
    for i in e.matrix.alphabet:
        for nu, mu in e.normalized_images()[i - 1]:
            for j in range(1, N + 1):
                if len(nu) <= len(mu) - j + 1:
                    pos.append((j, mu, i))
            for j in range(0, N):
                if len(nu) >= len(mu) + j + 2:
                    neg.append((j, mu, i))
    return pos, neg


def index_polynomial_parts(e: GeometricEndomorphism, m: int, N: int) -> tuple[int, int]:
    """Positive and negative sums of the closed formula at parameters (m, N).

    The positive part counts words shrinking past length m via matrix powers
    A^{m+j-k}; the negative part counts stretchers via A^{m-j-k}; k is the
    common mu-length of the presentation.
    """
    e.require_valid()
    bound = propagation(e)
    # The j-strata cover shrinkage amounts 1..N and stretch amounts 1..N, so
    # the formula is exact exactly when N reaches the two-sided length bound.
    if N < bound:
        raise ValueError(f"N must be at least the propagation bound {bound}")
    k = e.k
    pos_strata, neg_strata = _polynomial_strata(e, N)
    minimal_m = 1 + k  # exponent m + j - k >= 1 with j >= 1 gives m >= k
    if neg_strata:
        max_j = max(j for j, _, _ in neg_strata)
        minimal_m = max(minimal_m, 1 + max_j + k)
    if m < minimal_m:
        raise ExponentUnderflow(m, minimal_m)
    pos = sum(
        count_paths(e.matrix, terminus(mu), i, m + j - k) for j, mu, i in pos_strata
    )
    neg = sum(
        count_paths(e.matrix, terminus(mu), i, m - j - k) for j, mu, i in neg_strata
    )
    return pos, neg


def index_polynomial(e: GeometricEndomorphism, m: int, N: int) -> int:
    pos, neg = index_polynomial_parts(e, m, N)
    return pos - neg


def _shrinking_cylinders(e: GeometricEndomorphism, m: int, depth: int):
    """``(mu, i)`` such that the words ``mu + q + (i,)`` of length ``m`` hold
    every word of that length whose image has length at most ``depth``.

    A word matched by the pair (nu, mu) of t_i has image length
    |nu| + m - 1 - |mu|, so only pairs where that is at most ``depth`` can
    land there.  Within a generator, a mu-word with a kept prefix adds no
    word, so the cylinders are disjoint and each word lies in at most one.
    """
    for i in e.matrix.alphabet:
        landing = {mu for nu, mu in e.raw_images[i - 1] if len(nu) + m - 1 - len(mu) <= depth}
        kept: list[Word] = []
        for mu in sorted(landing):
            if not any(mu[: len(p)] == p for p in kept):
                kept.append(mu)
                yield mu, i


def _fredholm_tally(psi: PartialPathMap, depth: int):
    """Domain-word counts and distinct image sets at each length 1..depth.

    Words of length <= depth are all walked.  Longer words, up to the
    propagation bound past ``depth``, matter only through images landing at
    length <= depth, so only the cylinders of :func:`_shrinking_cylinders`
    are walked there; every visited word still goes through ``dot_apply``.
    """
    bound = propagation(psi.endo)
    dom_count = {j: 0 for j in range(1, depth + 1)}
    images: dict[int, set] = {j: set() for j in range(1, depth + 1)}

    def record(r):
        if r is not None and 1 <= len(r) <= depth:
            images[len(r)].add(r)

    for m, r in _walk(psi, range(1, depth + 1)):
        if r is not None:
            dom_count[m] += 1
            record(r)
    for m in range(depth + 1, depth + bound + 1):
        for mu, i in _shrinking_cylinders(psi.endo, m, depth):
            for _, r in _walk(psi, (m,), start=mu, last=i):
                record(r)
    return dom_count, images


def fredholm_index_truncated(psi: PartialPathMap, depth: int) -> int:
    """Kernel-minus-cokernel count of the truncated permutation operator.

    At each length j <= depth, the kernel dimension is the number of words
    outside the domain and the cokernel dimension the number outside the
    materialized image; their signed sum telescopes to the partial sum of
    the index series.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    dom_count, images = _fredholm_tally(psi, depth)
    total = 0
    for j in range(1, depth + 1):
        p_j = sum(count_paths(psi.matrix, None, b, j) for b in psi.matrix.alphabet)
        not_in_dom = p_j - dom_count[j]
        not_in_im = p_j - len(images[j])
        total += not_in_dom - not_in_im
    return total
