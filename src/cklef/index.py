"""The Lefschetz index of a partial path map, computed four ways.

``Index_k`` counts image words of length ``k`` minus domain words of length
``k``; the index is the finite sum over ``k = 1 .. K_0 - 1``, since
``Index_k`` vanishes from ``K_0`` on (:func:`series_end` holds the proof).
Besides the defining series this module provides the telescoped boundary
count ``gamma_m``, the closed polynomial formula in matrix powers, and a
truncated Fredholm-style kernel/cokernel count.  All four agree on valid
endomorphisms.

Enumeration-based routes read one walk, :func:`_landing_walk`, which
enumerates the domain pair by pair and builds each image from its pair, so
it visits only the domain words counted at a length up to a depth, streams
them from :func:`~cklef.sft_core.iter_paths` and caches none; they are meant
for moderate depths.  :func:`length_transfer_enumerated` evaluates the path
map on every word and stays as the reference.  The :class:`LengthTransfer`
table can also be filled from the presentation pairs alone using matrix
powers, which scales to deeply composed endomorphisms (the counts are exact,
not asymptotic).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Iterator, Mapping

from .errors import ExponentUnderflow, InvalidParameter
from .sft_core import TransitionMatrix, Word, count_paths, iter_paths, terminus
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
    # The table's totals by domain length i and by image length j.
    _dom: dict[int, int] = field(init=False, repr=False, compare=False)
    _im: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = dict(self.a)
        dom: dict[int, int] = {}
        im: dict[int, int] = {}
        for (i, j), c in a.items():
            dom[i] = dom.get(i, 0) + c
            im[j] = im.get(j, 0) + c
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "_dom", dom)
        object.__setattr__(self, "_im", im)

    def dom_count(self, k: int) -> int:
        return self._dom.get(k, 0)

    def im_count(self, k: int) -> int:
        """Image cardinality at length k; injectivity makes this a count of words."""
        return self._im.get(k, 0)

    def _require_covered(self, k: int):
        # a word landing at or crossing length k is at most k + bound long
        if k > self.max_len - self.bound:
            raise InvalidParameter(f"table only covers k <= {self.max_len - self.bound}")

    def index_at(self, k: int) -> int:
        self._require_covered(k)
        return self.im_count(k) - self.dom_count(k)

    def gamma_parts(self, m: int) -> tuple[int, int]:
        """Words shrinking past length m and words stretching past it, separately."""
        self._require_covered(m)
        shrink = sum(c for (i, j), c in self.a.items() if i > m >= j)
        stretch = sum(c for (i, j), c in self.a.items() if i <= m < j)
        return shrink, stretch

    def gamma(self, m: int) -> int:
        shrink, stretch = self.gamma_parts(m)
        return shrink - stretch


def _landing_walk(psi: PartialPathMap, depth: int) -> Iterator[tuple[int, Word]]:
    """``(|w|, dot_apply(w))`` for every domain word ``w`` of length <= ``depth``
    and every longer one whose image has length <= ``depth``.

    The domain is walked pair by pair, building each image from its pair:
    the pair (nu, mu) of t_i sends mu + (i,) to nu, and mu + y + (i,) to
    nu + y for y a word of length L whose first letter follows both termini
    and whose last letter precedes i.  The source cylinders of one generator
    are disjoint, so each domain word comes from one pair, once.  The
    enumerated series, gamma and the Fredholm count all read this walk.
    """
    matrix = psi.matrix
    for i in matrix.alphabet:
        for nu, mu in psi.endo.raw_images[i - 1]:
            # the longest y that leaves the word or its image at most depth long
            top = depth - min(len(mu) + 1, len(nu))
            if top < 0:
                continue
            if mu and matrix.entry(mu[-1], i):
                yield len(mu) + 1, nu
            first = matrix.followers(terminus(mu)) & matrix.followers(terminus(nu))
            for L in range(1, top + 1):
                for c in first:
                    for y in iter_paths(matrix, L, (c,)):
                        if matrix.entry(y[-1], i):
                            yield len(mu) + 1 + L, nu + y


def _fill(walk: Iterable[tuple[int, Word]], max_len: int, bound: int) -> LengthTransfer:
    """The a(i, j) table of the (domain length, image) pairs of a walk."""
    return LengthTransfer(a=Counter((m, len(r)) for m, r in walk), max_len=max_len, bound=bound)


def length_transfer_enumerated(psi: PartialPathMap, max_len: int) -> LengthTransfer:
    """Fill the a(i, j) table by evaluating the path map on every word."""
    matrix = psi.matrix
    images = ((m, psi.dot_apply(w)) for m in range(1, max_len + 1) for w in iter_paths(matrix, m))
    return _fill(((m, r) for m, r in images if r is not None), max_len, propagation(psi.endo))


def _landing_table(psi: PartialPathMap, depth: int) -> LengthTransfer:
    """The table of :func:`_landing_walk`: the full table's cells a(i, j) with
    i <= ``depth`` or j <= ``depth``, all that Index_k and gamma_k read for k <= depth."""
    bound = propagation(psi.endo)
    return _fill(_landing_walk(psi, depth), depth + bound, bound)


def _pair_classes(e: GeometricEndomorphism) -> Counter:
    """The pairs (nu, mu) of each t_i, grouped by what their word counts and
    their length change depend on.

    A class is ``(key, shrink)``: the key ``(first, terminus(mu), |mu|, i)``
    that :func:`_pair_words` reads, with ``first`` the letters that may
    follow both termini, and the shrink |mu| + 1 - |nu|.  The counter holds
    each class's number of pairs.
    """
    matrix = e.matrix
    return Counter(
        (
            (
                matrix.followers(terminus(mu)) & matrix.followers(terminus(nu)),
                terminus(mu),
                len(mu),
                i,
            ),
            len(mu) + 1 - len(nu),
        )
        for i in matrix.alphabet
        for nu, mu in e.raw_images[i - 1]
    )


def _pair_words(matrix: TransitionMatrix, key: tuple, lengths: Iterable[int]) -> list[int]:
    """Domain words matched by one pair (nu, mu) of t_i, counted at each length.

    ``key`` is ``(first, terminus(mu), |mu|, i)`` as in :func:`_pair_classes`.
    Such a word is ``mu + (i,)``, or ``mu + (c,) + u`` with c in ``first``
    and u a word of length ``L - |mu| - 1`` that may follow c and ends in i;
    counting the u is a matrix-power evaluation.  Words of length < 2 are
    outside the domain.
    """
    first, last, mu_len, i = key
    counts = []
    for L in lengths:
        if L >= mu_len + 2:
            counts.append(sum(count_paths(matrix, c, i, L - mu_len - 1) for c in first))
        elif L == mu_len + 1 and last is not None and matrix.entry(last, i) == 1:
            counts.append(1)
        else:
            counts.append(0)
    return counts


def length_transfer_counted(e: GeometricEndomorphism, max_len: int) -> LengthTransfer:
    """Fill the a(i, j) table from the presentation pairs with matrix powers.

    A word matched by the pair (nu, mu) changes length by |nu| - |mu| - 1,
    and :func:`_pair_words` counts the words a pair matches at each length,
    so the table is exact at any length without enumerating words.  Pairs
    of one class (:func:`_pair_classes`) fill the same cells with the same
    counts, so each class is counted once.
    """
    e.require_valid()
    matrix = e.matrix
    bound = propagation(e)
    a: dict[tuple[int, int], int] = {}
    for (key, shrink), size in _pair_classes(e).items():
        lengths = range(key[2] + 1, max_len + 1)
        for L, c in zip(lengths, _pair_words(matrix, key, lengths)):
            if c:
                a[(L, L - shrink)] = a.get((L, L - shrink), 0) + size * c
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
        raise InvalidParameter("k must be >= 1")
    return _landing_table(psi, k).index_at(k)


def gamma_parts(psi: PartialPathMap, m: int) -> tuple[int, int]:
    """Words shrinking past length m and words stretching past it, separately."""
    if m < 1:
        raise InvalidParameter("m must be >= 1")
    return _landing_table(psi, m).gamma_parts(m)


def gamma(psi: PartialPathMap, m: int) -> int:
    """Boundary count: words shrinking past length m minus words stretching past it."""
    shrink, stretch = gamma_parts(psi, m)
    return shrink - stretch


def series_end(e: GeometricEndomorphism) -> int:
    """The last k at which Index_k can be nonzero: K_0 - 1, where K_0 is the
    maximum over the pairs (nu, mu) of max(|mu| + 2, |nu| + 1).

    Proof that Index_k = 0 for every k >= K_0.  Write Z(x) for the cylinder
    of a word x.  The pair (nu, mu) of t_i has the range cylinders nu c and
    the source cylinders mu c, for c a common follower of the termini of nu
    and mu; R_i and S_i are their unions over the pairs of t_i.  A valid
    presentation has three properties: the range cylinders of all pairs
    partition the space, the source cylinders of one generator are disjoint
    (no mu-word collides with another), and S_i is the union of the R_j with
    A[i, j] = 1.  Every allowable word extends, so no cylinder is empty.

    The pair sends the domain word mu y i to nu y.  An empty y gives a
    domain word of length |mu| + 1 and an image of length |nu|, both below
    K_0.  So for k >= K_0, summing over the pairs and using disjointness,

        Im_k  = sum_j #{x : |x| = k,     Z(x) inside R_j, A[last x, j] = 1},
        Dom_k = sum_i #{z : |z| = k - 1, Z(z) inside S_i, A[last z, i] = 1}.

    Fix z of length k - 1 and a follower b of its last letter.  Every range
    cylinder is at most |nu| + 1 <= k long, so Z(z b) lies inside one range
    cylinder, of R_j for j = j(zb) say, and then Z(z b) lies inside S_i if
    and only if A[i, j(zb)] = 1.  Every source cylinder is at most
    |mu| + 1 <= k - 1 long, so Z(z) lies inside S_i if and only if Z(z b)
    does, for any b.  Hence z contributes sum_b A[b, j(zb)] to Im_k, through
    x = z b, and sum_i A[i, j(zi)] to Dom_k, both sums over the followers of
    z: the same number.  So Im_k = Dom_k.  The enumerated and the counted
    table both count exactly these words.
    """
    e.require_valid()
    return max(
        max(len(mu) + 2, len(nu) + 1)
        for pairs in e.raw_images
        for nu, mu in pairs
    ) - 1


def _report(table: LengthTransfer, end: int, method: str) -> IndexReport:
    """Index_1 .. Index_end from a table that covers them, and their sum."""
    per_k = {k: table.index_at(k) for k in range(1, end + 1)}
    partial = tuple(accumulate(per_k.values()))
    return IndexReport(
        per_k=per_k,
        partial_sums=partial,
        stabilized_value=partial[-1],
        method=method,
        params={"depth": end, "propagation": table.bound},
    )


def index_series(psi: PartialPathMap) -> IndexReport:
    """The defining route: enumerate words, sum Index_k up to the series end."""
    end = series_end(psi.endo)
    return _report(_landing_table(psi, end), end, "series")


def index_series_counted(e: GeometricEndomorphism) -> IndexReport:
    """The same sum from the pair-counting table; scales to deep composites."""
    end = series_end(e)
    return _report(length_transfer_counted(e, end + propagation(e)), end, "series-counted")


def stabilized_index(e: GeometricEndomorphism) -> int:
    return index_series_counted(e).stabilized_value


def index_polynomial_parts(e: GeometricEndomorphism, m: int, N: int) -> tuple[int, int]:
    """Positive and negative sums of the closed formula at parameters (m, N).

    A pair (nu, mu) shrinks the words it matches by d = |mu| + 1 - |nu|.
    The positive part counts its words of lengths m+1 .. m+d when d > 0,
    which shrink past length m; the negative part counts its words of
    lengths m+d+1 .. m when d < 0, which stretch past it.  Each count is a
    sum of entries of A^(L - |mu| - 1) (:func:`_pair_words`).
    """
    e.require_valid()
    bound = propagation(e)
    # Shrink and stretch amounts are at most the two-sided length bound, so
    # the formula is exact exactly when N reaches it.
    if N < bound:
        raise InvalidParameter(f"N must be at least the propagation bound {bound}")
    classes = _pair_classes(e)
    # Admissible m are those at which the formula over the pairs normalized
    # to mu-length k has only positive exponents.
    stretch = max(-d for _, d in classes)
    minimal_m = max(1 + e.k, stretch + e.k)
    if m < minimal_m:
        raise ExponentUnderflow(m, minimal_m)
    pos = 0
    neg = 0
    for (key, d), size in classes.items():
        if d > 0:
            pos += size * sum(_pair_words(e.matrix, key, range(m + 1, m + d + 1)))
        else:
            neg += size * sum(_pair_words(e.matrix, key, range(m + d + 1, m + 1)))
    return pos, neg


def index_polynomial(e: GeometricEndomorphism, m: int, N: int) -> int:
    pos, neg = index_polynomial_parts(e, m, N)
    return pos - neg


def _fredholm_tally(psi: PartialPathMap, depth: int):
    """Domain-word counts and distinct image sets at each length 1..depth,
    over the words of :func:`_landing_walk`."""
    dom_count = {j: 0 for j in range(1, depth + 1)}
    images: dict[int, set] = {j: set() for j in range(1, depth + 1)}
    for m, r in _landing_walk(psi, depth):
        if m <= depth:
            dom_count[m] += 1
        if 1 <= len(r) <= depth:
            images[len(r)].add(r)
    return dom_count, images


def fredholm_index_truncated(psi: PartialPathMap, depth: int) -> int:
    """Kernel-minus-cokernel count of the truncated permutation operator.

    At each length j <= depth, the kernel dimension is the number of words
    outside the domain and the cokernel dimension the number outside the
    materialized image; their signed sum telescopes to the partial sum of
    the index series.
    """
    if depth < 1:
        raise InvalidParameter("depth must be >= 1")
    dom_count, images = _fredholm_tally(psi, depth)
    total = 0
    for j in range(1, depth + 1):
        p_j = sum(count_paths(psi.matrix, None, b, j) for b in psi.matrix.alphabet)
        not_in_dom = p_j - dom_count[j]
        not_in_im = p_j - len(images[j])
        total += not_in_dom - not_in_im
    return total
