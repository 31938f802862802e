"""The Lefschetz index of a partial path map, computed four ways.

``Index_k`` counts image words of length ``k`` minus domain words of length
``k``; the index is the finite sum over ``k = 1 .. K_0 - 1``, since
``Index_k`` vanishes from ``K_0`` on (:func:`series_end` holds the proof).
Besides the defining series this module provides the telescoped boundary
count ``gamma_m``, the closed polynomial formula in matrix powers, and a
truncated Fredholm-style kernel/cokernel count.  All four agree on valid
endomorphisms.

Enumeration-based routes read one word stream, :func:`_pair_images`, the
images of the domain words one presentation pair matches at one length, in
lexicographic order; it is the only caller of
:func:`~cklef.sft_core.iter_paths` here.  The series and gamma read the
streams through :func:`_landing_walk`, which visits only the domain words
counted at a length up to a depth.  The Fredholm count merges the streams of
pairs whose images can coincide and counts equal neighbours once, so it
holds no set of words.  Nothing is cached; the routes are meant for moderate
depths.  The :class:`LengthTransfer` table can also be filled from the
presentation pairs alone using matrix powers, which scales to deeply
composed endomorphisms (the counts are exact, not asymptotic).
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, repeat
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


def _closing_letters(matrix: TransitionMatrix) -> dict[int, tuple[tuple[int, ...], ...]]:
    """``closing[i][a]``: the letters that may follow ``a`` and precede ``i``,
    in order; ``a = 0`` is the empty terminus, which every letter follows."""
    return {
        i: tuple(
            tuple(sorted(b for b in matrix.followers(a) if matrix.entry(b, i)))
            for a in range(matrix.n + 1)
        )
        for i in matrix.alphabet
    }


def _pair_images(
    matrix: TransitionMatrix, closing: dict, i: int, nu: Word, mu: Word, L: int
) -> Iterator[Word]:
    """The images ``nu + y``, |y| = ``L``, of the domain words the pair
    (nu, mu) of t_i matches, in lexicographic order.

    The pair sends mu + (i,) to nu when mu is nonempty and its last letter
    precedes i, and mu + y + (i,) to nu + y for y whose first letter follows
    both termini and whose last letter precedes i.  The walk extends nu by
    y's first L - 1 letters with :func:`~cklef.sft_core.iter_paths` and then
    only by the letters of ``closing[i]`` (:func:`_closing_letters`), so it
    visits no word that fails the test on the last letter.  Memory is O(L).
    """
    if L == 0:
        if mu and matrix.entry(mu[-1], i):
            yield nu
        return
    first = matrix.followers(terminus(mu)) & matrix.followers(terminus(nu))
    ends = closing[i]
    if L == 1:
        for c in ends[0]:
            if c in first:
                yield nu + (c,)
        return
    for c in sorted(first):
        for head in iter_paths(matrix, len(nu) + L - 1, nu + (c,)):
            for b in ends[head[-1]]:
                yield head + (b,)


def _landing_walk(psi: PartialPathMap, depth: int) -> Iterator[tuple[int, Word]]:
    """``(|w|, dot_apply(w))`` for every domain word ``w`` of length <= ``depth``
    and every longer one whose image has length <= ``depth``.

    The domain is walked pair by pair, reading each pair's images from
    :func:`_pair_images`: the pair (nu, mu) of t_i sends the domain word of
    length |mu| + 1 + L to an image nu + y with |y| = L.  The source
    cylinders of one generator are disjoint, so each domain word comes from
    one pair, once.  The enumerated series and gamma read this walk.
    """
    matrix = psi.matrix
    closing = _closing_letters(matrix)
    for i in matrix.alphabet:
        for nu, mu in psi.endo.raw_images[i - 1]:
            # the longest y that leaves the word or its image at most depth long
            for L in range(depth - min(len(mu) + 1, len(nu)) + 1):
                m = len(mu) + 1 + L
                for r in _pair_images(matrix, closing, i, nu, mu, L):
                    yield m, r


def _landing_table(psi: PartialPathMap, depth: int) -> LengthTransfer:
    """The table of :func:`_landing_walk`: the full table's cells a(i, j) with
    i <= ``depth`` or j <= ``depth``, all that Index_k and gamma_k read for k <= depth."""
    bound = propagation(psi.endo)
    a = Counter((m, len(r)) for m, r in _landing_walk(psi, depth))
    return LengthTransfer(a=a, max_len=depth + bound, bound=bound)


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


def _prefix_runs(e: GeometricEndomorphism) -> list[list[tuple[int, Word, Word]]]:
    """The pairs ``(i, nu, mu)`` sorted by nu and cut into maximal runs whose
    nu all extend the run's first nu.

    Images nu + y and nu' + y' of one length are equal only if one of nu and
    nu' is a prefix of the other.  In lexicographic order every word between
    a word and its extension extends that word too, so two pairs whose
    images can coincide lie in one run.
    """
    runs: list[list[tuple[int, Word, Word]]] = []
    pairs = ((i, nu, mu) for i in e.matrix.alphabet for nu, mu in e.raw_images[i - 1])
    for pair in sorted(pairs, key=lambda p: p[1]):
        if runs and pair[1][: len(runs[-1][0][1])] == runs[-1][0][1]:
            runs[-1].append(pair)
        else:
            runs.append([pair])
    return runs


def _fredholm_tally(psi: PartialPathMap, depth: int) -> tuple[dict[int, int], dict[int, int]]:
    """Domain words and distinct images counted at each length 1..depth.

    The pairs' streams (:func:`_pair_images`) hold the same words as
    :func:`_landing_walk`.  A run of one pair (:func:`_prefix_runs`) yields
    distinct images, so its streams are counted.  In a longer run, the
    streams landing at one length are merged in lexicographic order and
    equal neighbours counted once, so a collision of two pairs' images is
    seen, not assumed away.  Streams whose images are longer than the depth
    only add to the domain count.  Memory is O(pairs * depth).
    """
    matrix = psi.matrix
    closing = _closing_letters(matrix)
    dom: Counter = Counter()
    im: Counter = Counter()
    for run in _prefix_runs(psi.endo):
        merged = len(run) > 1
        for i, nu, mu in run:
            for L in range(depth - min(len(mu) + 1, len(nu)) + 1):
                j = len(nu) + L
                if merged and 1 <= j <= depth:
                    continue  # counted in the merge below
                n = sum(1 for _ in _pair_images(matrix, closing, i, nu, mu, L))
                dom[len(mu) + 1 + L] += n
                if 1 <= j <= depth:
                    im[j] += n
        if not merged:
            continue
        for j in range(1, depth + 1):
            # each image tagged with its domain word's length
            streams = [
                zip(_pair_images(matrix, closing, i, nu, mu, L), repeat(len(mu) + 1 + L))
                for i, nu, mu in run
                if (L := j - len(nu)) >= 0
            ]
            last = None
            for r, m in heapq.merge(*streams):
                dom[m] += 1
                if r != last:
                    im[j] += 1
                    last = r
    lengths = range(1, depth + 1)
    return {j: dom[j] for j in lengths}, {j: im[j] for j in lengths}


def fredholm_index_truncated(psi: PartialPathMap, depth: int) -> int:
    """Kernel-minus-cokernel count of the truncated permutation operator.

    At each length j <= depth, the kernel dimension is the number of words
    outside the domain and the cokernel dimension the number outside the
    image; their signed sum telescopes to the partial sum of the index
    series.  The distinct images are counted from the sorted per-pair
    streams of :func:`_fredholm_tally`, so no word set is held.
    """
    if depth < 1:
        raise InvalidParameter("depth must be >= 1")
    dom_count, im_count = _fredholm_tally(psi, depth)
    total = 0
    for j in range(1, depth + 1):
        p_j = sum(count_paths(psi.matrix, None, b, j) for b in psi.matrix.alphabet)
        not_in_dom = p_j - dom_count[j]
        not_in_im = p_j - im_count[j]
        total += not_in_dom - not_in_im
    return total
