"""The Lefschetz index of a partial path map, computed four ways.

``Index_k`` counts image words of length ``k`` minus domain words of length
``k``; the index is the finite sum over ``k = 1 .. K_0 - 1``, since
``Index_k`` vanishes from ``K_0`` on (:func:`series_end` holds the proof).
Besides the defining series this module provides the telescoped boundary
count ``gamma_m``, the closed polynomial formula in matrix powers, and a
truncated Fredholm-style kernel/cokernel count.  The first three agree on
valid endomorphisms; the Fredholm count counts each image once, so it
differs from them where images collide, which a valid presentation allows
(:func:`_table`).

The table of word counts, :class:`LengthTransfer`, is filled in one way
(:func:`_table`).  A pair's domain words depend only on its class
``(first, i)``, ``first`` the letters that may follow both termini, so the
fill asks for each class's counts once and places them at each pair's
lengths.  Two kernels supply the counts, and that is where the routes part.
The walk (:func:`_class_counts`) counts the words through the package's one
word walk, :func:`~cklef.sft_core.walk`, from the empty word: a head ending
in a letter adds the number of letters that may close it, so no word is
built.  Matrix powers (:func:`_power_counts`) read the same counts off the
columns of A^L stepped by :func:`~cklef.sft_core.path_columns`, exactly.

The walk's table (:func:`landing_table`) is read by the enumerated series
and by gamma.  The Fredholm count reads no table: one pass over the
prefixes of the pairs' nu, or of their mu, and path counts past them give
its distinct images and its domain words (:func:`_prefix_counts`), so it
walks no word and holds no set of words.  The table from powers
(:func:`length_transfer_counted`) is read by the counted series and the
closed polynomial formula, whose parts are its gamma_m; it scales to deeply
composed endomorphisms.  Nothing is cached; the enumerated routes are meant
for moderate depths.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Mapping

from .errors import ExponentUnderflow, InvalidParameter, require_int
from .sft_core import TransitionMatrix, Word, common_followers, path_columns, terminus, walk
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
    """Counts a(i, j) of domain words of length i sent to image length j.

    A table covers the lengths k <= ``depth``.  Its totals, index and gamma
    are read only there, and raise past it.  The package's tables
    (:func:`_table`) hold just the cells those reads take, a(i, j) with
    i <= ``depth`` or j <= ``depth``; a test reference may hold more.
    """

    a: Mapping[tuple[int, int], int]
    depth: int
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
        self._require_covered(k)
        return self._dom.get(k, 0)

    def im_count(self, k: int) -> int:
        """Images at length k, counted once per domain word landing there."""
        self._require_covered(k)
        return self._im.get(k, 0)

    def _require_covered(self, k: int):
        if k > self.depth:
            raise InvalidParameter(f"table only covers k <= {self.depth}")

    def index_at(self, k: int) -> int:
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


def _precedes(matrix: TransitionMatrix, i: int) -> tuple[int, ...]:
    """``precedes[a]`` is 1 when the letter ``a`` may precede ``i``; index 0,
    the empty terminus, precedes nothing."""
    return (0,) + tuple(row[i - 1] for row in matrix.rows)


def _class_counts(
    matrix: TransitionMatrix, first: frozenset[int], i: int, top: int
) -> list[int]:
    """``counts[L]``, L = 1 .. ``top``: the words y of length L whose first
    letter is in ``first`` and whose last letter precedes i, from one walk
    of their heads y[:-1]; ``counts[0]`` is 0.

    A head ending in the letter a is closed by the letters that follow a
    and precede i, so it adds their number at its length + 1; no y is
    built.  The walk starts at the empty word, so it does not depend on any
    one pair's nu.  The enumerated routes' table reads it
    (:func:`landing_table`).
    """
    counts = [0] * (top + 1)
    if top < 1:
        return counts
    precedes = _precedes(matrix, i)
    closing = [sum(precedes[b] for b in matrix.followers(a)) for a in range(matrix.n + 1)]
    counts[1] = sum(precedes[c] for c in first)
    for head in walk(matrix, (), first, top - 1):
        counts[len(head) + 1] += closing[head[-1]]
    return counts


def _power_counts(
    matrix: TransitionMatrix, first: frozenset[int], i: int, top: int
) -> list[int]:
    """The counts of :func:`_class_counts`, read off matrix powers.

    The words y of length L that begin with the letter c and whose last
    letter precedes i are the (A^L)[c, i] paths from c to i, so counts[L]
    sums the column i of A^L over ``first``.  This is the module's one
    reader of matrix powers: it steps the unit column of i ``top`` times
    (:func:`~cklef.sft_core.path_columns`) and keeps only the sums.  The
    counted table reads it (:func:`length_transfer_counted`).
    """
    unit = [0] * (matrix.n + 1)
    unit[i] = 1
    columns = islice(path_columns(matrix, unit, top), 1, None)
    return [0] + [sum(map(column.__getitem__, first)) for column in columns]


def _table(
    e: GeometricEndomorphism, depth: int, counts_of: Callable[..., list[int]]
) -> LengthTransfer:
    """The full table's cells a(i, j) with i <= ``depth`` or j <= ``depth``,
    all that Index_k and gamma_k read for k <= depth, from the class counts
    ``counts_of`` gives: :func:`_class_counts` or :func:`_power_counts`.

    The pair (nu, mu) of t_i sends its domain words of length |mu| + 1 + L
    to images of length |nu| + L: mu + (i,) to nu when mu is nonempty and
    its last letter precedes i, placed as the pair is read, and mu + y + (i,)
    to nu + y for the words y whose first letter is in ``first``, the
    letters that may follow both termini, and whose last letter precedes i.
    Those y depend only on ``(first, i)``, so ``counts_of`` is called once
    per ``(first, i)``, to the longest y one of its pairs needs, and not at
    all when no pair needs one; ``first`` is formed once per pair of
    termini.  Pairs that also agree in |mu| and |nu| fill the same cells, so
    each such class is placed once, times its number of pairs.  The source
    cylinders of one generator are disjoint, so each domain word is counted
    by one pair, once.

    Each image is counted once per domain word landing on it.  An image
    nu + y with y nonempty lies in its pair's range cylinder nu + y[:1], and
    the image nu (y empty) contains its pair's range cylinders nu + c, of
    which there is at least one since no monomial is zero.  The range
    cylinders of distinct pairs are disjoint, which the validity check
    proves, and within one pair nu + y determines y.  So two domain words
    share an image only as own words mu + (i,) of pairs sharing nu, and a
    valid presentation's path map need not be injective: one over
    ``0111 1100 1010 1001`` has (2,1,4) <- (1) and (2,1,4) <- (2) in t_2.
    """
    matrix = e.matrix
    firsts: dict[tuple[int | None, int | None], frozenset[int]] = {}
    # classes[first, i, |mu|, |nu|]: the number of pairs of the class;
    # tops[first, i]: the longest y whose domain word or image one of its
    # pairs leaves at most depth long
    classes: Counter = Counter()
    tops: dict[tuple[frozenset[int], int], int] = {}
    a: Counter = Counter()
    for i in matrix.alphabet:
        for nu, mu in e.raw_images[i - 1]:
            ends = terminus(mu), terminus(nu)
            if ends not in firsts:
                firsts[ends] = common_followers(matrix, nu, mu)
            first = firsts[ends]
            classes[first, i, len(mu), len(nu)] += 1
            top = depth - min(len(mu) + 1, len(nu))
            if top > tops.get((first, i), 0):
                tops[first, i] = top
            if mu and matrix.entry(mu[-1], i) and top >= 0:
                a[len(mu) + 1, len(nu)] += 1
    counts = {key: counts_of(matrix, *key, top) for key, top in tops.items()}
    for (first, i, mu_len, nu_len), size in classes.items():
        class_counts = counts.get((first, i), ())
        for L in range(1, depth - min(mu_len + 1, nu_len) + 1):
            if class_counts[L]:
                a[mu_len + 1 + L, nu_len + L] += size * class_counts[L]
    return LengthTransfer(a=a, depth=depth)


def landing_table(psi: PartialPathMap, depth: int) -> LengthTransfer:
    """The table at ``depth`` from one word walk per class: the enumerated
    series and gamma read it."""
    require_int(depth, "depth")
    return _table(psi.endo, depth, _class_counts)


def length_transfer_counted(e: GeometricEndomorphism, max_len: int) -> LengthTransfer:
    """The table to length ``max_len`` from matrix powers, without
    enumerating words: exact at any length, so it scales to deeply composed
    endomorphisms.  The counted series and the closed polynomial formula
    (:func:`index_polynomial_parts`) read it."""
    require_int(max_len, "max_len")
    return _table(e, max_len - propagation(e), _power_counts)


@dataclass(frozen=True)
class IndexReport:
    per_k: Mapping[int, int]
    stabilized_value: int
    params: Mapping[str, int]


def gamma_parts(psi: PartialPathMap, m: int) -> tuple[int, int]:
    """Words shrinking past length m and words stretching past it, separately."""
    require_int(m, "m")
    if m < 1:
        raise InvalidParameter("m must be >= 1")
    return landing_table(psi, m).gamma_parts(m)


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


def _report(table: LengthTransfer, end: int) -> IndexReport:
    """Index_1 .. Index_end from a table that covers them, and their sum."""
    per_k = {k: table.index_at(k) for k in range(1, end + 1)}
    return IndexReport(per_k=per_k, stabilized_value=sum(per_k.values()), params={"depth": end})


def index_series(psi: PartialPathMap) -> IndexReport:
    """The defining route: enumerate words, sum Index_k up to the series end."""
    end = series_end(psi.endo)
    return _report(landing_table(psi, end), end)


def index_series_counted(e: GeometricEndomorphism) -> IndexReport:
    """The same sum from the pair-counting table; scales to deep composites."""
    end = series_end(e)
    return _report(length_transfer_counted(e, end + propagation(e)), end)


def stabilized_index(e: GeometricEndomorphism) -> int:
    return index_series_counted(e).stabilized_value


def index_polynomial_parts(e: GeometricEndomorphism, m: int, N: int) -> tuple[int, int]:
    """Positive and negative sums of the closed formula at parameters (m, N).

    A pair (nu, mu) shrinks the words it matches by d = |mu| + 1 - |nu|.
    The positive part counts its words of lengths m+1 .. m+d when d > 0,
    which shrink past length m; the negative part counts its words of
    lengths m+d+1 .. m when d < 0, which stretch past it.  That is gamma_m,
    so both parts are read off the counted table to length m + bound
    (:func:`length_transfer_counted`).
    """
    require_int(m, "m")
    require_int(N, "N")
    e.require_valid()
    bound = propagation(e)
    # Shrink and stretch amounts are at most the two-sided length bound, so
    # the formula is exact exactly when N reaches it.
    if N < bound:
        raise InvalidParameter(f"N must be at least the propagation bound {bound}")
    # Admissible m are those at which the formula over the pairs normalized
    # to mu-length k has only positive exponents.
    stretch = max(len(nu) - len(mu) - 1 for pairs in e.raw_images for nu, mu in pairs)
    minimal_m = max(1 + e.k, stretch + e.k)
    if m < minimal_m:
        raise ExponentUnderflow(m, minimal_m)
    return length_transfer_counted(e, m + bound).gamma_parts(m)


def index_polynomial(e: GeometricEndomorphism, m: int, N: int) -> int:
    pos, neg = index_polynomial_parts(e, m, N)
    return pos - neg


def _prefix_counts(e: GeometricEndomorphism, depth: int, domain: bool) -> list[int]:
    """``counts[j]``, j = 1 .. ``depth``: the distinct images of length j
    (``domain`` false) or the domain words of length j (``domain`` true), from
    one depth-first pass over the prefixes of the pairs' nu or mu, their
    keys; ``counts[0]`` is 0.

    The pair (nu, mu) of t_i sends its own word mu + (i,) to nu when mu is
    nonempty and its last letter precedes i, and mu + y + (i,) to nu + y for
    the words y whose first letter is in ``first`` =
    common_followers(nu, mu) and whose last letter precedes i.  So a word x,
    |x| >= 1, is an image of t_i exactly when x = nu for a pair of t_i with
    an own word, or x = nu + y as above; and x + (i,) is a domain word of
    t_i exactly when x = mu for a pair of t_i with an own word, or
    x = mu + y as above.  Let ends(u) be the generators i of the pairs whose
    key is a proper prefix of u and whose ``first`` holds u[|key|]: the
    second kind is exactly the i in ends(x) that x[-1] precedes.  The pass
    counts at length |x| + ``domain`` the own words of the pairs whose key
    is x plus those i: capped at 1 for the images, so each image counts
    once, and as they are for the domain words, one per generator
    (:func:`_domain_counts` proves that this is one per domain word).  For a
    key that is a proper prefix of u, (u + (a,))[|key|] = u[|key|], so
    ends(u + (a,)) adds to ends(u) only pairs whose key is u, and ends is
    fixed along the extensions of a word that is no longer a prefix of any
    key.

    The pass (the keys are allowable, so each is reached by allowable steps)
    counts each prefix itself.  A step u -> u + (a,) out of the prefixes is
    recorded as an exit (ends, a, |u| + 1) when ends(u + (a,)) is nonempty;
    a word that is no prefix of a key extends exactly one step out, at its
    longest prefix that is one, and counts nothing when that step's ends is
    empty.  For each distinct ends, the column b -> the count at a word
    ending in b, stepped L times by :func:`~cklef.sft_core.path_columns`,
    holds at a the count over the words of length L that may follow a: the
    words that extend an exit (ends, a, length) by L letters.  No word past
    the prefixes is built.
    """
    matrix = e.matrix
    shift = int(domain)
    starts: dict[Word, list[tuple[int, frozenset[int]]]] = {}
    own: Counter = Counter()
    for i in matrix.alphabet:
        for nu, mu in e.raw_images[i - 1]:
            key = mu if domain else nu
            starts.setdefault(key, []).append((i, common_followers(matrix, nu, mu)))
            own[key] += bool(mu and matrix.entry(mu[-1], i))

    def count(ends: frozenset[int], b: int, owned: int = 0) -> int:
        # the domain words a head ending in b carries, or whether a word
        # ending in b is an image
        hits = owned + sum(matrix.entry(b, i) for i in ends)
        return hits if domain else min(hits, 1)

    prefixes = {key[:k] for key in starts for k in range(len(key) + 1)}
    last = depth - shift
    counts = [0] * (depth + 1)
    exits: dict[frozenset[int], Counter] = {}
    stack: list[tuple[Word, frozenset[int]]] = [((), frozenset())]
    while stack:
        u, ends = stack.pop()
        if len(u) >= last:
            continue
        for a in matrix.followers(terminus(u)):
            x = u + (a,)
            x_ends = ends | {i for i, first in starts.get(u, ()) if a in first}
            if x in prefixes:
                stack.append((x, x_ends))
                counts[len(x) + shift] += count(x_ends, a, own[x])
            elif x_ends:
                exits.setdefault(x_ends, Counter())[a, len(x)] += 1
    for ends, steps in exits.items():
        closing = [0] + [count(ends, b) for b in matrix.alphabet]
        top = last - min(length for _, length in steps)
        for L, column in enumerate(path_columns(matrix, closing, top)):
            for (a, length), size in steps.items():
                if length + L <= last:
                    counts[length + L + shift] += size * column[a]
    return counts


def _image_counts(e: GeometricEndomorphism, depth: int) -> list[int]:
    """The distinct images by length, each counted once however many
    domain words land on it (:func:`_prefix_counts` over the nu).  No
    validity property is used, so a forged presentation is counted exactly
    too."""
    return _prefix_counts(e, depth, domain=False)


def _domain_counts(e: GeometricEndomorphism, depth: int) -> list[int]:
    """The domain words by length (:func:`_prefix_counts` over the mu): on
    every presentation that obeys the mu-rule, the per-pair count
    ``dom_count`` of the tables (:func:`_table`).

    Proof.  The table counts, for each pair (nu, mu) of t_i, its own word
    mu + (i,) and its words mu + y + (i,), by length.  The pass counts, for
    each head x, the own words of the pairs whose mu is x, one per pair as
    the table does, plus the generators i in ends(x) that x[-1] precedes:
    one per generator t_i with a pair whose word mu + y + (i,) is x + (i,),
    where the table counts one per such pair.  The two differ only where
    two pairs of one generator t_i both put i into ends(x): pairs (nu1, mu1) and (nu2, mu2), |mu1| <= |mu2|,
    both keys proper prefixes of x with x[|mu1|] in first1 and x[|mu2|] in
    first2.  If |mu1| = |mu2|, then mu1 = mu2, a repeated mu-word.  Else
    mu2 extends mu1 with mu2[|mu1|] = x[|mu1|] in first1, so the first
    pair's source region, the union of the cylinders mu1 + (c,) over c in
    first1, contains the cylinder of mu2 and with it the second pair's
    source region, which is not empty since no monomial is zero: two source
    cylinders of one generator meet.  The mu-rule refuses both
    (:func:`~cklef.endo._sources`), and ``build_endomorphism`` applies it to
    every presentation it builds, valid or not.  So each domain word is
    counted once by both.
    """
    return _prefix_counts(e, depth, domain=True)


def fredholm_index_truncated(psi: PartialPathMap, depth: int) -> int:
    """Kernel-minus-cokernel count of the truncated permutation operator.

    At each length j <= depth, the kernel dimension p_j - dom_j counts the
    words outside the domain and the cokernel dimension p_j - im_j the words
    outside the image, p_j being the number of all words of length j.  The
    p_j cancel term by term, (p_j - dom_j) - (p_j - im_j) = im_j - dom_j, so
    no word total is needed.  im_j counts each image once
    (:func:`_image_counts`), where the tables count it once per domain word
    landing on it: so the route differs from the series where a valid
    presentation collides (:func:`_table`).  dom_j is counted over the
    mu-prefixes (:func:`_domain_counts`), so the route reads no table and
    walks no word.
    """
    require_int(depth, "depth")
    if depth < 1:
        raise InvalidParameter("depth must be >= 1")
    return sum(_image_counts(psi.endo, depth)) - sum(_domain_counts(psi.endo, depth))
