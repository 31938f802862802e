"""Geometric endomorphism presentations and the induced partial path map.

A geometric endomorphism of O_A is presented by listing, for each generator
``s_i``, the pairs (nu, mu) of its image ``t_i = sum s_nu s_mu*``.  Validity
is the purely algebraic statement that the ``t_i`` satisfy the same
Cuntz-Krieger relations as the ``s_i``; the universal property then makes
``s_i -> t_i`` an endomorphism.  Those relations are statements about
cylinder sets: a pair (nu, mu) maps its source cylinders ``mu j`` onto its
range cylinders ``nu j``, for the letters j that may follow both termini.

The same pair data induces a partially defined self-map of the path set:
with ``i`` the last letter of ``w`` and ``p`` the rest, a pair (nu, mu) of
``t_i`` whose mu is a prefix of ``p`` sends ``w`` to nu followed by the rest
of ``p``.  Words of length < 2, unmatched words, and words whose result
would not be allowable are outside the domain; the index of the map is
insensitive to such short-word conventions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from .errors import (
    DepthTooSmall,
    DuplicateMuAfterNormalization,
    InvalidEndomorphism,
    InvalidParameter,
    ZeroMonomialPair,
    require_int,
)
from .sft_core import (
    ClopenSet,
    Pair,
    TransitionMatrix,
    Word,
    clopen_make,
    common_followers,
    path_columns,
    require_allowable,
    terminus,
)


@dataclass(frozen=True)
class GeometricEndomorphism:
    """A validated presentation ``s_i -> t_i = sum s_nu s_mu*``.

    ``raw_images`` keeps the pairs as given; ``k`` is the length of the
    longest raw mu-word.  The endomorphism owns its induced map on K_0,
    left out of equality, hashing and repr, as the matrix owns its
    K-groups: :func:`cklef.ktheory.induced_k0` fills it on its first call,
    so that ``lefschetz_number`` reads it without a second descent.
    """

    matrix: TransitionMatrix
    raw_images: tuple[tuple[Pair, ...], ...]
    k: int
    valid: bool
    # _induced_k0 holds the InducedK0 once computed: at most one entry.
    _induced_k0: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_induced_k0", [])

    def range_set(self, i: int) -> ClopenSet:
        """The range of t_i: the union of the range cylinders of its pairs."""
        return clopen_make(self.matrix, _cylinders(self.matrix, self.raw_images[i - 1]))

    def require_valid(self):
        if not self.valid:
            raise InvalidEndomorphism("presentation fails the Cuntz-Krieger checks")


def build_endomorphism(
    matrix: TransitionMatrix,
    raw_pairs: "list[list[tuple[Word, Word]]]",
) -> GeometricEndomorphism:
    """Validate a presentation given as per-generator pair lists: each pair,
    then each generator's mu-words by the mu-rule of :func:`_sources`, whose
    sorted source cylinders the Cuntz-Krieger check reads."""
    if len(raw_pairs) != matrix.n:
        raise InvalidEndomorphism(
            f"expected {matrix.n} generator image lists, got {len(raw_pairs)}"
        )
    raws: list[tuple[Pair, ...]] = []
    for i, pairs in enumerate(raw_pairs, start=1):
        if not pairs:
            raise InvalidEndomorphism(f"generator {i} has no presentation pairs")
        cleaned = []
        for nu, mu in pairs:
            nu, mu = tuple(nu), tuple(mu)
            require_allowable(matrix, nu)
            require_allowable(matrix, mu)
            if not common_followers(matrix, nu, mu):
                raise ZeroMonomialPair(
                    f"pair {(nu, mu)} of generator {i} denotes the zero monomial"
                )
            cleaned.append((nu, mu))
        raws.append(tuple(cleaned))

    k = max(len(mu) for pairs in raws for _, mu in pairs)

    sources = [_sources(matrix, i, pairs) for i, pairs in enumerate(raws, start=1)]
    valid = _ck_checks(matrix, raws, sources)
    return GeometricEndomorphism(matrix=matrix, raw_images=tuple(raws), k=k, valid=valid)


def _cylinders(matrix: TransitionMatrix, pairs) -> list[Word]:
    """The range cylinders ``nu j`` of the pairs (nu, mu), over the letters j
    that may follow both termini; ``nu`` alone when every follower of nu's
    terminus qualifies.  Swapping each pair gives the source cylinders."""
    out = []
    for nu, mu in pairs:
        shared = common_followers(matrix, nu, mu)
        whole = shared == matrix.followers(terminus(nu))
        out += [nu] if whole else [nu + (j,) for j in sorted(shared)]
    return out


def _sources(matrix: TransitionMatrix, i: int, pairs) -> list[Word]:
    """The source cylinders of t_i, sorted, once they pass the mu-rule.

    The mu-rule refuses a repeated mu-word, and two pairs whose source
    cylinders meet: either makes the path map ambiguous.  A source cylinder
    of mu1 is mu1 or mu1 j.  Call mu2 covered when a cylinder of another
    mu-word is a prefix of mu2 or equals it.  Cylinders of distinct mu-words
    meet exactly when one covers the other's mu-word, and then two
    neighbours in the sort meet.  With mu1 a proper prefix of mu2 and
    j = mu2[|mu1|], mu1 covers mu2 exactly when nu1 is empty or j may follow
    nu1's terminus.

    The least covered mu2 is covered by one cylinder c of its longest
    mu-prefix mu1, as a cover from a shorter mu-word covers mu1 < mu2 too;
    the message names mu1 and mu2.  With mu-words as labels, c sorts right
    before the key (mu2, mu2): a cylinder between would extend c, and so
    would its mu-word, a covered one below mu2, unless it equals c = mu1 and
    covers mu1.  Cylinders of mu2 sort after that key, so a predecessor that
    is a prefix of mu2 covers it: mu2 is the least mu-word with one.
    """
    seen: set[Word] = set()
    for _, mu in pairs:
        if mu in seen:
            raise DuplicateMuAfterNormalization(f"generator {i}: mu-word {mu} repeated")
        seen.add(mu)
    labelled = sorted((s, mu) for nu, mu in pairs for s in _cylinders(matrix, [(mu, nu)]))
    words = [s for s, _ in labelled]
    if _overlapping(words):
        for mu2 in sorted(seen):
            k = bisect_left(labelled, (mu2, mu2))
            for v, mu1 in labelled[k - 1 : k]:
                if mu2[: len(v)] == v:
                    raise DuplicateMuAfterNormalization(
                        f"generator {i}: mu-words {mu1} and {mu2} collide after normalization"
                    )
    return words


def _overlapping(words: list[Word]) -> bool:
    """Whether sorted ``words`` overlap: if a later word extends a word, the next one does."""
    return any(w[: len(v)] == v for v, w in zip(words, words[1:]))


def _ck_checks(matrix: TransitionMatrix, raws, sources: list[list[Word]]) -> bool:
    """The Cuntz-Krieger relations, read on cylinder sets of the pair lists
    ``raws``, with the sorted source cylinders of :func:`_sources`.

    The range cylinders of all pairs of all generators must partition the
    space (each t_i is a partial isometry and sum t_i t_i* = 1), and the
    sources of each t_i must make up the ranges of the t_j with A[i, j] = 1
    (t_i* t_i = sum_j A[i, j] t_j t_j*).  Both are decided from one sort of
    the range cylinders and from word counts, with no canonical form built.

    Let ``top`` be the length of the longest range or source cylinder, and
    N(w) the number of allowable words of length ``top`` that extend w.  No
    row of A is zero, so every allowable word extends to length ``top``;
    a union of cylinders of length at most ``top`` is therefore the union of
    the cylinders of its words of that length, and one such union contained
    in another equals it exactly when both hold as many of those words.
    N(w) depends only on |w| and the terminus of w, and one table gives it:
    ext[m] is step m of :func:`~cklef.sft_core.path_columns` from the
    all-ones column, index 0 the empty terminus.

    - Partition.  One pair's cylinders are disjoint and allowable as they
      stand.  The range cylinders of all pairs are disjoint exactly when,
      sorted, no word is a prefix of, or equal to, the next.  Disjoint
      cylinders lie in the space, so they cover it exactly when their counts
      sum to N(empty word).
    - Sources.  The source cylinders of t_i are disjoint, as the mu-rule of
      :func:`_sources` leaves them.  Once the ranges partition the space, each
      source cylinder s is covered by the range cylinders comparable with
      it: one prefix of s, which is the last range word sorting at or before
      s, or else the block of range words extending s, which starts right
      after s.  If each of them belongs to a t_j with A[i, j] = 1, the
      sources lie in the union U of those ranges, and since both sides are
      disjoint unions, the sources equal U exactly when the counts of the
      source cylinders sum to those of the ranges of those t_j.
    """
    ranges = [_cylinders(matrix, raw) for raw in raws]
    labelled = sorted((w, j) for j, group in zip(matrix.alphabet, ranges) for w in group)
    words = [w for w, _ in labelled]
    labels = [j for _, j in labelled]
    if _overlapping(words):
        return False
    top = max(map(len, words + [s for group in sources for s in group]))
    ext = list(path_columns(matrix, [1] * (matrix.n + 1), top))

    def total(group: list[Word]) -> int:
        """The number of words of length ``top`` in the cylinders of ``group``."""
        return sum(ext[top - len(w)][w[-1] if w else 0] for w in group)

    if total(words) != ext[top][0]:
        return False
    range_totals = [total(group) for group in ranges]
    for i, group in zip(matrix.alphabet, sources):
        allowed = matrix.followers(i)
        if total(group) != sum(range_totals[j - 1] for j in allowed):
            return False
        for s in group:
            k = bisect_right(words, s)
            if k and s[: len(words[k - 1])] == words[k - 1]:
                comparable = labels[k - 1 : k]
            else:
                end = k
                while end < len(words) and words[end][: len(s)] == s:
                    end += 1
                comparable = labels[k:end]
            if not allowed.issuperset(comparable):
                return False
    return True


def identity_endomorphism(matrix: TransitionMatrix) -> GeometricEndomorphism:
    return build_endomorphism(matrix, [[((i,), ())] for i in matrix.alphabet])


def _multiply_monomials(matrix: TransitionMatrix, a: Pair, b: Pair) -> list[Pair]:
    """The pairs of the product (s_nu s_mu*)(s_rho s_sigma*), each with
    coefficient 1.

    The middle factor s_mu* s_rho collapses by the word calculus: it is a
    tail word when one of mu, rho extends the other, a follower-weighted sum
    when they coincide, and zero otherwise.
    """
    nu, mu = a
    rho, sigma = b
    if len(rho) >= len(mu):
        if rho[: len(mu)] != mu:
            return []
        tail = rho[len(mu):]
        if tail:
            # s_mu* s_rho = s_tail, valid when tail may follow nu.
            if nu and matrix.entry(terminus(nu), tail[0]) == 0:
                return []
            new = (nu + tail, sigma)
            return [new] if common_followers(matrix, *new) else []
        # rho == mu: middle factor is the range projection Q_{t(mu)}.
        fol_nu = matrix.followers(terminus(nu))
        fol_mu = matrix.followers(terminus(mu))
        fol_sigma = matrix.followers(terminus(sigma))
        if (fol_nu & fol_sigma) <= fol_mu:
            return [(nu, sigma)] if fol_nu & fol_sigma else []
        return [(nu + (j,), sigma + (j,)) for j in sorted(fol_nu & fol_mu & fol_sigma)]
    if mu[: len(rho)] != rho:
        return []
    tail = mu[len(rho):]
    # s_mu* s_rho = s_tail*, valid when tail may follow sigma.
    if sigma and matrix.entry(terminus(sigma), tail[0]) == 0:
        return []
    new = (nu, sigma + tail)
    return [new] if common_followers(matrix, *new) else []


def _pair_product(matrix: TransitionMatrix, xs, ys) -> list[Pair]:
    """The pairs of x y, for x and y the sums of the monomials of the pair
    lists ``xs`` and ``ys``.  A pair the product reaches twice is listed
    twice: it has coefficient 2.

    s_mu* s_rho is zero unless one of mu and rho is a prefix of the other,
    so a pair (nu, mu) of ``xs`` meets only the pairs (rho, sigma) of ``ys``
    whose rho is a proper prefix of mu, looked up by mu's prefixes, and
    those whose rho extends mu, one block of ``ys`` sorted by rho: the
    words from mu up to mu followed by a letter past the alphabet.
    """
    ys = sorted(ys)
    rhos = [rho for rho, _ in ys]
    by_rho: dict[Word, list[Pair]] = {}
    for b in ys:
        by_rho.setdefault(b[0], []).append(b)
    out = []
    for a in xs:
        mu = a[1]
        block = ys[bisect_left(rhos, mu) : bisect_left(rhos, mu + (matrix.n + 1,))]
        for b in [b for m in range(len(mu)) for b in by_rho.get(mu[:m], ())] + block:
            out += _multiply_monomials(matrix, a, b)
    return out


def _image_of_word(matrix: TransitionMatrix, w: Word, memo: dict[Word, list[Pair]]) -> list[Pair]:
    """The pairs of t_w = t_{w_1} ... t_{w_m}, extended from the longest
    prefix of ``w`` held in ``memo``, which maps words to their images.

    The memo belongs to one :func:`compose` call: the call seeds it with the
    empty word's unit and each letter's pairs and drops it on return, so it
    holds one entry per distinct prefix that call multiplied out, and every
    new prefix costs one :func:`_pair_product`.
    """
    n = len(w)
    while w[:n] not in memo:
        n -= 1
    for m in range(n, len(w)):
        memo[w[:m + 1]] = _pair_product(matrix, memo[w[:m]], memo[w[m:m + 1]])
    return memo[w]


def compose(e: GeometricEndomorphism, f: GeometricEndomorphism) -> GeometricEndomorphism:
    """The endomorphism ``s_i -> e(t_i^f)`` in its reduced presentation.

    Each pair (nu, mu) of t_i^f becomes the product of the pairs of
    ``t_nu^e`` with those of ``t_mu^e`` swapped (the adjoint).  A pair
    listed twice in one image is a coefficient 2 and is refused; the
    image's sibling pairs are merged by :func:`_reduce`, and the result goes
    through the full validity check of :func:`build_endomorphism`.
    """
    e.require_valid()
    f.require_valid()
    if e.matrix != f.matrix:
        raise InvalidEndomorphism("cannot compose endomorphisms over different matrices")
    matrix = e.matrix
    memo = {(): [((), ())]}
    memo.update({(i,): e.raw_images[i - 1] for i in matrix.alphabet})
    pair_lists = []
    for i, pairs in enumerate(f.raw_images, start=1):
        image = [
            pair
            for nu, mu in pairs
            for pair in _pair_product(
                matrix,
                _image_of_word(matrix, nu, memo),
                [(sigma, rho) for rho, sigma in _image_of_word(matrix, mu, memo)],
            )
        ]
        if len(set(image)) < len(image):
            raise InvalidEndomorphism(
                f"composite image of generator {i} is not a sum of distinct monomials"
            )
        pair_lists.append(_reduce(matrix, image))
    return build_endomorphism(matrix, pair_lists)


def _reduce(matrix: TransitionMatrix, pairs) -> list[Pair]:
    """Merge sibling pairs to a fixpoint, and sort.

    The pairs ``(nu + (c,), mu + (c,))``, for exactly the letters c that may
    follow both termini of a nonempty ``nu`` and of ``mu`` (possibly empty),
    become the one pair (nu, mu): ``s_nu s_mu* = sum_c s_nuc s_muc*`` over
    those c.  This undoes one step of :func:`represent_at_depth` and leaves
    every t_i unchanged.  A merge is blocked when its mu-word is already the
    mu of a pair, or is shared by two merges of one pass: the merged pair
    would repeat a mu-word, which the mu-rule refuses even where the sources
    are disjoint.  That covers a merge whose pair is already present, which
    would hide an overlap from the validity check.  Each pass decides its
    merges from the pairs alone, so the result depends only on the set.

    The result is canonical when no merge is blocked.  Different sibling
    groups share no pair, so the order of merges does not matter.  Two
    presentations of the same t_i split to the same pairs at a common
    mu-length, as :func:`represent_at_depth` splits them, and each split
    step is undone by one merge; so when their nu-words are nonempty, both
    reduce to the same pairs.
    """
    pairs = set(pairs)
    while True:
        siblings: dict[Pair, set[int]] = {}
        for nu, mu in pairs:
            if len(nu) > 1 and mu and nu[-1] == mu[-1]:
                siblings.setdefault((nu[:-1], mu[:-1]), set()).add(nu[-1])
        merges = [
            (nu, mu, letters)
            for (nu, mu), letters in siblings.items()
            if letters == common_followers(matrix, nu, mu)
        ]
        present = {mu for _, mu in pairs}
        shared = Counter(mu for _, mu, _ in merges)
        merges = [
            (nu, mu, letters)
            for nu, mu, letters in merges
            if mu not in present and shared[mu] == 1
        ]
        if not merges:
            return sorted(pairs)
        for nu, mu, letters in merges:
            pairs -= {(nu + (c,), mu + (c,)) for c in letters}
            pairs.add((nu, mu))


def _require_exponent(n, least: int) -> None:
    """Refuse an exponent that is not an ``int`` (:func:`require_int`) of at
    least ``least``."""
    require_int(n, "an exponent")
    if n < least:
        raise InvalidParameter(f"an exponent must be >= {least}, got {n}")


def _ladder(e: GeometricEndomorphism, targets) -> Iterator[GeometricEndomorphism]:
    """``e^k`` for each exponent k in ``targets``, in increasing order.

    This is the package's one place where powers are composed.  The ladder
    takes the exponents that halving the targets reaches and composes each
    of them once, in increasing order, from its two balanced halves:
    ``e^k = compose(e^ceil(k/2), e^floor(k/2))``, with ``e^1`` the ``e``
    given.  A power is held only until the last power that takes it as a
    half is composed, and a target only until the caller resumes the
    ladder, so a caller that drops each target once it has read it keeps at
    most the halves still to be used and the power in hand.

    Balanced halves cost less than composing onto ``e``: composing ``e``
    onto ``e^(k-1)`` substitutes t_i into every word of the big power,
    which memoizes many more prefixes, and composing a big power onto a
    small one multiplies out mostly zero monomials.  An invalid ``e`` is
    refused before ``e^1`` is yielded.
    """
    e.require_valid()
    reached = set()
    stack = list(targets)
    while stack:
        k = stack.pop()
        if k not in reached:
            reached.add(k)
            if k > 1:
                stack += [k - k // 2, k // 2]
    # last[h]: the largest exponent that takes e^h as one of its halves
    last = {h: k for k in sorted(reached) if k > 1 for h in (k - k // 2, k // 2)}
    held = {1: e}
    for k in sorted(reached):
        if k > 1:
            held[k] = compose(held[k - k // 2], held[k // 2])
            for h in {k - k // 2, k // 2}:
                if last[h] == k:
                    del held[h]
        if k in targets:
            yield held[k]
        if k not in last:
            del held[k]


def power(e: GeometricEndomorphism, n: int) -> GeometricEndomorphism:
    """``e`` composed with itself ``n`` times, on the halving ladder.

    ``e^n`` is ``compose(e^ceil(n/2), e^floor(n/2))``, and so on down
    (:func:`_ladder`): one call to :func:`compose` for each exponent above 1
    that halving n reaches, none of which composes a large power onto a
    small one.  Where the reduced form is canonical (see :func:`_reduce`),
    the result has the same ``raw_images`` as the chain
    ``compose(e, compose(e, ...))`` when no nu-word is empty.
    ``power(e, 1)`` is a valid ``e`` as given, not reduced.  ``n`` must be
    an ``int`` >= 1.
    """
    _require_exponent(n, 1)
    return next(_ladder(e, (n,)))


def powers(e: GeometricEndomorphism, n_max: int) -> Iterator[GeometricEndomorphism]:
    """``e^1``, ..., ``e^n_max``, from one ladder (:func:`_ladder`).

    Each power is composed once, from its balanced halves: ``n_max - 1``
    calls to :func:`compose` in all.  A power above ceil(n_max / 2) is no
    later power's half, so the ladder lets it go once the caller has read
    it.  ``n_max`` must be an ``int`` >= 0.
    """
    _require_exponent(n_max, 0)
    return _ladder(e, range(1, n_max + 1))


def represent_at_depth(e: GeometricEndomorphism, k: int) -> GeometricEndomorphism:
    """The same endomorphism presented with all mu-words at length ``k``.

    Re-presenting deepens the path map's domain threshold, removing its
    shortest domain words; the invariance property of the index is exactly
    that this does not change the stabilized value.  ``k`` must be an ``int``.
    """
    require_int(k, "k")
    if k < e.k:
        raise DepthTooSmall(f"cannot re-present at depth {k} below {e.k}")
    pair_lists = []
    for pairs in e.raw_images:
        split = []
        for pair in pairs:
            # s_nu s_mu* = sum of s_nuc s_muc* over the letters c that may
            # follow both termini
            frontier = [pair]
            while len(frontier[0][1]) < k:
                frontier = [
                    (nu + (c,), mu + (c,))
                    for nu, mu in frontier
                    for c in sorted(common_followers(e.matrix, nu, mu))
                ]
            split += frontier
        pair_lists.append(sorted(split))
    return build_endomorphism(e.matrix, pair_lists)


class PartialPathMap:
    """The partial self-map of the path set induced by a presentation.

    Evaluation matches the raw pairs: for ``w = p + (i,)`` with ``p``
    nonempty, a pair (nu, mu) of ``t_i`` with mu a prefix of ``p`` sends ``w``
    to ``nu + p[len(mu):]`` if that is allowable.  Mu-words may nest, but by
    the mu-rule at most one pair of a generator gives an allowable result.
    """

    def __init__(self, endo: GeometricEndomorphism):
        endo.require_valid()
        self.endo = endo
        self.matrix = endo.matrix

    def dot_apply(self, w: Word) -> Word | None:
        """Evaluate the path map; None encodes Undefined."""
        if len(w) < 2:
            return None
        i = w[-1]
        p = w[:-1]
        for nu, mu in self.endo.raw_images[i - 1]:
            if p[: len(mu)] == mu:
                rest = p[len(mu):]
                if rest and nu and self.matrix.entry(terminus(nu), rest[0]) == 0:
                    continue  # result not allowable; another pair may match
                return nu + rest
        return None


def dot_apply(path_map: PartialPathMap, w: Word) -> Word | None:
    return path_map.dot_apply(tuple(w))


def path_map(endo: GeometricEndomorphism) -> PartialPathMap:
    return PartialPathMap(endo)
