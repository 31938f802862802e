"""Random generation of valid geometric endomorphisms for property testing.

Two generators are provided.  Over a complete transition graph (all-ones
matrix) a presentation is built from a random partition of the length-``d``
words; over an arbitrary matrix, conjugation by a random permutation unitary
yields inner automorphisms.  Both routes return endomorphisms whose validity
is re-verified by the full Cuntz-Krieger checks, not assumed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .endo import GeometricEndomorphism, build_endomorphism
from .errors import InvalidParameter, require_int
from .sft_core import TransitionMatrix, Word, enumerate_paths, terminus


@dataclass(frozen=True)
class SampleStats:
    """Bookkeeping for rejection sampling."""

    attempts: int
    accepted: int


def _require_depth(depth) -> None:
    """Refuse a word length that is not an ``int`` (:func:`require_int`) of
    at least 1: the one empty word cannot be dealt into n nonempty groups."""
    require_int(depth, "depth")
    if depth < 1:
        raise InvalidParameter(f"depth must be >= 1, got {depth}")


def _random_partition(rng: random.Random, items: list, parts: int) -> list[list]:
    """A uniform-ish random partition into exactly ``parts`` nonempty lists."""
    while True:
        buckets: list[list] = [[] for _ in range(parts)]
        for item in items:
            buckets[rng.randrange(parts)].append(item)
        if all(buckets):
            return buckets


def random_complete_graph_endomorphism(
    matrix: TransitionMatrix, rng: random.Random, depth: int = 2
) -> tuple[GeometricEndomorphism, SampleStats]:
    """A random valid presentation over an all-ones (complete-graph) matrix.

    Construction: partition the length-``depth`` words into n groups, one per
    generator.  A group of size c can be refined — replacing a word by its n
    one-letter extensions — to size exactly n^e whenever n^e >= c and
    n^e == c (mod n-1), so partitions whose group sizes are not all
    congruent to 1 modulo n-1 are rejected (every power of n is).  Each
    refined group supplies the nu-words; the mu-words are all words of
    length e, matched by a random bijection.  The resulting t_i are
    isometries with ranges partitioning the space, which is exactly the
    Cuntz-Krieger condition over a complete graph.  ``depth`` must be an
    ``int`` >= 1.
    """
    _require_depth(depth)
    n = matrix.n
    if any(matrix.entry(i, j) != 1 for i in matrix.alphabet for j in matrix.alphabet):
        raise InvalidParameter("this generator requires an all-ones matrix")
    words = list(enumerate_paths(matrix, depth))
    attempts = 0
    while True:
        attempts += 1
        groups = _random_partition(rng, words, n)
        if n > 2 and any(len(g) % (n - 1) != 1 % (n - 1) for g in groups):
            continue
        raw_pairs: list[list[tuple[Word, Word]]] = []
        for group in groups:
            nus = list(group)
            e = 0
            while n**e < len(nus):
                e += 1
            while len(nus) < n**e:
                victim = nus.pop(rng.randrange(len(nus)))
                nus.extend(victim + (j,) for j in matrix.alphabet)
            mus = list(enumerate_paths(matrix, e)) if e else [()]
            rng.shuffle(nus)
            raw_pairs.append(list(zip(nus, mus)))
        endo = build_endomorphism(matrix, raw_pairs)
        if endo.valid:
            return endo, SampleStats(attempts=attempts, accepted=1)


def _permutation(matrix: TransitionMatrix, rng: random.Random, depth: int) -> dict[Word, Word]:
    """A random permutation sigma of the length-``depth`` words that keeps
    each word's terminus.

    Every monomial s_{sigma(w)} s_w* is then nonzero, and
    u = sum s_{sigma(w)} s_w* is unitary because both the sigma(w) and the w
    cylinders partition the space.
    """
    by_terminus: dict[int, list[Word]] = {}
    for w in enumerate_paths(matrix, depth):
        by_terminus.setdefault(terminus(w), []).append(w)
    sigma: dict[Word, Word] = {}
    for group in by_terminus.values():
        images = list(group)
        rng.shuffle(images)
        sigma.update(zip(group, images))
    return sigma


def random_inner_automorphism(
    matrix: TransitionMatrix, rng: random.Random, depth: int = 2
) -> GeometricEndomorphism:
    """x -> u x u* for a random permutation unitary u; always valid.

    With u = sum s_{sigma(w)} s_w* over the words w of length ``depth``,
    s_w* s_i s_w' is s_c when w = i w_2 ... w_d and w' = w_2 ... w_d c for
    a letter c that may follow w_d, and 0 otherwise, so u s_i u* is the sum
    of s_{sigma(w) c} s_{sigma(w_2 ... w_d c)}* over those w and c.
    ``depth`` must be an ``int`` >= 1.
    """
    _require_depth(depth)
    sigma = _permutation(matrix, rng, depth)
    raw_pairs = [
        sorted(
            (sigma[w] + (c,), sigma[w[1:] + (c,)])
            for w in sigma
            if w[0] == i
            for c in matrix.followers(w[-1])
        )
        for i in matrix.alphabet
    ]
    return build_endomorphism(matrix, raw_pairs)
