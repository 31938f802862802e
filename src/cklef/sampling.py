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
from .errors import InvalidParameter
from .sft_core import TransitionMatrix, Word, enumerate_paths, terminus
from .word_algebra import Element, adjoint, element, multiply


@dataclass(frozen=True)
class SampleStats:
    """Bookkeeping for rejection sampling."""

    attempts: int
    accepted: int


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
    Cuntz-Krieger condition over a complete graph.
    """
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


def _permutation_unitary(
    matrix: TransitionMatrix, rng: random.Random, depth: int
) -> Element:
    """u = sum s_{sigma(w)} s_w* over length-``depth`` words.

    sigma permutes words sharing a terminus letter, so every monomial is
    nonzero; u is then unitary because both the sigma(w) and the w cylinders
    partition the space.
    """
    words = list(enumerate_paths(matrix, depth))
    by_terminus: dict[int, list[Word]] = {}
    for w in words:
        by_terminus.setdefault(terminus(w), []).append(w)
    mapping: dict[Word, Word] = {}
    for group in by_terminus.values():
        images = list(group)
        rng.shuffle(images)
        mapping.update(zip(group, images))
    return element(matrix, [(mapping[w], w, 1) for w in words])


def random_inner_automorphism(
    matrix: TransitionMatrix, rng: random.Random, depth: int = 2
) -> GeometricEndomorphism:
    """x -> u x u* for a random permutation unitary u; always valid."""
    u = _permutation_unitary(matrix, rng, depth)
    u_star = adjoint(u)
    raw_pairs = []
    for i in matrix.alphabet:
        image = multiply(multiply(u, element(matrix, [((i,), (), 1)])), u_star)
        if any(c != 1 for c in image.terms.values()):
            raise AssertionError("conjugated generator is not a sum of monomials")
        raw_pairs.append(sorted(image.terms))
    return build_endomorphism(matrix, raw_pairs)
