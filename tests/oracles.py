"""Independent references the package's fast routes are tested against.

They evaluate the definitions directly, word by word or entry by entry, and
are kept out of the package because nothing but the tests calls them:

- the length-transfer table filled from the path map on every word, and
  filled pair by pair from matrix powers (``per_pair_fill``), and the
  closed polynomial formula summed pair by pair
  (``polynomial_parts_pair_by_pair``), each from its own table of powers
  (``matrix_powers``), made by plain products and dropped when it returns;
- the algebra of integer combinations of monomials s_nu s_mu* in O_A
  (``Element``, with ``element``, ``monomial``, ``unit``, ``image_element``,
  ``adjoint``, ``multiply`` on the package's monomial kernel, ``normalize``
  and ``equals``), which the package does without: it composes and splits
  pair lists of coefficient-1 monomials;
- the relations and cylinder supports of elements of O_A, read through that
  algebra (``generator_equal``, ``is_partial_isometry``,
  ``is_projection``, ``support``), against which the cylinder-set validity
  check is tested, and the K_0 map computed from those supports
  (``induced_k0_support_route``);
- the images landing more than once, merged at each length over runs of
  pairs whose nu extend one minimal nu (``collisions_by_length``), from
  each pair's images at one length (``pair_images``);
- the substitution of an endomorphism into an element (``apply``) and
  composites multiplied out with it word by word
  (``compose_word_by_word``), with the element sum ``add``, ``scale`` and
  ``zero``, and sibling pairs merged one at a time, short of a repeated
  mu-word (``reduce_pairs``);
- the Cuntz-Krieger relations on cylinder sets decided by comparing
  canonical forms (``ck_checks_canonical``, with ``is_partition``), the
  reference for the package's count of extending words;
- Gauss-Jordan inverse and solve over ``Fraction``;
- the Smith form by whole-row and whole-column operations
  (``smith_normal_form_reference``), against which the package's
  elimination on the live block is tested;
- graded maps and pairings that only the tests build.
"""

import heapq
import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import tee
from typing import Mapping

from cklef import linalg
from cklef.graded import GradedMap, GradedPairing, GradedSpace
from cklef.index import LengthTransfer, propagation
from cklef.endo import _cylinders, _multiply_monomials
from cklef.errors import DepthTooSmall
from cklef.sft_core import (
    EMPTY_WORD,
    ClopenSet,
    Pair,
    TransitionMatrix,
    clopen_make,
    common_followers,
    iter_paths,
    require_allowable,
    terminus,
    walk,
)


class MatrixMismatch(ValueError):
    """Operands of an oracle built over different transition matrices."""


def length_transfer_enumerated(psi, max_len):
    """Fill the a(i, j) table by evaluating the path map on every word of
    length <= ``max_len``.  It covers the lengths up to ``max_len`` less the
    propagation bound: a word landing at or crossing one is no longer."""
    a = Counter(
        (m, len(r))
        for m in range(1, max_len + 1)
        for w in iter_paths(psi.matrix, m)
        if (r := psi.dot_apply(w)) is not None
    )
    return LengthTransfer(a=a, depth=max_len - propagation(psi.endo))


def _pairs(e):
    """Every pair (nu, mu) of every t_i, with the letters ``first`` that may
    follow both termini: ``(i, nu, mu, first)``."""
    m = e.matrix
    return [
        (i, nu, mu, m.followers(terminus(mu)) & m.followers(terminus(nu)))
        for i in m.alphabet
        for nu, mu in e.raw_images[i - 1]
    ]


def matrix_powers(m, top):
    """A^0 .. A^``top`` as tuples of rows, by plain matrix products: the
    tests' own powers, kept for one oracle call."""
    powers = [tuple(tuple(int(r == c) for c in range(m.n)) for r in range(m.n))]
    for _ in range(top):
        prev = powers[-1]
        powers.append(tuple(
            tuple(sum(prev[r][t] * m.rows[t][c] for t in range(m.n)) for c in range(m.n))
            for r in range(m.n)
        ))
    return powers


def _pair_words_at(m, powers, i, mu, first, L):
    """Domain words of length L matched by one pair (nu, mu) of t_i:
    ``mu + (i,)``, or ``mu + (c,) + u`` with c in ``first``, each c counted
    with its own entry (A^(L - |mu| - 1))[c, i] of ``powers``."""
    if L >= len(mu) + 2:
        return sum(powers[L - len(mu) - 1][c - 1][i - 1] for c in first)
    return 1 if L == len(mu) + 1 and mu and m.entry(mu[-1], i) else 0


def per_pair_fill(e, max_len):
    """The a(i, j) table filled pair by pair, each pair's words counted at
    each length from the matrix powers up to ``max_len``."""
    powers = matrix_powers(e.matrix, max_len)
    cells = [
        ((L, L - (len(mu) + 1 - len(nu))), _pair_words_at(e.matrix, powers, i, mu, first, L))
        for i, nu, mu, first in _pairs(e)
        for L in range(len(mu) + 1, max_len + 1)
    ]
    a = {}
    for cell, c in cells:
        if c:
            a[cell] = a.get(cell, 0) + c
    return a


def polynomial_parts_pair_by_pair(e, m):
    """The closed formula's (positive, negative) sums at m, pair by pair: a
    pair shrinking by d > 0 adds its words of lengths m+1 .. m+d to the
    positive sum, one with d < 0 its words of lengths m+d+1 .. m to the
    negative sum."""
    powers = matrix_powers(e.matrix, m + propagation(e))
    pos = neg = 0
    for i, nu, mu, first in _pairs(e):
        d = len(mu) + 1 - len(nu)
        lengths = range(m + 1, m + d + 1) if d > 0 else range(m + d + 1, m + 1)
        words = sum(_pair_words_at(e.matrix, powers, i, mu, first, L) for L in lengths)
        if d > 0:
            pos += words
        else:
            neg += words
    return pos, neg


def pair_images(matrix, i, nu, mu, L):
    """The images ``nu + y``, |y| = ``L``, of the domain words the pair
    (nu, mu) of t_i matches, in lexicographic order.

    The pair sends mu + (i,) to nu when mu is nonempty and its last letter
    precedes i, and mu + y + (i,) to nu + y for y whose first letter follows
    both termini and whose last letter precedes i.  Each head nu + y[:-1] of
    length |nu| + L - 1 is closed by the letters that follow its last
    letter and precede i.
    """
    if L == 0:
        if mu and matrix.entry(mu[-1], i):
            yield nu
        return
    first = matrix.followers(terminus(mu)) & matrix.followers(terminus(nu))
    closing = [
        sorted(b for b in matrix.followers(a) if matrix.entry(b, i))
        for a in range(matrix.n + 1)
    ]
    if L == 1:
        for c in closing[0]:
            if c in first:
                yield nu + (c,)
        return
    top = len(nu) + L - 1
    for head in walk(matrix, nu, first, top):
        if len(head) == top:
            prefix = tuple(head)
            for b in closing[head[-1]]:
                yield prefix + (b,)


def _nu_runs(e):
    """The pairs ``(i, nu, mu)`` grouped under the minimal nu, those that no
    other pair's nu is a proper prefix of.  Images nu + y and nu' + y' of one
    length are equal only if one of nu and nu' is a prefix of the other, and
    then both extend the one minimal nu that is a prefix of the shorter."""
    pairs = [(i, nu, mu) for i in e.matrix.alphabet for nu, mu in e.raw_images[i - 1]]
    roots = {
        nu
        for _, nu, _ in pairs
        if not any(len(other) < len(nu) and nu[: len(other)] == other for _, other, _ in pairs)
    }
    return [[pair for pair in pairs if pair[1][: len(root)] == root] for root in roots]


def collisions_by_length(psi, depth):
    """The images of lengths 1..``depth`` counted once more for each further
    domain word landing on them, merged run by run and length by length:
    at each length j, the streams ``pair_images`` of every pair of a run
    of two or more pairs, merged, with equal neighbours counted."""
    total = 0
    for run in _nu_runs(psi.endo):
        if len(run) < 2:
            continue
        for j in range(1, depth + 1):
            streams = [
                pair_images(psi.matrix, i, nu, mu, j - len(nu))
                for i, nu, mu in run
                if j >= len(nu)
            ]
            words, following = tee(heapq.merge(*streams))
            next(following, None)
            total += sum(map(operator.eq, words, following))
    return total


# ---------------------------------------------------------------------------
# Elements of O_A: integer combinations of monomials s_nu s_mu*.
#
# Products, adjoints and normal forms follow from the Cuntz-Krieger relations
#
#     s_i* s_i = sum_j A[i,j] s_j s_j*,        sum_i s_i s_i* = 1.
#
# Every computation stays in the integral span, so equality is decidable by
# expanding both sides to a common mu-length and comparing term by term.
# ---------------------------------------------------------------------------


def monomial_is_zero(matrix, nu, mu):
    """``s_nu s_mu* = 0`` iff no letter may follow both termini."""
    return not common_followers(matrix, nu, mu)


@dataclass(frozen=True)
class Element:
    """An integer combination of monomials ``s_nu s_mu*``.

    ``terms`` maps (nu, mu) to a nonzero integer coefficient; zero monomials
    are never stored.
    """

    matrix: TransitionMatrix
    terms: Mapping[Pair, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "terms", dict(self.terms))

    def __hash__(self):
        return hash((self.matrix, frozenset(self.terms.items())))

    def max_mu_length(self):
        return max((len(mu) for _, mu in self.terms), default=0)


def element(matrix, terms):
    """Build an element from (nu, mu, coefficient) triples, dropping zeros."""
    acc = {}
    for nu, mu, c in terms:
        nu, mu = tuple(nu), tuple(mu)
        require_allowable(matrix, nu)
        require_allowable(matrix, mu)
        if c == 0 or monomial_is_zero(matrix, nu, mu):
            continue
        key = (nu, mu)
        acc[key] = acc.get(key, 0) + c
        if acc[key] == 0:
            del acc[key]
    return Element(matrix=matrix, terms=acc)


def monomial(matrix, nu, mu, coeff=1):
    return element(matrix, [(tuple(nu), tuple(mu), coeff)])


def unit(matrix):
    return monomial(matrix, (), ())


def image_element(e, i):
    """The element t_i of a presentation (1-based generator index)."""
    return element(e.matrix, [(nu, mu, 1) for nu, mu in e.raw_images[i - 1]])


def adjoint(x):
    """Swap nu and mu in every term (coefficients are integers, so no conjugation)."""
    return Element(matrix=x.matrix, terms={(mu, nu): c for (nu, mu), c in x.terms.items()})


def _check(x, y):
    if x.matrix != y.matrix:
        raise MatrixMismatch("elements over different matrices")


def multiply(x, y):
    """Every term of ``x`` times every term of ``y``, by the package's
    monomial kernel, summed in one table."""
    _check(x, y)
    acc = Counter()
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            acc.update(dict.fromkeys(_multiply_monomials(x.matrix, a, b), ca * cb))
    return Element(matrix=x.matrix, terms={pair: c for pair, c in acc.items() if c})


def normalize(x, depth):
    """Expand all terms until every mu-word has length ``depth``, which must
    be at least the current maximum mu-length.  nu-lengths float.
    """
    d = x.max_mu_length()
    if depth < d:
        raise DepthTooSmall(f"depth {depth} below maximal mu-length {d}")
    acc = Counter()
    for (nu, mu), c in x.terms.items():
        frontier = [(nu, mu)]
        while frontier and len(frontier[0][1]) < depth:
            # s_nu s_mu* = sum_j s_{nu j} s_{mu j}* over shared followers
            frontier = [
                (nu + (j,), mu + (j,))
                for nu, mu in frontier
                for j in sorted(common_followers(x.matrix, nu, mu))
            ]
        acc.update(dict.fromkeys(frontier, c))
    return Element(matrix=x.matrix, terms={pair: c for pair, c in acc.items() if c})


def equals(x, y):
    _check(x, y)
    d = max(x.max_mu_length(), y.max_mu_length())
    return normalize(x, d).terms == normalize(y, d).terms


def generator_equal(e, f):
    """Generator-wise equality of the presented images as algebra elements."""
    if e.matrix != f.matrix:
        return False
    return all(
        equals(image_element(e, i), image_element(f, i)) for i in e.matrix.alphabet
    )


def is_partial_isometry(x):
    return equals(multiply(multiply(x, adjoint(x)), x), x)


def is_projection(x):
    return equals(x, adjoint(x)) and equals(multiply(x, x), x)


def support(p):
    """The clopen support of a projection that is a sum of cylinder projections.

    After normalizing to a common depth, such a projection is a sum of
    ``s_w s_w*`` with coefficient 1; the result collects those ``w``.  Raises
    ValueError for anything else.
    """
    if not is_projection(p):
        raise ValueError("support requires a projection")
    d = max((max(len(nu), len(mu)) for nu, mu in p.terms), default=0)
    words = set()
    for (nu, mu), c in normalize(p, d).terms.items():
        if nu != mu or c != 1:
            raise ValueError(
                "projection is not a sum of cylinder projections with coefficient 1"
            )
        words.add(nu)
    return clopen_make(p.matrix, words)


def induced_k0_support_route(e):
    """alpha_*(e_i) computed from the range projections' cylinder supports.

    Independent of ``induced_k0``'s per-pair formula: the class of a sum of
    cylinder projections s_w s_w* is the sum of the e_{t(w)}.  Returns the
    matrix with these vectors as columns (they agree with induced_k0 only up
    to the relation lattice, so compare classes, not raw vectors).
    """
    e.require_valid()
    letters = e.matrix.alphabet
    columns = []
    for i in letters:
        t = image_element(e, i)
        termini = Counter(terminus(w) for w in support(multiply(t, adjoint(t))).members)
        columns.append([termini[j] for j in letters])
    return tuple(zip(*columns))


def zero(matrix):
    return Element(matrix=matrix, terms={})


def add(x, y):
    _check(x, y)
    acc = dict(x.terms)
    for key, c in y.terms.items():
        acc[key] = acc.get(key, 0) + c
        if acc[key] == 0:
            del acc[key]
    return Element(matrix=x.matrix, terms=acc)


def scale(x, c):
    if c == 0:
        return zero(x.matrix)
    return Element(matrix=x.matrix, terms={k: c * v for k, v in x.terms.items()})


def apply(e, x):
    """The substitution s_i -> t_i, s_i* -> t_i* of ``e`` in ``x``: the sum
    of ``c * t_nu t_mu*`` over the terms of ``x``, every word multiplied out
    from the unit, one freshly built letter image at a time."""

    def image_of_word(w):
        result = unit(e.matrix)
        for letter in w:
            result = multiply(result, image_element(e, letter))
        return result

    total = zero(e.matrix)
    for (nu, mu), c in x.terms.items():
        total = add(total, scale(multiply(image_of_word(nu), adjoint(image_of_word(mu))), c))
    return total


def compose_word_by_word(e, f):
    """The unreduced pair lists of e o f: each t_i of ``f`` put through
    :func:`apply`, and each image's distinct monomials sorted."""
    pair_lists = []
    for i in e.matrix.alphabet:
        elt = apply(e, image_element(f, i))
        assert all(c == 1 for c in elt.terms.values())
        pair_lists.append(tuple(sorted(elt.terms)))
    return tuple(pair_lists)


def reduce_pairs(matrix, pairs, rng=None):
    """One generator's pairs with sibling pairs merged one at a time, and
    whether a merge was blocked.

    A candidate (nu, mu), with nu nonempty, is cut from the last letters of
    a pair; its children are the terms of its expansion
    ``normalize(s_nu s_mu*, |mu| + 1)``.  When every child is a pair, the
    candidate merges, unless mu is already the mu-word of a pair: then the
    merge would repeat a mu-word, and it is blocked.  The candidates are
    tried in sorted order, or in the order ``rng`` shuffles them to, and
    the search restarts after every merge.  Merges of different candidates
    share no pair, so without a blocked merge the result does not depend on
    the order; with one, it may.
    """
    pairs = set(pairs)
    blocked = False
    while True:
        candidates = sorted({(nu[:-1], mu[:-1]) for nu, mu in pairs if len(nu) > 1 and mu})
        if rng is not None:
            rng.shuffle(candidates)
        taken = {mu for _, mu in pairs}
        for nu, mu in candidates:
            children = set(normalize(element(matrix, [(nu, mu, 1)]), len(mu) + 1).terms)
            if not children or not children <= pairs:
                continue
            if mu in taken:
                blocked = True
                continue
            pairs = pairs - children | {(nu, mu)}
            break
        else:
            return tuple(sorted(pairs)), blocked


# ---------------------------------------------------------------------------
# The Cuntz-Krieger relations through canonical clopen forms.
# ---------------------------------------------------------------------------


def _same_matrix(first, *rest):
    matrix = first.matrix
    if any(s.matrix != matrix for s in rest):
        raise MatrixMismatch("clopen sets over different matrices")
    return matrix


def is_partition(parts):
    """True when the ``ClopenSet`` parts are pairwise disjoint and cover the
    symbol space.

    Each part is an antichain, so the parts are disjoint exactly when no
    member of one is a prefix of, or equal to, a member of another.  In
    lexicographic order the word right after a member extends it whenever
    any later word does, so neighbours suffice.
    """
    if not parts:
        return False
    matrix = _same_matrix(*parts)
    words = sorted(w for p in parts for w in p.members)
    if any(w[: len(v)] == v for v, w in zip(words, words[1:])):
        return False
    return clopen_make(matrix, words).members == {EMPTY_WORD}


def ck_checks_canonical(endo):
    """The Cuntz-Krieger relations of a presentation, read on canonical
    clopen forms: the pairs' range cylinders partition the space, and for
    each i the maximal cylinders of t_i's sources are those of the union of
    the ranges of the t_j with A[i, j] = 1."""
    matrix = endo.matrix
    pairs = [pair for raw in endo.raw_images for pair in raw]
    if not is_partition(
        [ClopenSet(matrix, frozenset(_cylinders(matrix, [p]))) for p in pairs]
    ):
        return False
    ranges = [endo.range_set(j).members for j in matrix.alphabet]
    for i, raw in zip(matrix.alphabet, endo.raw_images):
        sources = clopen_make(matrix, _cylinders(matrix, [(mu, nu) for nu, mu in raw]))
        image = clopen_make(
            matrix, [w for j in matrix.alphabet if matrix.entry(i, j) for w in ranges[j - 1]]
        )
        if sources != image:
            return False
    return True


# ---------------------------------------------------------------------------
# Gauss-Jordan over Fraction: every entry normalised after every operation.
# ---------------------------------------------------------------------------


def inverse(a):
    """Gauss-Jordan inverse over Fraction; raises ValueError when singular."""
    n = len(a)
    aug = [
        [Fraction(v) for v in row] + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(a)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def solve(a, b):
    """One solution of a (possibly rectangular) system over Fraction, or None.

    Gaussian elimination to row echelon form; free variables are set to 0.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [list(map(Fraction, row)) + [Fraction(b[i])] for i, row in enumerate(a)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = Fraction(1) / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [v - factor * w for v, w in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for row, col in pivots:
        x[col] = aug[row][cols]
    return tuple(x)


# ---------------------------------------------------------------------------
# The Smith form by whole-row and whole-column operations.
# ---------------------------------------------------------------------------


def smith_normal_form_reference(m):
    """(U, V, D) with U m V = D, by the package's pivot rule on whole rows
    and columns: every step rescans the whole block for the least
    (|x|, i, j), every operation rewrites every entry of its row or column,
    and a divisibility search follows every pivot.  The reference for the
    package's elimination on the live block, which must give the same
    (U, V, D)."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d = [list(row) for row in m]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        d[dst] = [a + q * b for a, b in zip(d[dst], d[src])]
        u[dst] = [a + q * b for a, b in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    for t in range(min(rows, cols)):
        while True:
            # Deterministic pivot: smallest nonzero magnitude, ties by (row, col).
            candidates = [
                (abs(d[i][j]), i, j)
                for i in range(t, rows)
                for j in range(t, cols)
                if d[i][j] != 0
            ]
            if not candidates:
                break
            _, pi, pj = min(candidates)
            if pi != t:
                d[t], d[pi] = d[pi], d[t]
                u[t], u[pi] = u[pi], u[t]
            if pj != t:
                swap_cols(t, pj)
            pivot = d[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    q = d[i][t] // pivot
                    add_row(t, i, -q)
                    if d[i][t] != 0:
                        dirty = True
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    q = d[t][j] // pivot
                    add_col(t, j, -q)
                    if d[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # Enforce divisibility of the remaining block by the pivot.
            offender = next(
                (i for i in range(t + 1, rows) if any(x % pivot for x in d[i][t + 1:])), None
            )
            if offender is None:
                break
            add_row(offender, t, 1)
        if t < rows and d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]

    return tuple(map(tuple, u)), tuple(map(tuple, v)), tuple(map(tuple, d))


# ---------------------------------------------------------------------------
# Graded maps and pairings that only the tests build.
# ---------------------------------------------------------------------------


def zero_map(src: GradedSpace, dst: GradedSpace, degree: int = 0) -> GradedMap:
    return GradedMap(
        src,
        dst,
        degree % 2,
        (
            linalg.zeros(dst.dim(degree), src.d0),
            linalg.zeros(dst.dim(1 + degree), src.d1),
        ),
    )


def scale_map(t: GradedMap, c) -> GradedMap:
    c = Fraction(c)
    return GradedMap(
        t.src,
        t.dst,
        t.degree,
        tuple(tuple(tuple(c * v for v in row) for row in b) for b in t.blocks),
    )


def pairing_transpose(p: GradedPairing) -> GradedPairing:
    """The pairing with the roles of the two spaces flipped.

    Model-level shadow of the symmetry remark: (y | x)' = (-1)^{dx dy}(x | y).
    Nondegeneracy is preserved; with an even shift the two sides play
    symmetric roles.
    """
    blocks = []
    for beta in (0, 1):
        alpha = (p.n + beta) % 2
        src = p.blocks[alpha]
        rows = p.space_b.dim(beta)
        cols = p.space_a.dim(alpha)
        sign = -1 if (alpha * beta) % 2 else 1
        blocks.append(
            tuple(tuple(sign * src[i][j] for i in range(cols)) for j in range(rows))
        )
    return GradedPairing(p.space_b, p.space_a, p.n, (blocks[0], blocks[1]))
