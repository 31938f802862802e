"""Exact symbolic calculus on monomials ``s_nu s_mu*`` in O_A.

Elements are finite integer combinations of monomials; products, adjoints,
and normal forms follow from the Cuntz-Krieger relations

    s_i* s_i = sum_j A[i,j] s_j s_j*,        sum_i s_i s_i* = 1.

Every computation stays in the integral span, so equality is decidable by
expanding both sides to a common mu-length and comparing term by term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import DepthTooSmall, MatrixMismatch
from .sft_core import TransitionMatrix, Word, common_followers, require_allowable, terminus

Pair = tuple[Word, Word]


def monomial_is_zero(matrix: TransitionMatrix, nu: Word, mu: Word) -> bool:
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

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.matrix == other.matrix and self.terms == other.terms

    def __hash__(self):
        return hash((self.matrix, frozenset(self.terms.items())))

    def max_mu_length(self) -> int:
        return max((len(mu) for _, mu in self.terms), default=0)


def element(matrix: TransitionMatrix, terms: Iterable[tuple[Word, Word, int]]) -> Element:
    """Build an element from (nu, mu, coefficient) triples, dropping zeros."""
    acc: dict[Pair, int] = {}
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


def monomial(matrix: TransitionMatrix, nu: Word, mu: Word, coeff: int = 1) -> Element:
    return element(matrix, [(tuple(nu), tuple(mu), coeff)])


def unit(matrix: TransitionMatrix) -> Element:
    return monomial(matrix, (), ())


def adjoint(x: Element) -> Element:
    """Swap nu and mu in every term (coefficients are integers, so no conjugation)."""
    return Element(matrix=x.matrix, terms={(mu, nu): c for (nu, mu), c in x.terms.items()})


def _check(x: Element, y: Element):
    if x.matrix != y.matrix:
        raise MatrixMismatch("elements over different matrices")


def _multiply_monomials(matrix: TransitionMatrix, a: Pair, b: Pair) -> list[tuple[Pair, int]]:
    """Product (s_nu s_mu*)(s_rho s_sigma*) as a list of (pair, coeff).

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
            if monomial_is_zero(matrix, *new):
                return []
            return [(new, 1)]
        # rho == mu: middle factor is the range projection Q_{t(mu)}.
        fol_nu = matrix.followers(terminus(nu))
        fol_mu = matrix.followers(terminus(mu))
        fol_sigma = matrix.followers(terminus(sigma))
        if (fol_nu & fol_sigma) <= fol_mu:
            new = (nu, sigma)
            if monomial_is_zero(matrix, *new):
                return []
            return [(new, 1)]
        out = []
        for j in sorted(fol_nu & fol_mu & fol_sigma):
            out.append(((nu + (j,), sigma + (j,)), 1))
        return out
    if mu[: len(rho)] != rho:
        return []
    tail = mu[len(rho):]
    # s_mu* s_rho = s_tail*, valid when tail may follow sigma.
    if sigma and matrix.entry(terminus(sigma), tail[0]) == 0:
        return []
    new = (nu, sigma + tail)
    if monomial_is_zero(matrix, *new):
        return []
    return [(new, 1)]


def multiply(x: Element, y: Element) -> Element:
    _check(x, y)
    acc: dict[Pair, int] = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            for pair, c in _multiply_monomials(x.matrix, a, b):
                acc[pair] = acc.get(pair, 0) + ca * cb * c
                if acc[pair] == 0:
                    del acc[pair]
    return Element(matrix=x.matrix, terms=acc)


def _expand_once(matrix: TransitionMatrix, nu: Word, mu: Word) -> list[Pair]:
    """s_nu s_mu* = sum_j s_{nu j} s_{mu j}* over shared followers."""
    return [(nu + (j,), mu + (j,)) for j in sorted(common_followers(matrix, nu, mu))]


def normalize(x: Element, depth: int) -> Element:
    """Expand all terms until every mu-word has length ``depth``, which must
    be at least the current maximum mu-length.  nu-lengths float.
    """
    d = x.max_mu_length()
    if depth < d:
        raise DepthTooSmall(f"depth {depth} below maximal mu-length {d}")
    acc: dict[Pair, int] = {}
    for (nu, mu), c in x.terms.items():
        frontier = [(nu, mu)]
        while frontier and len(frontier[0][1]) < depth:
            frontier = [
                ext for pair in frontier for ext in _expand_once(x.matrix, *pair)
            ]
        for pair in frontier:
            acc[pair] = acc.get(pair, 0) + c
            if acc[pair] == 0:
                del acc[pair]
    return Element(matrix=x.matrix, terms=acc)


def equals(x: Element, y: Element) -> bool:
    _check(x, y)
    d = max(x.max_mu_length(), y.max_mu_length())
    return normalize(x, d).terms == normalize(y, d).terms
