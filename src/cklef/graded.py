"""Z/2-graded linear algebra over exact rationals with Koszul signs.

A finite-dimensional model of the graded tensor calculus underlying the
abstract Lefschetz identity: graded spaces, degree-homogeneous maps, the
signed tensor action (T1 (x) T2)(a (x) b) = (-1)^{dT1 db} T1 a (x) T2 b,
duality pairings supported on complementary parities, dual bases, the dual
fundamental tensor, and the index pairing computed by honest contraction.
Every identity is exact.  Integral blocks stay ``int`` (see :mod:`cklef.linalg`);
the contractions sum integer products over one common denominator and divide
once per result entry, and the public scalars -- graded traces, pairings and
the index pairing -- are :class:`fractions.Fraction`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Mapping, Sequence

from . import linalg
from .errors import DegeneratePairing, NotDegreeZero, ShapeMismatch, SingularMatrix

Matrix = linalg.Matrix


def _sign(e: int) -> int:
    return -1 if e % 2 else 1


@dataclass(frozen=True)
class GradedSpace:
    """A Z/2-graded vector space, recorded by its even/odd dimensions."""

    d0: int
    d1: int

    def __post_init__(self):
        if self.d0 < 0 or self.d1 < 0:
            raise ShapeMismatch("dimensions must be nonnegative")

    def dim(self, parity: int) -> int:
        return self.d0 if parity % 2 == 0 else self.d1


@dataclass(frozen=True)
class GradedVector:
    """A homogeneous element: a parity tag plus coordinates in that part."""

    space: GradedSpace
    parity: int
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != self.space.dim(self.parity):
            raise ShapeMismatch("coordinate length does not match the parity part")


def graded_vector(space: GradedSpace, parity: int, coords: Sequence) -> GradedVector:
    return GradedVector(space, parity % 2, tuple(Fraction(c) for c in coords))


def basis_vector(space: GradedSpace, parity: int, i: int) -> GradedVector:
    d = space.dim(parity)
    return GradedVector(
        space, parity % 2, tuple(Fraction(1 if j == i else 0) for j in range(d))
    )


def basis(space: GradedSpace, parity: int) -> list[GradedVector]:
    return [basis_vector(space, parity, i) for i in range(space.dim(parity))]


@dataclass(frozen=True)
class GradedMap:
    """A homogeneous map: V_e -> W_{e + degree} on each parity component.

    ``blocks[e]`` is the matrix of the restriction to the parity-``e`` part
    (rows indexed by the target part, columns by the source part).
    """

    src: GradedSpace
    dst: GradedSpace
    degree: int
    blocks: tuple[Matrix, Matrix]

    def __post_init__(self):
        for e in (0, 1):
            rows = self.dst.dim(e + self.degree)
            cols = self.src.dim(e)
            b = self.blocks[e]
            if len(b) != rows or any(len(r) != cols for r in b):
                raise ShapeMismatch(
                    f"parity-{e} block must be {rows}x{cols} for degree {self.degree}"
                )


def graded_map(
    src: GradedSpace, dst: GradedSpace, degree: int, blocks: Sequence[Sequence[Sequence]]
) -> GradedMap:
    return GradedMap(
        src, dst, degree % 2, (linalg.to_matrix(blocks[0]), linalg.to_matrix(blocks[1]))
    )


def identity_map(space: GradedSpace) -> GradedMap:
    return GradedMap(
        space, space, 0, (linalg.identity(space.d0), linalg.identity(space.d1))
    )


def apply_map(t: GradedMap, v: GradedVector) -> GradedVector:
    if v.space != t.src:
        raise ShapeMismatch("vector does not live in the map's source")
    out_parity = (v.parity + t.degree) % 2
    return GradedVector(t.dst, out_parity, linalg.mat_vec(t.blocks[v.parity], v.coords))


def compose_maps(t: GradedMap, s: GradedMap) -> GradedMap:
    """t after s."""
    if s.dst != t.src:
        raise ShapeMismatch("inner spaces differ")
    degree = (t.degree + s.degree) % 2
    blocks = []
    for e in (0, 1):
        rows = t.dst.dim((e + degree) % 2)
        cols = s.src.dim(e)
        if s.dst.dim((e + s.degree) % 2) == 0:
            # Empty inner dimension: the product is the zero block, whose
            # shape the generic multiply cannot infer from empty factors.
            blocks.append(linalg.zeros(rows, cols))
        else:
            blocks.append(linalg.mat_mul(t.blocks[(e + s.degree) % 2], s.blocks[e]))
    return GradedMap(s.src, t.dst, degree, tuple(blocks))


def graded_trace(t: GradedMap) -> Fraction:
    """tr_s = trace on the even part minus trace on the odd part."""
    if t.degree != 0 or t.src != t.dst:
        raise NotDegreeZero("graded trace needs a degree-0 endomorphism")
    return Fraction(linalg.trace(t.blocks[0]) - linalg.trace(t.blocks[1]))


# ---------------------------------------------------------------------------
# Tensor products.  The parity-p part of V (x) W concatenates the blocks
# V_0 (x) W_p then V_1 (x) W_{1+p}; within a block the index is row-major.
# ---------------------------------------------------------------------------


def tensor_space(v: GradedSpace, w: GradedSpace) -> GradedSpace:
    return GradedSpace(
        d0=v.d0 * w.d0 + v.d1 * w.d1,
        d1=v.d0 * w.d1 + v.d1 * w.d0,
    )


def tensor_position(
    v: GradedSpace, w: GradedSpace, alpha: int, beta: int, i: int, j: int
) -> tuple[int, int]:
    """(parity, flat index) of e_i^{alpha} (x) e_j^{beta} in the tensor space."""
    alpha %= 2
    beta %= 2
    parity = (alpha + beta) % 2
    offset = 0 if alpha == 0 else v.d0 * w.dim(parity)
    return parity, offset + i * w.dim(beta) + j


def tensor_basis_labels(
    v: GradedSpace, w: GradedSpace, parity: int
) -> list[tuple[int, int, int, int]]:
    """Flat-order labels (alpha, i, beta, j) of the parity part of V (x) W."""
    labels = []
    for alpha in (0, 1):
        beta = (parity + alpha) % 2
        for i in range(v.dim(alpha)):
            for j in range(w.dim(beta)):
                labels.append((alpha, i, beta, j))
    return labels


def tensor_vector(a: GradedVector, b: GradedVector) -> GradedVector:
    space = tensor_space(a.space, b.space)
    parity = (a.parity + b.parity) % 2
    coords = [Fraction(0)] * space.dim(parity)
    bs = [(j, y) for j, y in enumerate(b.coords) if y]
    for i, x in enumerate(a.coords):
        if not x:
            continue
        for j, y in bs:
            _, pos = tensor_position(a.space, b.space, a.parity, b.parity, i, j)
            coords[pos] = x * y
    return GradedVector(space, parity, tuple(coords))


def graded_tensor_map(t1: GradedMap, t2: GradedMap) -> GradedMap:
    """The signed tensor action (t1 (x) t2)(a (x) b) = (-1)^{dt1 db} t1 a (x) t2 b."""
    src = tensor_space(t1.src, t2.src)
    dst = tensor_space(t1.dst, t2.dst)
    degree = (t1.degree + t2.degree) % 2
    cols: dict[int, list[list[Fraction]]] = {
        e: [[Fraction(0)] * src.dim(e) for _ in range(dst.dim((e + degree) % 2))]
        for e in (0, 1)
    }
    for e in (0, 1):
        for col, (alpha, i, beta, j) in enumerate(tensor_basis_labels(t1.src, t2.src, e)):
            sign = _sign(t1.degree * beta)
            ta = apply_map(t1, basis_vector(t1.src, alpha, i))
            tb = apply_map(t2, basis_vector(t2.src, beta, j))
            image = tensor_vector(ta, tb)
            for row, c in enumerate(image.coords):
                if c:
                    cols[e][row][col] += sign * c
    return GradedMap(
        src,
        dst,
        degree,
        (
            tuple(tuple(r) for r in cols[0]),
            tuple(tuple(r) for r in cols[1]),
        ),
    )


# ---------------------------------------------------------------------------
# Duality pairings.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradedPairing:
    """A bilinear pairing A x B -> Q supported on parities summing to n.

    ``blocks[e]`` is the form A_e x B_{n+e}; entry (i, j) is the pairing of
    the i-th basis vector of A_e with the j-th basis vector of B_{n+e}.

    The pairing owns the inverses of its two blocks, left out of equality
    and hashing and computed on first use, so each block is inverted at most
    once.  A degenerate pairing is a legal object; asking for an inverse it
    lacks raises DegeneratePairing.
    """

    space_a: GradedSpace
    space_b: GradedSpace
    n: int
    blocks: tuple[Matrix, Matrix]
    # _inverses[e] is the inverse of blocks[e] once computed: at most two entries.
    _inverses: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for e in (0, 1):
            rows = self.space_a.dim(e)
            cols = self.space_b.dim(self.n + e)
            b = self.blocks[e]
            if len(b) != rows or any(len(r) != cols for r in b):
                raise ShapeMismatch(
                    f"parity-{e} pairing block must be {rows}x{cols}"
                )
        object.__setattr__(self, "_inverses", {})

    def _inverse_block(self, e: int) -> Matrix:
        """The inverse of the parity-``e`` block; DegeneratePairing when the
        block is not square or not invertible."""
        inverses = self._inverses
        if e not in inverses and self.space_a.dim(e) == self.space_b.dim(self.n + e):
            try:
                inverses[e] = linalg.inverse(self.blocks[e])
            except SingularMatrix:
                pass
        if e not in inverses:
            raise DegeneratePairing("pairing blocks must be square and invertible")
        return inverses[e]

    def is_nondegenerate(self) -> bool:
        try:
            self.require_nondegenerate()
        except DegeneratePairing:
            return False
        return True

    def require_nondegenerate(self):
        for e in (0, 1):
            self._inverse_block(e)


def graded_pairing(
    space_a: GradedSpace, space_b: GradedSpace, n: int, blocks: Sequence[Sequence[Sequence]]
) -> GradedPairing:
    return GradedPairing(
        space_a, space_b, n % 2, (linalg.to_matrix(blocks[0]), linalg.to_matrix(blocks[1]))
    )


def dual_basis(p: GradedPairing) -> tuple[list[list[GradedVector]], list[list[GradedVector]]]:
    """Standard bases x_{e,i} of A and the biorthogonal duals x*_{n-e,i} in B.

    Returns (xs, duals) with xs[e][i] the i-th standard basis vector of A_e
    and duals[e][i] in B_{n+e} satisfying (x_{e,i} | x*_{n+e,j}) = delta_{ij};
    the duals are the columns of the inverse pairing block, which is formed
    once per block.
    """
    xs = [basis(p.space_a, 0), basis(p.space_a, 1)]
    duals: list[list[GradedVector]] = []
    for e in (0, 1):
        inv = p._inverse_block(e)
        eta = (p.n + e) % 2
        cols = [
            GradedVector(p.space_b, eta, tuple(inv[r][c] for r in range(len(inv))))
            for c in range(len(inv))
        ]
        duals.append(cols)
    return xs, duals


@dataclass(frozen=True)
class FundamentalTensor:
    """The dual fundamental tensor in B (x) A of total parity n.

    ``terms`` maps basis-pair labels ((beta, j), (alpha, i)) to coefficients;
    the tensor is sum of c * e_j^{beta}(B) (x) e_i^{alpha}(A).  Every label
    must name basis vectors of B and A whose parities sum to ``parity``.
    """

    space_b: GradedSpace
    space_a: GradedSpace
    parity: int
    terms: Mapping[tuple[tuple[int, int], tuple[int, int]], Fraction]

    def __post_init__(self):
        object.__setattr__(self, "terms", dict(self.terms))
        for (beta, j), (alpha, i) in self.terms:
            if (beta + alpha) % 2 != self.parity % 2:
                raise ShapeMismatch("tensor term of the wrong total parity")
            if not (0 <= j < self.space_b.dim(beta) and 0 <= i < self.space_a.dim(alpha)):
                raise ShapeMismatch("tensor term outside the spaces' bases")


def dual_fundamental_class(p: GradedPairing) -> FundamentalTensor:
    """Delta-hat' = sum over (e, i) of (-1)^{n-e} x*_{n-e,i} (x) x_{e,i}."""
    _, duals = dual_basis(p)
    terms: dict[tuple[tuple[int, int], tuple[int, int]], Fraction] = {}
    for e in (0, 1):
        eta = (p.n + e) % 2
        for i, star in enumerate(duals[e]):
            sign = _sign(p.n - e)
            for j, c in enumerate(star.coords):
                if c:
                    key = ((eta, j), (e, i))
                    terms[key] = terms.get(key, Fraction(0)) + sign * c
    return FundamentalTensor(
        space_b=p.space_b, space_a=p.space_a, parity=p.n % 2, terms=terms
    )


def _over_common_denominator(terms: Mapping) -> tuple[dict, int]:
    """The coefficients as numerators over their least common denominator."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {key: c.numerator * (den // c.denominator) for key, c in terms.items()}, den


def fundamental_contraction(p: GradedPairing, ft: FundamentalTensor) -> GradedMap:
    """The endomorphism of B obtained by contracting the tensor against the pairing.

    An element x of B_gamma is sent to
        (-1)^{n dx} * sum_t c_t * Delta(a_t (x) x) * b_t
    with Delta(a (x) x) = (-1)^{da dx} (a | x); the composite sign is
    recomputed from the parities rather than asserted.  For the dual
    fundamental tensor this map is the identity on B.

    The contraction runs term by term: a term c e_j^beta (x) e_i^alpha meets
    only the basis vectors x of B_gamma, gamma = n + alpha, and adds
    sign * c * (e_i | x) to row j of the gamma block, read straight off row i
    of the pairing block.  That is O(d) per term, O(d^3) for the dual
    fundamental tensor of a pairing of dimension d.  The coefficients are
    taken over one common denominator, so the sums run over the numerators
    (integers, for an integral pairing) and each entry is divided once.
    """
    if ft.space_a != p.space_a or ft.space_b != p.space_b:
        raise ShapeMismatch("tensor and pairing live over different spaces")
    p.require_nondegenerate()
    b = p.space_b
    blocks = {e: [[0] * b.dim(e) for _ in range(b.dim(e))] for e in (0, 1)}
    numerators, den = _over_common_denominator(ft.terms)
    for ((beta, j), (alpha, i)), c in numerators.items():
        gamma = (p.n + alpha) % 2
        pairs = p.blocks[alpha][i]  # (e_i^alpha | e_col^gamma) over col
        if beta != gamma:
            if any(pairs):
                raise ShapeMismatch("contraction left the parity component")
            continue
        scale = _sign(p.n * gamma + alpha * gamma) * c
        out = blocks[gamma][j]
        for col, value in enumerate(pairs):
            if value:
                out[col] += scale * value
    return GradedMap(
        b,
        b,
        0,
        tuple(
            linalg.to_matrix([[Fraction(x, den) for x in row] for row in blocks[e]])
            for e in (0, 1)
        ),
    )


def index_pairing(p: GradedPairing, f: GradedMap) -> Fraction:
    """Ind(Delta, f): contract Delta-hat' through f (x) 1_A against the flipped pairing.

    The computation is the honest contraction, not the graded-trace
    shortcut, carried out term by term: each term c e_j^beta (x) e_i^alpha of
    the tensor goes through the signed tensor action of (f, identity) to
    (-1)^{df da} c sum_k f_kj e_k^beta (x) e_i^alpha, and each component
    e_k (x) e_i is paired as (e_i | e_k).  That is O(d) per term, O(d^3) in
    all, and the tensor-space matrix of f (x) 1_A is never built.  The
    tensor's coefficients are taken over one common denominator, so the sum
    runs over their numerators and is divided once at the end.
    """
    if f.src != p.space_b or f.dst != p.space_b:
        raise ShapeMismatch("the endomorphism must act on the second space")
    if f.degree != 0:
        raise NotDegreeZero("the index pairing takes a degree-0 endomorphism")
    numerators, den = _over_common_denominator(dual_fundamental_class(p).terms)
    f_cols = [list(zip(*block)) for block in f.blocks]
    total = 0
    # Every term has total parity n, so e_k^beta (x) e_i^alpha pairs through
    # the alpha block: (b (x) a) contracted with the flipped pairing is (a | b).
    for ((beta, j), (alpha, i)), c in numerators.items():
        value = sum(map(mul, f_cols[beta][j], p.blocks[alpha][i]))
        total += _sign(f.degree * alpha) * c * value
    return Fraction(total, den)


def koszul_flip_check(
    x: GradedVector, y: GradedVector, f: GradedMap, g: GradedMap
) -> bool:
    """Check (f (x) g)(x (x) y) = (-1)^{dy df} f(x) (x) g(y), exactly."""
    lhs = apply_map(graded_tensor_map(f, g), tensor_vector(x, y))
    sign = _sign(y.parity * f.degree)
    rhs = tensor_vector(apply_map(f, x), apply_map(g, y))
    rhs = GradedVector(rhs.space, rhs.parity, tuple(sign * c for c in rhs.coords))
    return lhs == rhs


# ---------------------------------------------------------------------------
# Zeta rationality at the model level.
# ---------------------------------------------------------------------------


def supertrace_series(f: GradedMap, order: int) -> tuple[Fraction, ...]:
    """(tr_s(f^m))_{m=0..order} by direct powers."""
    if f.degree != 0 or f.src != f.dst:
        raise NotDegreeZero("zeta needs a degree-0 endomorphism")
    out = []
    current = identity_map(f.src)
    for _ in range(order + 1):
        out.append(graded_trace(current))
        current = compose_maps(f, current)
    return tuple(out)


def rational_supertrace_series(f: GradedMap, order: int) -> tuple[Fraction, ...]:
    """The same series from the rational function d - t q'/q per parity.

    With q_e(t) = det(I - t F_e), the resolvent trace expands as
    tr((I - t F_e)^{-1}) = d_e - t q_e'(t)/q_e(t); the graded series is the
    even expansion minus the odd one.
    """
    if f.degree != 0 or f.src != f.dst:
        raise NotDegreeZero("zeta needs a degree-0 endomorphism")
    total = [Fraction(0)] * (order + 1)
    for e, sig in ((0, 1), (1, -1)):
        d = f.src.dim(e)
        q = linalg.reciprocal_charpoly(f.blocks[e])
        qp = linalg.poly_deriv(q)
        ratio = linalg.series_div(qp, q, order)
        # d - t * (q'/q)
        total[0] += sig * Fraction(d)
        for m in range(1, order + 1):
            total[m] -= sig * ratio[m - 1]
    return tuple(total)


def zeta_model_check(f: GradedMap, order: int = 8) -> bool:
    """Sum tr_s(f^m) t^m equals the rational-function expansion through t^order."""
    return supertrace_series(f, order) == rational_supertrace_series(f, order)
