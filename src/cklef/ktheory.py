"""K-theory of O_A by Smith normal form, induced maps, Lefschetz numbers, zeta.

K_0 is the cokernel of I - A^T acting on Z^n (generated by the classes of
the range projections e_i = [s_i s_i*]); K_1 is its kernel, free of the same
rank as the free part of K_0.  Traces are taken on the rationalized free
part; torsion is still tracked so that well-definedness of induced maps can
be verified on the full group.

The Smith form U (I - A^T) V = D is computed once per matrix: the matrix
owns its K-groups, so ``induced_k0``, ``lefschetz_number`` and
``zeta_coefficients`` read the same decomposition.  Likewise the
endomorphism owns its induced K_0, checked and descended once, which
``lefschetz_number`` reads.  K_0 reads only the r
rows of U at invariant factors other than 1: a torsion row i modulo d_i,
and a free row exactly.  A class is those r coordinates of U v, and an
induced map T is checked well defined on the r rows of U T alone.

An induced map descends to the free part through the free rows U_F of U
alone: once T keeps im(I - A^T), U_F T = M_0 U_F, and each row of M_0 is
one exact solve on U_F's transpose.  So K_0 reads U's torsion and free
rows, D and I - A^T, and no inverse of U; a torsion K_0 solves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import linalg
from .endo import GeometricEndomorphism, powers
from .errors import (
    DimensionMismatch,
    InvalidParameter,
    ReconstructionInconsistent,
    WellDefinednessFailure,
    require_int,
)
from .index import index_series_counted, stabilized_index
from .sft_core import TransitionMatrix, common_followers

IntMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SmithDecomposition:
    """U · M · V = D with unimodular U, V and a nonnegative divisibility chain.

    The repr shows D alone: an entry of U or V can have more digits than
    Python will print.
    """

    u: IntMatrix = field(repr=False)
    v: IntMatrix = field(repr=False)
    d: IntMatrix


def smith_normal_form(m: Sequence[Sequence[int]]) -> SmithDecomposition:
    """The Smith form of ``m``, whose rows must be equally long and whose
    entries must be ``int``.

    Step t eliminates on the block of rows and columns t onward.  Its pivot
    is the least (|x|, i, j) over the block's nonzero entries x = D[i][j];
    it is swapped to (t, t), its multiples are taken off the rest of column t
    and then of row t by floor division, and the step repeats until both
    are clear.  Then the pivot must divide the rest of the block: the first
    row below t holding an entry it does not divide is added to row t, and
    the step repeats.  U records the row operations and V the column ones.

    The elimination touches only entries an operation can change, which
    gives the same U, V and D as operating on whole rows and columns:

    * D is diagonal outside the block, so rows t onward are zero left of
      column t, and a row operation on D starts at column t;
    * a column operation adds a multiple of column t, which no column pass
      changes, so it updates only the rows nonzero in column t, fixed for
      the pass; after a row pass with no remainder that is row t alone;
    * the block's first +-1 in row-major order is the least (|x|, i, j), so
      the full scan runs only when the block holds no unit, and a unit
      pivot divides everything, so no divisibility search follows it;
    * once the block is zero, every later block is zero too.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if any(len(row) != cols for row in m):
        raise DimensionMismatch(f"every row of the matrix must have {cols} entries")
    for row in m:
        for x in row:
            require_int(x, "a matrix entry")
    d = [list(row) for row in m]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def add_row(src, dst, q, t):
        # row dst += q * row src; both are zero left of column t in D
        d[dst][t:] = [a + q * b for a, b in zip(d[dst][t:], d[src][t:])]
        u[dst] = [a + q * b for a, b in zip(u[dst], u[src])]

    for t in range(min(rows, cols)):
        while True:
            found = _pivot(d, t)
            if found is None:
                return _decomposition(u, v, d)
            pi, pj = found
            if pi != t:
                d[t], d[pi] = d[pi], d[t]
                u[t], u[pi] = u[pi], u[t]
            if pj != t:
                for row in d[t:]:
                    row[t], row[pj] = row[pj], row[t]
                for row in v:
                    row[t], row[pj] = row[pj], row[t]
            pivot = d[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    add_row(t, i, -(d[i][t] // pivot), t)
                    if d[i][t] != 0:
                        dirty = True
            live = [d[i] for i in range(t, rows) if d[i][t] != 0]
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    q = -(d[t][j] // pivot)
                    for row in live:
                        row[j] += q * row[t]
                    for row in v:
                        row[j] += q * row[t]
                    if d[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            if pivot in (1, -1):
                break
            # Enforce divisibility of the remaining block by the pivot.
            offender = next(
                (i for i in range(t + 1, rows) if any(x % pivot for x in d[i][t + 1:])), None
            )
            if offender is None:
                break
            add_row(offender, t, 1, t)
        if d[t][t] < 0:
            d[t][t] = -d[t][t]
            u[t] = [-x for x in u[t]]

    return _decomposition(u, v, d)


def _pivot(d: list[list[int]], t: int) -> tuple[int, int] | None:
    """The position (i, j) of the least (|x|, i, j) over the nonzero entries
    x = d[i][j] with i, j >= t, or None when there are none."""
    for i in range(t, len(d)):
        row = d[i]
        units = [j for j in (_find(row, 1, t), _find(row, -1, t)) if j is not None]
        if units:
            return i, min(units)
    best = min(
        ((abs(x), i, j) for i in range(t, len(d)) for j, x in enumerate(d[i][t:], t) if x),
        default=None,
    )
    return None if best is None else best[1:]


def _find(row: list[int], x: int, start: int) -> int | None:
    try:
        return row.index(x, start)
    except ValueError:
        return None


def _decomposition(u, v, d) -> SmithDecomposition:
    return SmithDecomposition(
        u=tuple(map(tuple, u)), v=tuple(map(tuple, v)), d=tuple(map(tuple, d))
    )


@dataclass(frozen=True)
class KTheoryData:
    matrix: TransitionMatrix
    presentation: IntMatrix  # I - A^T
    snf: SmithDecomposition
    invariant_factors: tuple[int, ...]
    torsion: tuple[int, ...]
    rank_k0_free: int
    rank_k1: int
    free_indices: tuple[int, ...]
    torsion_indices: tuple[int, ...]


@dataclass(frozen=True)
class KZeroClass:
    """A K_0 class: its Z^n vector and canonical quotient coordinates."""

    vector: tuple[int, ...]
    torsion: tuple[int, ...]
    free: tuple[int, ...]

    def same_class(self, other: "KZeroClass") -> bool:
        return self.torsion == other.torsion and self.free == other.free

    def negate(self, kt: "KTheoryData") -> "KZeroClass":
        return k0_reduce(kt, tuple(-x for x in self.vector))


def k_groups(matrix: TransitionMatrix) -> KTheoryData:
    """The K-groups of O_A, computed on the first call and held by ``matrix``."""
    held = matrix._k_groups
    if not held:
        held.append(_k_groups(matrix))
    return held[0]


def _k_groups(matrix: TransitionMatrix) -> KTheoryData:
    n = matrix.n
    pres = tuple(
        tuple((1 if i == j else 0) - matrix.rows[j][i] for j in range(n))
        for i in range(n)
    )
    snf = smith_normal_form(pres)
    diag = tuple(snf.d[i][i] for i in range(n))
    free_idx = tuple(i for i, x in enumerate(diag) if x == 0)
    torsion_idx = tuple(i for i, x in enumerate(diag) if x > 1)
    return KTheoryData(
        matrix=matrix,
        presentation=pres,
        snf=snf,
        invariant_factors=diag,
        torsion=tuple(diag[i] for i in torsion_idx),
        rank_k0_free=len(free_idx),
        rank_k1=n - sum(1 for x in diag if x != 0),
        free_indices=free_idx,
        torsion_indices=torsion_idx,
    )


def k0_reduce(kt: KTheoryData, v: Sequence[int]) -> KZeroClass:
    """Canonical coordinates of a Z^n vector in K_0 = coker(I - A^T).

    In the SNF basis the quotient splits into Z/d_i summands and free Z
    summands; coordinates at invariant factor 1 vanish, so only the torsion
    and free rows of U v are formed.  The entries must be ``int``.
    """
    if len(v) != kt.matrix.n:
        raise DimensionMismatch(f"expected a vector of length {kt.matrix.n}")
    for x in v:
        require_int(x, "a vector entry")
    u = kt.snf.u
    return KZeroClass(
        vector=tuple(v),
        torsion=tuple(
            sum(a * b for a, b in zip(u[i], v)) % kt.invariant_factors[i]
            for i in kt.torsion_indices
        ),
        free=tuple(sum(a * b for a, b in zip(u[i], v)) for i in kt.free_indices),
    )


def generator_class(kt: KTheoryData, i: int) -> KZeroClass:
    """The class e_i = [s_i s_i*] (1-based, i in 1..n); ``i`` must be an ``int``."""
    require_int(i, "generator index")
    if not 1 <= i <= kt.matrix.n:
        raise InvalidParameter(f"generator index must be in 1..{kt.matrix.n}, got {i}")
    v = [0] * kt.matrix.n
    v[i - 1] = 1
    return k0_reduce(kt, v)


@dataclass(frozen=True)
class InducedK0:
    """The induced K_0 data of an endomorphism."""

    on_generators: IntMatrix  # columns are alpha_*(e_i) in Z^n
    free_part: IntMatrix  # matrix of the descended map on the free part
    ktheory: KTheoryData


def induced_k0(e: GeometricEndomorphism) -> InducedK0:
    """alpha_* on K_0 from the pair termini, checked well-defined on the
    quotient; computed on the first call and held by ``e``."""
    held = e._induced_k0
    if not held:
        held.append(_induced_k0(e))
    return held[0]


def _induced_k0(e: GeometricEndomorphism) -> InducedK0:
    """Column i of T is the class of t_i t_i* = sum s_nu (s_mu* s_mu) s_nu*.

    s_mu* s_mu projects onto the cylinders starting with a follower of
    mu's terminus; compressing by s_nu keeps the followers allowed after
    nu's terminus too, and each surviving cylinder projection
    s_{nu j} s_{nu j}* has class e_j.  So a pair adds 1 at each letter of
    ``common_followers(nu, mu)``; an empty word has every letter as a
    follower.
    """
    e.require_valid()
    matrix = e.matrix
    kt = k_groups(matrix)
    n = matrix.n
    columns = []
    for pairs in e.raw_images:
        acc = [0] * n
        for nu, mu in pairs:
            for j in common_followers(matrix, nu, mu):
                acc[j - 1] += 1
        columns.append(acc)
    t_rows = tuple(zip(*columns))
    _require_well_defined(kt, t_rows)
    free = _descend_free(kt, t_rows)
    return InducedK0(on_generators=t_rows, free_part=free, ktheory=kt)


def _require_well_defined(kt: KTheoryData, t_rows: IntMatrix) -> None:
    """Raise unless T maps relations into relations.

    T is well defined on K_0 when T * (each column of I - A^T) lies in
    im(I - A^T), that is, has class zero.  A class reads only the torsion and
    free rows of U, so R = (those r rows of U) * T is formed once, at r n^2
    cost, and each relation column is tested as R * column, mod d_i (a free
    row, d_i = 0, must vanish exactly).
    """
    u, factors = kt.snf.u, kt.invariant_factors
    columns = tuple(zip(*t_rows))
    r_rows = [
        ([sum(a * b for a, b in zip(u[i], col)) for col in columns], factors[i])
        for i in kt.torsion_indices + kt.free_indices
    ]
    for col, rel in enumerate(zip(*kt.presentation)):
        for row, d in r_rows:
            x = sum(a * b for a, b in zip(row, rel))
            if x % d if d else x:
                raise WellDefinednessFailure(
                    f"induced map sends relation column {col + 1} outside the relation lattice"
                )


def _descend_free(kt: KTheoryData, t_rows: IntMatrix) -> IntMatrix:
    """Matrix M_0 of the descended map on the free part, in the SNF basis.

    A class's free coordinates are the free rows U_F of U times its vector,
    so M_0 is the r x r matrix with U_F T = M_0 U_F.  Two facts let M_0 be
    read off U_F alone:

    * Once T passes :func:`_require_well_defined`, the free rows of
      U T U^{-1} vanish off the free columns.  Then T (I - A^T) =
      (I - A^T) X for an integer X, and U (I - A^T) = D V^{-1} is zero on
      the free rows, so U_F T (I - A^T) = 0.  With C the free rows of
      U T U^{-1}, U_F T = C U, so C D V^{-1} = 0, C D = 0, and column k of
      C vanishes wherever d_k != 0: M_0 is C on the free columns.
    * U_F's rows span the rational left kernel of I - A^T as a saturated
      lattice.  They lie in it, as above; they are independent, being rows
      of the invertible U; and there are n - rank(I - A^T) of them.  An
      integer y in their rational span is w U with w = y U^{-1} integral
      and zero off the free rows, so y is an integer combination of them.

    So for each free row i, U_i T has one coordinate vector x over U_F, and
    x is integral: M_0's row for i solves U_F^T x = U_i T, by
    :func:`~cklef.linalg.solve`, which checks x on all n equations.  A T
    that leaves a row without a solution, or without an integral one, is
    refused.
    """
    u = kt.snf.u
    basis = tuple(zip(*(u[i] for i in kt.free_indices)))  # U_F^T, n x r
    columns = tuple(zip(*t_rows))
    free = []
    for i in kt.free_indices:
        x = linalg.solve(basis, [sum(a * b for a, b in zip(u[i], col)) for col in columns])
        if x is None or any(c.denominator != 1 for c in x):
            raise WellDefinednessFailure(
                f"free row {i + 1} of U T is no integer combination of U's free rows"
            )
        free.append(tuple(map(int, x)))
    return tuple(free)


@dataclass(frozen=True)
class LefschetzResult:
    value: Fraction
    mode: str  # "supplied" | "derived"
    trace_k0: Fraction
    trace_k1: Fraction
    index: int | None = None


def lefschetz_number(
    e: GeometricEndomorphism, k1_action: Sequence[Sequence] | None = None
) -> LefschetzResult:
    """tr(M_0) - tr(M_1) on rationalized K-theory, with M_0 the induced K_0
    that ``e`` holds.

    With ``k1_action`` supplied, a square matrix of ``int`` entries of the
    rank of K_1, this is an independent quantity to compare against the
    index.  Without it the K_1 trace is *derived* from the index via the
    Lefschetz identity and explicitly flagged as such (the paper gives no
    general algorithm for the K_1 action).
    """
    ind = induced_k0(e)
    kt = ind.ktheory
    tr0 = Fraction(sum(ind.free_part[i][i] for i in range(len(ind.free_part))))
    if k1_action is not None:
        if len(k1_action) != kt.rank_k1 or any(len(r) != kt.rank_k1 for r in k1_action):
            raise DimensionMismatch(
                f"K_1 action must be {kt.rank_k1}x{kt.rank_k1}"
            )
        for row in k1_action:
            for x in row:
                require_int(x, "a K_1 action entry")
        tr1 = Fraction(linalg.trace(k1_action))
        return LefschetzResult(
            value=tr0 - tr1, mode="supplied", trace_k0=tr0, trace_k1=tr1
        )
    idx = index_series_counted(e).stabilized_value
    return LefschetzResult(
        value=Fraction(idx),
        mode="derived",
        trace_k0=tr0,
        trace_k1=tr0 - idx,
        index=idx,
    )


def zeta_coefficients(e: GeometricEndomorphism, n_max: int) -> list[int]:
    """Lefschetz indices of the powers of ``e``; coefficient 0 is the Euler term.

    The powers ``e^1 .. e^n_max`` come from one ladder
    (:func:`~cklef.endo.powers`), each composed once from its balanced
    halves, ``compose(e^ceil(k/2), e^floor(k/2))``.  Each power's index is
    read as the ladder yields it, and a power above ceil(n_max / 2) is let
    go once read.  ``n_max`` must be an ``int`` >= 0.
    """
    require_int(n_max, "n_max")
    if n_max < 0:
        raise InvalidParameter(f"n_max must be >= 0, got {n_max}")
    e.require_valid()
    ladder = powers(e, n_max)
    kt = k_groups(e.matrix)
    # map drops each power once its index is read, so the ladder can let it go
    return [kt.rank_k0_free - kt.rank_k1, *map(stabilized_index, ladder)]


@dataclass(frozen=True)
class RationalFunction:
    """p(t) / q(t) with exact coefficients, normalized so q(0) = 1."""

    numerator: tuple[Fraction, ...]
    denominator: tuple[Fraction, ...]

    def expand(self, order: int) -> tuple[Fraction, ...]:
        return linalg.series_div(self.numerator, self.denominator, order)


def zeta_reconstruct(
    coeffs: Sequence[int], deg_num: int, deg_den: int
) -> RationalFunction:
    """Fit p/q with deg p <= deg_num, deg q <= deg_den to the series exactly.

    Uses the first deg_num + deg_den + 1 coefficients to solve the linear
    system and requires at least 2 held-out coefficients, all of which must
    be reproduced by the fitted function.  A degree that is not an ``int``
    >= 0 raises :class:`InvalidParameter`.
    """
    for degree, what in ((deg_num, "deg_num"), (deg_den, "deg_den")):
        require_int(degree, what)
        if degree < 0:
            raise InvalidParameter(f"{what} must be >= 0")
    needed = deg_num + deg_den + 1
    if len(coeffs) < needed + 2:
        raise ReconstructionInconsistent(
            f"need at least {needed + 2} coefficients, got {len(coeffs)}"
        )
    # Unknowns: p_0..p_deg_num, q_1..q_deg_den with q_0 = 1.
    # Equation at t^r: sum_s q_s c_{r-s} = p_r (p_r = 0 beyond deg_num).
    unknowns = deg_num + 1 + deg_den
    rows = []
    rhs = []
    for r in range(needed):
        row = [Fraction(0)] * unknowns
        if r <= deg_num:
            row[r] = Fraction(-1)
        for s in range(1, deg_den + 1):
            if 0 <= r - s < len(coeffs):
                row[deg_num + s] = Fraction(coeffs[r - s])
        rows.append(tuple(row))
        rhs.append(-Fraction(coeffs[r]))
    solution = linalg.solve(tuple(rows), rhs)
    if solution is None:
        raise ReconstructionInconsistent("no rational function matches the series")
    p = linalg.poly_trim(tuple(solution[: deg_num + 1]))
    q = linalg.poly_trim((Fraction(1),) + tuple(solution[deg_num + 1:]))
    rf = RationalFunction(numerator=p, denominator=q)
    expanded = rf.expand(len(coeffs) - 1)
    for r, c in enumerate(coeffs):
        if expanded[r] != c:
            raise ReconstructionInconsistent(
                f"held-out coefficient {r} mismatch: {expanded[r]} != {c}"
            )
    return rf


def zeta(e: GeometricEndomorphism, n_max: int):
    """Coefficients 0 .. ``n_max`` plus reconstruction with the K-theory
    degree bounds."""
    kt = k_groups(e.matrix)
    deg_num, deg_den = kt.rank_k1, kt.rank_k0_free
    coeffs = zeta_coefficients(e, n_max)
    rf = zeta_reconstruct(coeffs, deg_num, deg_den)
    return coeffs, rf
