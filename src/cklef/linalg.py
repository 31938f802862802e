"""Exact linear algebra and small polynomial helpers, kept in integers.

Matrices are tuples of tuples of exact scalars, and each entry keeps its
narrowest exact type: an integral value is an ``int``, any other value a
:class:`fractions.Fraction`.  Integer data stays integral through products,
traces, the characteristic polynomial and power-series division, so no sum
pays a gcd.  ``inverse`` and ``solve`` share one fraction-free (Bareiss)
Gauss-Jordan elimination over the integers; a ``Fraction`` is formed only
where a value really is rational, once per entry of their results.  No
floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .errors import DimensionMismatch, SingularMatrix

Matrix = tuple[tuple, ...]  # rows of int or Fraction entries
Poly = tuple  # coefficients, lowest degree first


def _narrow(v):
    """v as an int when it is integral, else as a Fraction."""
    if type(v) is int:
        return v
    if type(v) is not Fraction:
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def to_matrix(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(_narrow(v) for v in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zeros(rows: int, cols: int) -> Matrix:
    return tuple((0,) * cols for _ in range(rows))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatch("inner dimensions differ")
    cols = list(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_vec(a: Matrix, v: Sequence) -> tuple[Fraction, ...]:
    """a v, summed over the nonzero entries of v and of a only.

    The result is a vector of Fractions, the coordinate type of the graded
    vectors it serves, also in a row that meets none of v's support.
    """
    support = [(j, Fraction(x)) for j, x in enumerate(v) if x]
    return tuple(sum((row[j] * x for j, x in support if row[j]), Fraction(0))
                 for row in a)


def trace(a: Matrix):
    return sum(a[i][i] for i in range(len(a)))


def _integral_rows(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """The rows times the lcm s of their entries' denominators, as ints, and s."""
    rows = [[_narrow(v) for v in row] for row in rows]
    s = lcm(*(v.denominator for row in rows for v in row if type(v) is not int))
    if s == 1:
        return rows, 1
    return [[int(v * s) for v in row] for row in rows], s


def _gauss_jordan(rows: list[list[int]], cols: int) -> tuple[list[tuple[int, int]], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of integer rows, in place.

    Pivots are taken in the first ``cols`` columns.  With pivot value p at
    (r, c) and the previous pivot value p_prev (1 at the start), every other
    row becomes (p row_i - row_i[c] row_r) / p_prev.  Every entry is then a
    minor of the input (Sylvester's identity), so each division is exact;
    it is checked all the same.  At the end every pivot row holds the last
    pivot value at its pivot column and every other row holds zero there.

    Returns the pivot positions (row, column), in order, and the last pivot
    value (1 when there is none).
    """
    n = len(rows)
    pivots: list[tuple[int, int]] = []
    prev = 1
    r = 0
    for c in range(cols):
        if r == n:
            break
        pivot = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        p = top[c]
        for i in range(n):
            if i == r:
                continue
            row = rows[i]
            a = row[c]
            new = []
            for x, y in zip(row, top):
                q, rem = divmod(p * x - a * y, prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                new.append(q)
            rows[i] = new
        pivots.append((r, c))
        prev = p
        r += 1
    return pivots, prev


def inverse(a: Matrix) -> Matrix:
    """The inverse of a square matrix; raises SingularMatrix when it is singular.

    One fraction-free elimination of [s A | I], with s the lcm of A's
    denominators, leaves [p I | R]; R = p (sA)^{-1} is checked by sA R = p I
    in integers, and the inverse is s R / p, one Fraction per entry.
    """
    n = len(a)
    scaled, s = _integral_rows(a)
    aug = [row + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(scaled)]
    pivots, p = _gauss_jordan(aug, n)
    if len(pivots) < n:
        raise SingularMatrix("matrix is singular")
    r = [row[n:] for row in aug]
    r_cols = list(zip(*r))
    for i, row in enumerate(scaled):
        for j, col in enumerate(r_cols):
            if sum(map(mul, row, col)) != (p if i == j else 0):
                raise ArithmeticError("fraction-free inverse failed its check")
    return tuple(tuple(Fraction(s * x, p) for x in row) for row in r)


def solve(a: Matrix, b: Sequence) -> tuple[Fraction, ...] | None:
    """One exact solution of a (possibly rectangular) system, or None.

    One fraction-free elimination of [A | b], scaled to integers, to reduced
    row echelon form; free variables are set to 0, and each pivot variable is
    its row's right-hand side over the last pivot value.  A solution is
    checked against the integer system before it is returned.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    scaled, _ = _integral_rows([list(row) + [b[i]] for i, row in enumerate(a)])
    aug = list(scaled)  # the elimination replaces rows, never edits one
    pivots, p = _gauss_jordan(aug, cols)
    if any(aug[i][cols] for i in range(len(pivots), rows)):
        return None
    x = [0] * cols  # p times the solution
    for row, col in pivots:
        x[col] = aug[row][cols]
    for row in scaled:
        if sum(map(mul, row, x)) != p * row[cols]:
            raise ArithmeticError("fraction-free solve failed its check")
    return tuple(Fraction(v, p) for v in x)


def poly_deriv(p: Poly) -> Poly:
    return poly_trim(tuple(i * v for i, v in enumerate(p)))[1:] if len(p) > 1 else ()


def poly_trim(p: Poly) -> Poly:
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return tuple(p[:i])


def series_div(p: Poly, q: Poly, order: int) -> Poly:
    """Power-series expansion of p/q through t^order (requires q(0) != 0).

    Integral p and q with q(0) = +-1 expand in ints; anything else in
    Fractions.
    """
    if not q or q[0] == 0:
        raise SingularMatrix("denominator must be a unit power series")
    if q[0] in (1, -1) and all(type(c) is int for c in (*p, *q)):
        zero, inv0 = 0, q[0]
    else:
        p, q = [Fraction(c) for c in p], [Fraction(c) for c in q]
        zero, inv0 = Fraction(0), 1 / q[0]
    coeffs = []
    for r in range(order + 1):
        acc = p[r] if r < len(p) else zero
        for s in range(1, min(r, len(q) - 1) + 1):
            acc -= q[s] * coeffs[r - s]
        coeffs.append(acc * inv0)
    return tuple(coeffs)


def reciprocal_charpoly(f: Matrix) -> Poly:
    """det(I - tF) by Faddeev-LeVerrier: O(d^4) exact operations.

    With M_1 = I and M_k = F M_{k-1} + a_{k-1} I, the coefficient of t^k is
    a_k = -tr(F M_k) / k, where a_0 = 1.  For an integral F every a_k is an
    integer, so the whole recurrence runs in ints and each division by k is
    checked to leave no remainder; a rational F runs in Fractions.
    """
    d = len(f)
    integral = all(type(v) is int for row in f for v in row)
    coeffs = [1 if integral else Fraction(1)]
    fm = zeros(d, d)
    for k in range(1, d + 1):
        m = tuple(
            tuple(fm[i][j] + (coeffs[-1] if i == j else 0) for j in range(d))
            for i in range(d)
        )
        fm = mat_mul(f, m)
        if integral:
            a, rem = divmod(-trace(fm), k)
            if rem:
                raise ArithmeticError("integral charpoly coefficient is not an integer")
        else:
            a = Fraction(-trace(fm), k)
        coeffs.append(a)
    return poly_trim(tuple(coeffs))
