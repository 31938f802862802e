"""Exact rational linear algebra and small polynomial helpers.

Everything operates on tuples of tuples of :class:`fractions.Fraction` (or
ints where noted); no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = tuple[tuple[Fraction, ...], ...]
Poly = tuple[Fraction, ...]  # coefficients, lowest degree first


def to_matrix(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def zeros(rows: int, cols: int) -> Matrix:
    return tuple(tuple(Fraction(0) for _ in range(cols)) for _ in range(rows))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions differ")
    return tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
              for j in range(len(b[0]) if b else 0))
        for i in range(len(a))
    )


def mat_vec(a: Matrix, v: Sequence) -> tuple[Fraction, ...]:
    """a v, summed over the nonzero entries of v and of a only."""
    support = [(j, Fraction(x)) for j, x in enumerate(v) if x]
    return tuple(sum((row[j] * x for j, x in support if row[j]), Fraction(0))
                 for row in a)


def trace(a: Matrix) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def inverse(a: Matrix) -> Matrix:
    """Gauss-Jordan inverse; raises ValueError when singular."""
    n = len(a)
    aug = [list(row) + list(identity(n)[i]) for i, row in enumerate(to_matrix(a))]
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


def solve(a: Matrix, b: Sequence) -> tuple[Fraction, ...] | None:
    """One exact solution of a (possibly rectangular) system, or None.

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


def poly_deriv(p: Poly) -> Poly:
    return poly_trim(tuple(Fraction(i) * v for i, v in enumerate(p)))[1:] if len(p) > 1 else ()


def poly_trim(p: Poly) -> Poly:
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return tuple(p[:i])


def series_div(p: Poly, q: Poly, order: int) -> Poly:
    """Power-series expansion of p/q through t^order (requires q(0) != 0)."""
    if not q or q[0] == 0:
        raise ValueError("denominator must be a unit power series")
    coeffs = []
    inv0 = Fraction(1) / Fraction(q[0])
    for r in range(order + 1):
        acc = Fraction(p[r]) if r < len(p) else Fraction(0)
        for s in range(1, min(r, len(q) - 1) + 1):
            acc -= Fraction(q[s]) * coeffs[r - s]
        coeffs.append(acc * inv0)
    return tuple(coeffs)


def reciprocal_charpoly(f: Matrix) -> Poly:
    """det(I - tF) by Faddeev-LeVerrier: O(d^4) exact operations.

    With M_1 = I and M_k = F M_{k-1} + a_{k-1} I, the coefficient of t^k is
    a_k = -tr(F M_k) / k, where a_0 = 1.
    """
    d = len(f)
    coeffs = [Fraction(1)]
    fm = zeros(d, d)
    for k in range(1, d + 1):
        m = tuple(
            tuple(fm[i][j] + (coeffs[-1] if i == j else 0) for j in range(d))
            for i in range(d)
        )
        fm = mat_mul(f, m)
        coeffs.append(-trace(fm) / k)
    return poly_trim(tuple(coeffs))
