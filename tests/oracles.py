"""Independent references the package's fast routes are tested against.

They evaluate the definitions directly, word by word or entry by entry, and
are kept out of the package because nothing but the tests calls them.
"""

from collections import Counter
from fractions import Fraction

from cklef import linalg
from cklef.graded import GradedMap, GradedPairing, GradedSpace
from cklef.index import LengthTransfer, propagation
from cklef.sft_core import iter_paths


def length_transfer_enumerated(psi, max_len):
    """Fill the a(i, j) table by evaluating the path map on every word."""
    a = Counter(
        (m, len(r))
        for m in range(1, max_len + 1)
        for w in iter_paths(psi.matrix, m)
        if (r := psi.dot_apply(w)) is not None
    )
    return LengthTransfer(a=a, max_len=max_len, bound=propagation(psi.endo))


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
