import random

import pytest

from cklef.endo import build_endomorphism, compose, identity_endomorphism
from cklef.sampling import random_complete_graph_endomorphism, random_inner_automorphism
from cklef.sft_core import TransitionMatrix, validate_matrix

# The running 3x3 example used throughout the tests.
MAIN_ROWS = ((1, 1, 0), (1, 1, 1), (0, 1, 1))

# Presentation pairs (nu, mu) of its three generator images.
MAIN_PAIRS = [
    [
        ((1, 1), (2, 1)),
        ((1, 2), (2, 2)),
        ((2, 3, 3), (2, 3)),
        ((2, 3, 2), (3, 2)),
        ((2,), (1,)),
    ],
    [((3, 2), ())],
    [((3, 3), (3,))],
]

MAIN_DOCUMENT = """\
# running example
n = 3
A = 110 111 011

[t1]
1,1 <- 2,1
1,2 <- 2,2
2,3,3 <- 2,3
2,3,2 <- 3,2
2 <- 1

[t2]
3,2 <- e

[t3]
3,3 <- 3
"""


@pytest.fixture(scope="session")
def main_matrix():
    return validate_matrix(MAIN_ROWS)


@pytest.fixture(scope="session")
def main_endo(main_matrix):
    return build_endomorphism(main_matrix, MAIN_PAIRS)


@pytest.fixture(scope="session")
def main_identity(main_matrix):
    return identity_endomorphism(main_matrix)


def small_matrices():
    """A spread of desk-scale matrices: the running example, a one-letter
    full shift, complete graphs, and the golden-mean shift."""
    return [
        validate_matrix(MAIN_ROWS),
        validate_matrix([[1]]),
        validate_matrix([[1, 1], [1, 1]]),
        validate_matrix([[1, 1], [1, 0]]),
        validate_matrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]]),
    ]


def seeded_matrix(n, rng):
    """A seeded 0/1 matrix of size n with about n^2/2 ones and no zero row
    or column."""
    while True:
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        if all(any(r) for r in rows) and all(any(r[j] for r in rows) for j in range(n)):
            return validate_matrix(rows)


# A 4-letter matrix whose rows have different follower sets.
Q_ROWS = ((0, 1, 1, 1), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1))

# A 4-letter matrix whose eigenvalue 1 has a 2 x 2 Jordan block.
J_ROWS = ((1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 1, 0), (1, 1, 0, 1))


@pytest.fixture(scope="session")
def compose_cases(main_endo):
    """Triples (e, f, compose(e, f)): the powers E^2 .. E^8 of the running
    example as E o E^k; two seeded inner automorphisms on each of E's
    matrix, the golden-mean matrix and Q, squared and, on E's matrix,
    composed with E^2 and E^3 on both sides; and seeded complete-graph
    samples at n = 2 and 3, squared and cubed."""
    cases = []
    f = main_endo
    for _ in range(7):
        cases.append((main_endo, f, compose(main_endo, f)))
        f = cases[-1][2]
    e2, e3 = cases[0][2], cases[1][2]
    rng = random.Random(8)
    for rows in (MAIN_ROWS, ((1, 1), (1, 0)), Q_ROWS):
        matrix = validate_matrix(rows)
        for _ in range(2):
            u = random_inner_automorphism(matrix, rng)
            pairs = [(u, u)]
            if matrix == main_endo.matrix:
                pairs += [(u, e2), (e2, u), (u, e3), (e3, u)]
            cases += [(e, f, compose(e, f)) for e, f in pairs]
    for n in (2, 3):
        matrix = validate_matrix([[1] * n for _ in range(n)])
        for _ in range(2):
            s, _ = random_complete_graph_endomorphism(matrix, rng)
            square = compose(s, s)
            cases += [(s, s, square), (s, square, compose(s, square))]
    return cases
