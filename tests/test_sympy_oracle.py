"""sympy as an independent oracle for the exact linear algebra.

sympy is a test-only dependency; these tests skip when it is absent.  The
Smith-form comparison stops at n = 32, where sympy still answers in
milliseconds; at n = 64 it takes about a minute.  The K_0 descent is checked
the same way: for a map T = p(A^T), which keeps im(I - A^T), sympy inverts U
over QQ, and its U T U^{-1} restricted to the free indices must be the
integer block the package solves for on U's free rows.  The fraction-free
kernels of cklef.linalg -- inverse, solve and the integral characteristic
polynomial -- are checked on random integer and rational matrices up to
d = 10, singular and rectangular ones included.
"""

import random
from fractions import Fraction

import pytest

from cklef import linalg
from cklef.ktheory import _descend_free, _require_well_defined, k_groups
from cklef.sft_core import validate_matrix
from tests.conftest import polynomial_map

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402


def _random_matrix(rng, n, density):
    while True:
        rows = [[int(rng.random() < density) for _ in range(n)] for _ in range(n)]
        if all(any(r) for r in rows) and all(any(c) for c in zip(*rows)):
            return validate_matrix(rows)


def _sympy_fraction(c):
    return Fraction(int(c.p), int(c.q))


def _random_rows(rng, rows, cols, rational):
    """Entries in -6..6, over denominators 1, 2, 3 or 5 when rational."""
    def entry():
        v = rng.randint(-6, 6)
        return Fraction(v, rng.choice((1, 2, 3, 5))) if rational else v
    return tuple(tuple(entry() for _ in range(cols)) for _ in range(rows))


def test_reciprocal_charpoly_matches_sympy_charpoly():
    rng = random.Random(41)
    x = sympy.Symbol("x")
    for trial in range(60):
        d = 1 + trial % 8
        f = tuple(
            tuple(Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3))) for _ in range(d))
            for _ in range(d)
        )
        # det(xI - F) read highest degree first is det(I - tF) lowest first
        expected = sympy.Matrix(f).charpoly(x).all_coeffs()
        expected = linalg.poly_trim(tuple(_sympy_fraction(c) for c in expected))
        assert linalg.reciprocal_charpoly(f) == expected, f


def test_integral_reciprocal_charpoly_matches_sympy_up_to_d10():
    rng = random.Random(44)
    x = sympy.Symbol("x")
    for d in range(11):
        for _ in range(4):
            f = _random_rows(rng, d, d, rational=False)
            expected = sympy.Matrix(d, d, [v for row in f for v in row]).charpoly(x).all_coeffs()
            got = linalg.reciprocal_charpoly(f)
            assert all(type(c) is int for c in got)
            assert got == linalg.poly_trim(tuple(int(c) for c in expected)), f


@pytest.mark.parametrize("rational", [False, True])
def test_inverse_matches_sympy_up_to_d10(rational):
    rng = random.Random(45 + rational)
    for d in range(1, 11):
        for _ in range(5):
            a = _random_rows(rng, d, d, rational)
            m = sympy.Matrix(a)
            if m.det() == 0:
                with pytest.raises(ValueError):
                    linalg.inverse(a)
                continue
            want = m.inv()
            got = linalg.inverse(a)
            assert got == tuple(
                tuple(_sympy_fraction(want[i, j]) for j in range(d)) for i in range(d)
            ), a
    # a rank-deficient block: sympy and the kernel both call it singular
    a = ((1, 2, 3), (2, 4, 6), (0, 1, 1))
    assert sympy.Matrix(a).det() == 0
    with pytest.raises(ValueError):
        linalg.inverse(a)


@pytest.mark.parametrize("rational", [False, True])
def test_solve_matches_sympy_consistency_up_to_d10(rational):
    rng = random.Random(47 + rational)
    seen = {True: 0, False: 0}
    for _ in range(120):
        rows, cols = rng.randint(1, 10), rng.randint(1, 10)
        a = [list(r) for r in _random_rows(rng, rows, cols, rational)]
        if rows > 1 and rng.random() < 0.5:
            a[-1] = [2 * v for v in a[0]]
        b = [rng.randint(-5, 5) for _ in range(rows)]
        m = sympy.Matrix(a)
        consistent = m.rank() == m.row_join(sympy.Matrix(b)).rank()
        seen[consistent] += 1
        got = linalg.solve(tuple(map(tuple, a)), b)
        if not consistent:
            assert got is None, (a, b)
            continue
        assert got is not None, (a, b)
        assert list(m * sympy.Matrix([sympy.Rational(v.numerator, v.denominator) for v in got])) == b
    assert min(seen.values()) >= 10


def test_reciprocal_charpoly_of_empty_matrix_is_one():
    assert linalg.reciprocal_charpoly(()) == (Fraction(1),)


def test_k_groups_invariant_factors_match_sympy():
    rng = random.Random(42)
    for n in list(range(1, 13)) + [16, 20, 24, 28, 32]:
        for density in (0.2, 0.5, 0.8):
            kt = k_groups(_random_matrix(rng, n, density))
            expected = invariant_factors(sympy.Matrix(kt.presentation), domain=sympy.ZZ)
            assert kt.invariant_factors == tuple(abs(int(v)) for v in expected), n


def test_descent_matches_sympy_conjugation():
    rng = random.Random(43)
    ranks = []
    for n in list(range(1, 13)) + [16, 20, 24, 28, 32]:
        for density in (0.2, 0.5, 0.8):
            kt = k_groups(_random_matrix(rng, n, density))
            qq = sympy.QQ
            u = DomainMatrix.from_Matrix(sympy.Matrix(kt.snf.u)).convert_to(qq)
            t = polynomial_map(kt.matrix, rng)
            _require_well_defined(kt, t)
            t_dm = DomainMatrix.from_Matrix(sympy.Matrix(t)).convert_to(qq)
            conj = (u * t_dm * u.inv()).to_Matrix()
            # the free rows of U T U^{-1} vanish off the free columns
            assert all(
                conj[i, j] == 0 for i in kt.free_indices for j in range(n) if j not in kt.free_indices
            ), n
            expected = tuple(
                tuple(int(conj[i, j]) for j in kt.free_indices) for i in kt.free_indices
            )
            assert _descend_free(kt, t) == expected, n
            ranks.append(kt.rank_k0_free)
    assert max(ranks) >= 1
