"""The integer kernels of cklef.linalg against the Fraction Gauss-Jordan
references in tests/oracles.py, and the checks the kernels make on
themselves."""

import random
from fractions import Fraction

import pytest

from cklef import linalg
from cklef.errors import CkError, DegeneratePairing, DimensionMismatch, SingularMatrix
from cklef.graded import GradedSpace, graded_map, graded_pairing, index_pairing
from tests import oracles


def _int_matrix(rng, rows, cols, lo=-5, hi=5):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(cols)) for _ in range(rows))


def _rational_matrix(rng, rows, cols):
    return tuple(
        tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(cols))
        for _ in range(rows)
    )


def _singular(rng, d, make):
    """A d x d matrix whose last row is a combination of the others."""
    m = [list(r) for r in make(rng, d, d)]
    if d == 1:
        return ((0,),)
    weights = [rng.randint(-2, 2) for _ in range(d - 1)]
    m[-1] = [sum(w * m[i][j] for i, w in enumerate(weights)) for j in range(d)]
    rng.shuffle(m)
    return tuple(map(tuple, m))


def _matrices(seed, count=60):
    rng = random.Random(seed)
    for k in range(count):
        d = k % 11
        make = _int_matrix if k % 3 else _rational_matrix
        yield rng, d, make, make(rng, d, d)


class TestTypes:
    def test_matrices_keep_their_narrowest_exact_type(self):
        m = linalg.to_matrix([[1, Fraction(4, 2)], [Fraction(1, 3), "5/7"]])
        assert m == ((1, 2), (Fraction(1, 3), Fraction(5, 7)))
        assert [type(v) for row in m for v in row] == [int, int, Fraction, Fraction]
        for block in (linalg.identity(3), linalg.zeros(2, 3)):
            assert all(type(v) is int for row in block for v in row)

    def test_integer_products_and_traces_stay_int(self):
        rng = random.Random(3)
        a, b = _int_matrix(rng, 4, 3), _int_matrix(rng, 3, 5)
        assert all(type(v) is int for row in linalg.mat_mul(a, b) for v in row)
        c = _int_matrix(rng, 3, 3)
        assert type(linalg.trace(linalg.mat_mul(c, c))) is int

    def test_inverse_and_solve_return_fractions(self):
        inv = linalg.inverse(((2, 1), (1, 1)))
        assert inv == ((1, -1), (-1, 2))
        assert all(type(v) is Fraction for row in inv for v in row)
        x = linalg.solve(((2, 0), (0, 4)), (2, 2))
        assert x == (1, Fraction(1, 2)) and all(type(v) is Fraction for v in x)

    def test_integral_charpoly_and_series_stay_int(self):
        q = linalg.reciprocal_charpoly(((1, 2), (3, 4)))
        assert q == (1, -5, -2) and all(type(c) is int for c in q)
        for q0 in (1, -1):
            s = linalg.series_div((1, 2), (q0, 3, -1), 8)
            assert all(type(c) is int for c in s)
            assert s == linalg.series_div((Fraction(1), 2), (Fraction(q0), 3, -1), 8)
        halves = linalg.series_div((1,), (2, 1), 3)
        assert halves == (Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8), Fraction(-1, 16))


class TestTypedErrors:
    """Each raise is a CkError and, for callers that catch it, a ValueError."""

    def test_mismatched_product_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch) as err:
            linalg.mat_mul(((1, 2, 3),), ((1, 2), (3, 4)))
        assert isinstance(err.value, CkError) and isinstance(err.value, ValueError)

    def test_singular_inverse_is_a_singular_matrix(self):
        with pytest.raises(SingularMatrix) as err:
            linalg.inverse(((1, 2), (2, 4)))
        assert isinstance(err.value, CkError) and isinstance(err.value, ValueError)

    @pytest.mark.parametrize("q", [(0, 1), (Fraction(0), 2, 1), ()])
    def test_series_over_a_non_unit_is_a_singular_matrix(self, q):
        with pytest.raises(SingularMatrix):
            linalg.series_div((1, 1), q, 4)


class TestAgainstTheFractionOracle:
    def test_inverse(self):
        for _, d, _, a in _matrices(61):
            try:
                want = oracles.inverse(a)
            except ValueError:
                with pytest.raises(ValueError):
                    linalg.inverse(a)
                continue
            assert linalg.inverse(a) == want, a

    def test_singular_matrices_raise(self):
        for rng, d, make, _ in _matrices(67):
            if d == 0:
                continue
            a = _singular(rng, d, make)
            with pytest.raises(ValueError):
                oracles.inverse(a)
            with pytest.raises(ValueError):
                linalg.inverse(a)

    def test_singular_block_is_a_degenerate_pairing(self):
        for rng, d, make, good in _matrices(71, 40):
            if d == 0:
                continue
            space = GradedSpace(d, d)
            try:
                linalg.inverse(good)
            except ValueError:
                continue
            p = graded_pairing(space, space, 0, [good, _singular(rng, d, make)])
            assert not p.is_nondegenerate()
            with pytest.raises(DegeneratePairing):
                index_pairing(p, graded_map(space, space, 0, [good, good]))

    @pytest.mark.parametrize("consistent", [True, False])
    def test_solve_rectangular(self, consistent):
        rng = random.Random(73 + consistent)
        nones = 0
        for k in range(150):
            rows, cols = rng.randint(0, 10), rng.randint(0, 10)
            make = _int_matrix if k % 3 else _rational_matrix
            a = make(rng, rows, cols)
            if rows > 1 and rng.random() < 0.5:
                a = a[:-1] + (tuple(2 * v for v in a[0]),)  # the rank drops
            if consistent:
                x0 = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
                b = tuple(sum((v * w for v, w in zip(row, x0)), Fraction(0)) for row in a)
            else:
                b = tuple(rng.randint(-5, 5) for _ in range(rows))
            got = linalg.solve(a, b)
            assert got == oracles.solve(a, b), (a, b)
            if got is None:
                nones += 1
            else:
                assert all(sum(v * w for v, w in zip(row, got)) == c for row, c in zip(a, b))
        assert (nones == 0) if consistent else (nones > 20)

    def test_solve_without_columns(self):
        assert linalg.solve((), ()) == oracles.solve((), ()) == ()
        assert linalg.solve(((), ()), (0, 0)) == ()
        assert linalg.solve(((), ()), (0, 1)) is None

    def test_charpoly_of_integer_matrices_equals_the_rational_route(self):
        for _, d, make, f in _matrices(79):
            if make is _rational_matrix:
                continue
            q = linalg.reciprocal_charpoly(f)
            assert all(type(c) is int for c in q)
            as_fractions = tuple(tuple(Fraction(v) for v in row) for row in f)
            assert q == linalg.reciprocal_charpoly(as_fractions)


class TestSelfChecks:
    """The kernels refuse a wrong answer instead of returning it."""

    @pytest.fixture()
    def off_by_one(self, monkeypatch):
        """An elimination that gets the last entry of its first row wrong."""
        eliminate = linalg._gauss_jordan

        def wrong(rows, cols):
            pivots, p = eliminate(rows, cols)
            rows[0] = rows[0][:-1] + [rows[0][-1] + 1]
            return pivots, p

        monkeypatch.setattr(linalg, "_gauss_jordan", wrong)

    def test_inverse_checks_a_r_equals_p_i(self, off_by_one):
        with pytest.raises(ArithmeticError):
            linalg.inverse(((2, 1), (1, 1)))

    def test_solve_checks_the_solution(self, off_by_one):
        with pytest.raises(ArithmeticError):
            linalg.solve(((2, 1), (1, 1)), (1, 0))

    def test_charpoly_checks_each_division_by_k(self, monkeypatch):
        trace = linalg.trace
        monkeypatch.setattr(linalg, "trace", lambda a: trace(a) + 1)
        with pytest.raises(ArithmeticError):
            # -tr(F M_2) / 2 with F = I comes to 3/2
            linalg.reciprocal_charpoly(linalg.identity(2))
