import random

import pytest

from cklef.errors import DepthTooSmall
from cklef.sft_core import clopen_make, validate_matrix
from tests.conftest import small_matrices
from tests.oracles import (
    MatrixMismatch,
    add,
    adjoint,
    element,
    equals,
    image_element,
    is_partial_isometry,
    monomial,
    multiply,
    normalize,
    support,
    unit,
    zero,
)


def _random_element(matrix, rng, terms=3, max_len=3):
    triples = []
    for _ in range(terms):
        nu = _random_word(matrix, rng, rng.randint(0, max_len))
        mu = _random_word(matrix, rng, rng.randint(0, max_len))
        triples.append((nu, mu, rng.randint(-2, 2)))
    return element(matrix, triples)


def _random_word(matrix, rng, length):
    while True:
        w = []
        ok = True
        for _ in range(length):
            choices = (
                sorted(matrix.followers(w[-1])) if w else list(matrix.alphabet)
            )
            if not choices:
                ok = False
                break
            w.append(rng.choice(choices))
        if ok:
            return tuple(w)


class TestMultiply:
    def test_star_then_generator(self, main_matrix):
        # s_1* s_1 = s_1 s_1* + s_2 s_2*  (followers of 1 are {1, 2})
        s1 = monomial(main_matrix, (1,), ())
        got = multiply(adjoint(s1), s1)
        want = element(main_matrix, [((1,), (1,), 1), ((2,), (2,), 1)])
        assert equals(got, want)

    def test_orthogonal_generators(self, main_matrix):
        # s_2* s_1 = 0
        s1, s2 = monomial(main_matrix, (1,), ()), monomial(main_matrix, (2,), ())
        got = multiply(adjoint(s2), s1)
        assert not got.terms

    def test_middle_cancellation_with_follower_split(self, main_matrix):
        # (s_2 s_1*)(s_1 s_3*): the middle s_1* s_1 is the range projection
        # Q_{t(1)} = sum_{j in fol(1)} s_j s_j*.  Absorbing it on either side
        # restricts to j in fol(2) (so s_2 s_j != 0) and j in fol(3)
        # (so s_3 s_j != 0):  fol(2) & fol(1) & fol(3) = {1,2,3} & {1,2} & {2,3}
        # = {2}, giving s_22 s_32*.
        a = monomial(main_matrix, (2,), (1,))
        b = monomial(main_matrix, (1,), (3,))
        got = multiply(a, b)
        assert equals(got, monomial(main_matrix, (2, 2), (3, 2)))

    def test_extension_on_the_right(self, main_matrix):
        # (s_1 s_2*)(s_23 s_3*) = s_13 s_3* ... but 1->3 is forbidden, so 0;
        # with s_21 instead: (s_1 s_2*)(s_21 s_3*) = s_11 s_3*
        a = monomial(main_matrix, (1,), (2,))
        assert not multiply(a, monomial(main_matrix, (2, 3), (3,))).terms
        got = multiply(a, monomial(main_matrix, (2, 1), (3,)))
        assert equals(got, monomial(main_matrix, (1, 1), (3,)))

    def test_unit_is_identity(self, main_matrix):
        rng = random.Random(11)
        for _ in range(20):
            x = _random_element(main_matrix, rng)
            assert equals(multiply(unit(main_matrix), x), x)
            assert equals(multiply(x, unit(main_matrix)), x)

    def test_associativity_randomized(self):
        rng = random.Random(23)
        for matrix in small_matrices():
            for _ in range(8):
                x = _random_element(matrix, rng)
                y = _random_element(matrix, rng)
                z = _random_element(matrix, rng)
                assert equals(
                    multiply(multiply(x, y), z), multiply(x, multiply(y, z))
                )

    def test_matrix_mismatch(self, main_matrix):
        other = validate_matrix([[1]])
        with pytest.raises(MatrixMismatch):
            multiply(unit(main_matrix), unit(other))


class TestAdjoint:
    def test_example(self, main_matrix):
        got = adjoint(monomial(main_matrix, (2, 3), (1,), 2))
        assert got == monomial(main_matrix, (1,), (2, 3), 2)

    def test_involution(self, main_matrix):
        rng = random.Random(31)
        for _ in range(20):
            x = _random_element(main_matrix, rng)
            assert adjoint(adjoint(x)) == x

    def test_anti_homomorphism(self):
        rng = random.Random(37)
        for matrix in small_matrices():
            for _ in range(8):
                x = _random_element(matrix, rng)
                y = _random_element(matrix, rng)
                assert equals(
                    adjoint(multiply(x, y)), multiply(adjoint(y), adjoint(x))
                )


class TestNormalize:
    def test_expand_depth_two(self, main_matrix):
        # s_2 s_1* at mu-depth 2: shared followers of 2 and 1 are {1,2}
        got = normalize(monomial(main_matrix, (2,), (1,)), 2)
        want = element(
            main_matrix, [((2, 1), (1, 1), 1), ((2, 2), (1, 2), 1)]
        )
        assert got == want

    def test_unit_expands_to_cylinder_sum(self, main_matrix):
        # 1 = sum_i s_i s_i*
        got = normalize(unit(main_matrix), 1)
        want = element(
            main_matrix, [((i,), (i,), 1) for i in main_matrix.alphabet]
        )
        assert got == want

    def test_idempotent(self, main_matrix):
        rng = random.Random(41)
        for _ in range(15):
            x = _random_element(main_matrix, rng)
            d = x.max_mu_length() + rng.randint(0, 2)
            once = normalize(x, d)
            assert normalize(once, d) == once

    def test_preserves_equality(self, main_matrix):
        rng = random.Random(43)
        for _ in range(15):
            x = _random_element(main_matrix, rng)
            assert equals(x, normalize(x, x.max_mu_length() + 2))

    def test_depth_too_small(self, main_matrix):
        x = monomial(main_matrix, (1,), (2, 3))
        with pytest.raises(DepthTooSmall):
            normalize(x, 1)


class TestRelations:
    def test_cuntz_krieger_relations(self):
        for matrix in small_matrices():
            # sum_i s_i s_i* = 1
            total = zero(matrix)
            for i in matrix.alphabet:
                s = monomial(matrix, (i,), ())
                total = add(total, multiply(s, adjoint(s)))
            assert equals(total, unit(matrix))
            # s_i* s_i = sum_j A[i,j] s_j s_j*
            for i in matrix.alphabet:
                s = monomial(matrix, (i,), ())
                lhs = multiply(adjoint(s), s)
                rhs = element(
                    matrix,
                    [((j,), (j,), matrix.entry(i, j)) for j in matrix.alphabet],
                )
                assert equals(lhs, rhs)

    def test_generators_are_partial_isometries(self, main_matrix):
        for i in main_matrix.alphabet:
            assert is_partial_isometry(monomial(main_matrix, (i,), ()))

    def test_endomorphism_image_is_partial_isometry(self, main_endo):
        for i in main_endo.matrix.alphabet:
            assert is_partial_isometry(image_element(main_endo, i))


class TestSupport:
    def test_image_range_projection_support(self, main_endo, main_matrix):
        # t_1 t_1* is the cylinder set {1, 2} at depth 1
        t1 = image_element(main_endo, 1)
        p = multiply(t1, adjoint(t1))
        assert support(p) == clopen_make(main_matrix, {(1,), (2,)})

    def test_generator_range_projection(self, main_matrix):
        s1 = monomial(main_matrix, (1,), ())
        p = multiply(s1, adjoint(s1))
        assert support(p) == clopen_make(main_matrix, {(1,)})

    def test_unit_support_is_whole_space(self, main_matrix):
        assert support(unit(main_matrix)) == clopen_make(main_matrix, {()})

    def test_support_refinement_invariant(self, main_matrix):
        # the same projection written at two depths has equal support
        s2 = monomial(main_matrix, (2,), ())
        p = multiply(s2, adjoint(s2))
        q = normalize(p, 3)
        assert support(p) == support(q)

    def test_not_a_projection(self, main_matrix):
        with pytest.raises(ValueError):
            support(monomial(main_matrix, (1,), ()))
        with pytest.raises(ValueError):
            support(
                element(main_matrix, [((1,), (1,), 2)])
            )
