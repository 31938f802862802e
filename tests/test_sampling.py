import random

import pytest

from cklef.errors import InvalidParameter
from cklef.index import stabilized_index
from cklef.sampling import (
    _permutation,
    random_complete_graph_endomorphism,
    random_inner_automorphism,
)
from cklef.sft_core import terminus, validate_matrix
from tests.conftest import MAIN_ROWS, Q_ROWS
from tests.oracles import adjoint, element, monomial, multiply

COMPLETE_2 = validate_matrix([[1, 1], [1, 1]])
SAMPLERS = {
    "complete": lambda rng, depth: random_complete_graph_endomorphism(COMPLETE_2, rng, depth)[0],
    "inner": lambda rng, depth: random_inner_automorphism(COMPLETE_2, rng, depth),
}


class TestCompleteGraphSampling:
    @pytest.mark.parametrize("n", [2, 3])
    def test_samples_are_valid_with_zero_index(self, n):
        rng = random.Random(100 + n)
        matrix = validate_matrix([[1] * n for _ in range(n)])
        for _ in range(5):
            e, stats = random_complete_graph_endomorphism(matrix, rng)
            assert e.valid
            assert stats.attempts >= stats.accepted >= 1
            assert stabilized_index(e) == 0

    def test_rejects_non_complete_matrix(self, main_matrix):
        with pytest.raises(ValueError):
            random_complete_graph_endomorphism(main_matrix, random.Random(1))

    def test_non_complete_matrix_is_invalid_parameter(self, main_matrix):
        with pytest.raises(InvalidParameter):
            random_complete_graph_endomorphism(main_matrix, random.Random(1))

    def test_deterministic_given_seed(self):
        matrix = validate_matrix([[1, 1], [1, 1]])
        a, _ = random_complete_graph_endomorphism(matrix, random.Random(7))
        b, _ = random_complete_graph_endomorphism(matrix, random.Random(7))
        assert a.raw_images == b.raw_images


class TestInnerAutomorphisms:
    def test_valid_with_zero_index(self, main_matrix):
        rng = random.Random(55)
        for _ in range(3):
            e = random_inner_automorphism(main_matrix, rng)
            assert e.valid
            assert stabilized_index(e) == 0

    def test_works_on_other_matrices(self):
        rng = random.Random(56)
        for rows in ([[1, 1], [1, 0]], [[1, 1], [1, 1]]):
            e = random_inner_automorphism(validate_matrix(rows), rng)
            assert e.valid
            assert stabilized_index(e) == 0

    def test_is_the_conjugation_by_u(self):
        # u s_i u* multiplied out in the element algebra, for the u the
        # sampler draws: the same terms, each once, and the same draws
        matrices = [MAIN_ROWS, Q_ROWS, [[1, 1], [1, 0]], [[1] * 3] * 3]
        for rows in matrices:
            matrix = validate_matrix(rows)
            for seed in (3, 4):
                for depth in (1, 2, 3):
                    rng, reference_rng = random.Random(seed), random.Random(seed)
                    e = random_inner_automorphism(matrix, rng, depth=depth)
                    sigma = _permutation(matrix, reference_rng, depth)
                    assert rng.getstate() == reference_rng.getstate()
                    assert sorted(sigma.values()) == sorted(sigma)
                    assert all(terminus(sigma[w]) == terminus(w) for w in sigma)
                    u = element(matrix, [(sigma[w], w, 1) for w in sigma])
                    for i in matrix.alphabet:
                        image = multiply(multiply(u, monomial(matrix, (i,), ())), adjoint(u))
                        assert set(image.terms.values()) == {1}
                        assert e.raw_images[i - 1] == tuple(sorted(image.terms))


class TestDepthParameter:
    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("depth", [True, 1.0, "2"], ids=["bool", "float", "str"])
    def test_depth_must_be_an_int(self, sampler, depth):
        with pytest.raises(InvalidParameter, match="depth must be an int"):
            SAMPLERS[sampler](random.Random(1), depth)

    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_refused(self, sampler, depth):
        # the one empty word cannot be dealt into two nonempty groups, so the
        # complete-graph sampler would draw partitions forever at depth 0
        with pytest.raises(InvalidParameter, match=f"depth must be >= 1, got {depth}"):
            SAMPLERS[sampler](random.Random(1), depth)

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_depth_one_is_the_least(self, sampler):
        assert SAMPLERS[sampler](random.Random(1), 1).valid
