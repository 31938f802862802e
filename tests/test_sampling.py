import random

import pytest

from cklef.errors import InvalidParameter
from cklef.index import stabilized_index
from cklef.sampling import (
    random_complete_graph_endomorphism,
    random_inner_automorphism,
)
from cklef.sft_core import validate_matrix


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
