import random

import pytest

from cklef.endo import represent_at_depth
from cklef.errors import (
    EntryOutOfRange,
    InvalidParameter,
    NonSquare,
    UnallowableWord,
    ZeroRowOrColumn,
)
from cklef.index import length_transfer_counted, propagation, series_end
from cklef.sampling import random_inner_automorphism
from cklef.sft_core import (
    clopen_make,
    count_paths,
    enumerate_paths,
    is_allowable,
    iter_paths,
    terminus,
    validate_matrix,
    walk,
)
from tests.conftest import Q_ROWS, seeded_matrix, small_matrices
from tests.oracles import MatrixMismatch, is_partition, matrix_powers, per_pair_fill


class TestValidateMatrix:
    def test_main_matrix_accepted_irreducible(self, main_matrix):
        assert main_matrix.n == 3
        assert main_matrix.irreducible

    def test_one_letter_full_shift(self):
        m = validate_matrix([[1]])
        assert m.n == 1 and m.irreducible

    def test_zero_column_rejected(self):
        with pytest.raises(ZeroRowOrColumn):
            validate_matrix([[1, 0], [1, 0]])

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroRowOrColumn):
            validate_matrix([[0, 0], [1, 1]])

    def test_non_square_rejected(self):
        with pytest.raises(NonSquare):
            validate_matrix([[1, 1], [1, 1], [1, 1]])

    def test_entry_out_of_range_rejected(self):
        with pytest.raises(EntryOutOfRange):
            validate_matrix([[1, 2], [1, 1]])

    def test_reducible_flagged(self):
        m = validate_matrix([[1, 1], [0, 1]])
        assert not m.irreducible


class TestWords:
    def test_allowability(self, main_matrix):
        assert is_allowable(main_matrix, (1, 1, 2, 3))
        assert not is_allowable(main_matrix, (1, 3))
        assert is_allowable(main_matrix, ())

    def test_letters_outside_alphabet_rejected_anywhere(self):
        for m in small_matrices():
            for bad in (0, m.n + 1, -1, -m.n):
                assert not is_allowable(m, (bad,))
                assert not is_allowable(m, (1, bad))
                assert not is_allowable(m, (bad, 1))
            assert is_allowable(m, ())

    def test_followers_are_row_supports(self):
        for m in small_matrices():
            for a in m.alphabet:
                support = {b for b in m.alphabet if m.entry(a, b)}
                assert m.followers(a) == support
                assert m.followers(a) is m.followers(a)
            assert m.followers(None) == set(m.alphabet)

    def test_terminus(self):
        assert terminus((2, 3, 1)) == 1


class TestCountPaths:
    def test_main_1_1_len2(self, main_matrix):
        # (A^2)[1,1] = 2: the words 11, 21 follow letter 1
        assert count_paths(main_matrix, 1, 1, 2) == 2

    def test_main_3_2_len1(self, main_matrix):
        assert count_paths(main_matrix, 3, 2, 1) == 1

    def test_forbidden_transition(self, main_matrix):
        assert count_paths(main_matrix, 1, 3, 1) == 0

    def test_matches_enumeration_bruteforce(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(1, 4)
            while True:
                rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
                if all(any(r) for r in rows) and all(
                    any(rows[i][j] for i in range(n)) for j in range(n)
                ):
                    break
            m = validate_matrix(rows)
            for length in range(1, 6):
                words = enumerate_paths(m, length)
                for a in m.alphabet:
                    for b in m.alphabet:
                        brute = sum(
                            1
                            for w in words
                            if m.entry(a, w[0]) == 1 and terminus(w) == b
                        )
                        assert count_paths(m, a, b, length) == brute

    def test_length_below_one_is_invalid_parameter(self, main_matrix):
        with pytest.raises(InvalidParameter):
            count_paths(main_matrix, 1, 1, 0)

    def test_empty_terminus_start(self, main_matrix):
        # paths from the empty word's terminus: every word counts
        for length in range(1, 5):
            total = sum(
                count_paths(main_matrix, None, b, length) for b in main_matrix.alphabet
            )
            assert total == len(enumerate_paths(main_matrix, length))

    def test_long_length_on_fresh_matrix(self):
        # the column is stepped 1500 times without recursion
        m = validate_matrix([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        assert count_paths(m, 1, 1, 1500) == matrix_powers(m, 1500)[1500][0][0]

    def test_matches_matrix_powers(self):
        for m in small_matrices():
            powers = matrix_powers(m, 40)
            for length in range(1, 41):
                for b in m.alphabet:
                    column = [row[b - 1] for row in powers[length]]
                    assert [count_paths(m, a, b, length) for a in m.alphabet] == column
                    from_empty = sum(row[b - 1] for row in powers[length - 1])
                    assert count_paths(m, None, b, length) == from_empty

    def test_letters_outside_the_alphabet_are_refused(self):
        # a = None is the empty terminus; 0 is no letter, and neither is n + 1
        for m in small_matrices():
            for bad in (0, -1, m.n + 1):
                with pytest.raises(InvalidParameter):
                    count_paths(m, bad, 1, 2)
                with pytest.raises(InvalidParameter):
                    count_paths(m, 1, bad, 2)
                with pytest.raises(InvalidParameter):
                    count_paths(m, None, bad, 1)

    def test_owned_tables_ignored_by_equality_and_hash(self):
        used = validate_matrix([[1, 1], [1, 0]])
        count_paths(used, 1, 1, 9)
        fresh = validate_matrix([[1, 1], [1, 0]])
        assert used == fresh and hash(used) == hash(fresh)
        assert used.followers(2) == frozenset({1}) and used.followers(None) == {1, 2}


class TestEnumeratePaths:
    def test_length_one(self, main_matrix):
        assert enumerate_paths(main_matrix, 1) == [(1,), (2,), (3,)]

    def test_length_two(self, main_matrix):
        words = enumerate_paths(main_matrix, 2)
        assert words == [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]

    def test_length_zero(self, main_matrix):
        assert enumerate_paths(main_matrix, 0) == [()]

    def test_lexicographic(self, main_matrix):
        for k in range(1, 5):
            words = enumerate_paths(main_matrix, k)
            assert list(words) == sorted(words)

    def test_count_identity(self, main_matrix):
        # |P_k| = sum over a,b of (A^{k-1})[a,b]
        powers = matrix_powers(main_matrix, 5)
        for k in range(2, 7):
            matrix_total = sum(map(sum, powers[k - 1]))
            assert len(enumerate_paths(main_matrix, k)) == matrix_total


class TestIterPaths:
    @staticmethod
    def _breadth_first(m, k):
        """The former cached construction: every length-(k-1) word extended
        by each follower, in order."""
        words = [()]
        for _ in range(k):
            words = [w + (j,) for w in words for j in m.alphabet if not w or m.entry(w[-1], j)]
        return words

    def test_matches_breadth_first_order(self):
        for m in small_matrices():
            for k in range(0, 7):
                assert list(iter_paths(m, k)) == self._breadth_first(m, k)

    def test_counts_agree_with_matrix_powers(self):
        for m in small_matrices():
            for k in range(1, 13):
                expected = sum(count_paths(m, None, b, k) for b in m.alphabet)
                assert sum(1 for _ in iter_paths(m, k)) == expected

    def test_start_restricts_to_extensions(self, main_matrix):
        for start in [(2,), (2, 3), (1, 1, 2)]:
            for k in range(len(start), 7):
                want = [w for w in enumerate_paths(main_matrix, k) if w[: len(start)] == start]
                assert list(iter_paths(main_matrix, k, start)) == want

    def test_start_longer_than_k_yields_nothing(self, main_matrix):
        assert list(iter_paths(main_matrix, 1, (2, 3))) == []
        assert list(iter_paths(main_matrix, 0, (1,))) == []

    def test_start_of_length_k_is_its_own_extension(self, main_matrix):
        assert list(iter_paths(main_matrix, 2, (2, 3))) == [(2, 3)]

    def test_unallowable_start_rejected(self, main_matrix):
        # 3 may not follow 1: the walk would extend (1, 3) to (1, 3, 2) and
        # (1, 3, 3), so the start is checked whatever k is
        for k in (1, 2, 3):
            with pytest.raises(UnallowableWord):
                iter_paths(main_matrix, k, (1, 3))

    def test_length_zero(self):
        for m in small_matrices():
            assert list(iter_paths(m, 0)) == [()]

    def test_negative_length_rejected(self, main_matrix):
        with pytest.raises(ValueError):
            list(iter_paths(main_matrix, -1))

    def test_negative_length_is_invalid_parameter(self, main_matrix):
        # refused at the call, not at the first word
        with pytest.raises(InvalidParameter):
            iter_paths(main_matrix, -1)

    def test_streams_lazily(self, main_matrix):
        words = iter_paths(main_matrix, 40)
        assert next(words) == (1,) * 40
        assert next(words) == (1,) * 39 + (2,)


class TestWalk:
    """The one word walk against a brute-force filter of every word."""

    @staticmethod
    def _check(m, start, first, top):
        words = [tuple(w) for w in walk(m, start, first, top)]
        want = {
            w
            for k in range(len(start) + 1, top + 1)
            for w in enumerate_paths(m, k)
            if w[: len(start)] == start and w[len(start)] in first
        }
        # exactly the words start + x with x[0] in first, each once
        assert len(words) == len(set(words))
        assert set(words) == want
        # each word before its extensions
        position = {w: n for n, w in enumerate(words)}
        assert all(position[w[:-1]] < n for n, w in enumerate(words) if len(w) > len(start) + 1)
        # the words of each length in lexicographic order
        for k in range(len(start) + 1, top + 1):
            same = [w for w in words if len(w) == k]
            assert same == sorted(same)
        return words

    def test_every_word_from_the_empty_start(self):
        for m in small_matrices():
            words = self._check(m, (), m.followers(None), 5)
            assert len(words) == sum(len(enumerate_paths(m, k)) for k in range(1, 6))

    def test_nonempty_start_and_restricted_first(self, main_matrix):
        # 2 may be followed by 1, 2 and 3; 3 by 2 and 3
        for start, first in [
            ((2,), {1, 2, 3}),
            ((2,), {3}),
            ((2, 3), {2}),
            ((1, 1, 2), {1, 3}),
            ((3,), set()),
        ]:
            for top in range(len(start) + 1, 7):
                self._check(main_matrix, start, first, top)

    def test_start_at_or_past_top_yields_nothing(self, main_matrix):
        for start, top in [((2, 3), 2), ((2, 3, 3), 2), ((1,), 0), ((), 0)]:
            assert self._check(main_matrix, start, {1, 2, 3}, top) == []


def _assert_counted_table_is_per_pair_fill(e):
    # the table holds the cells a(i, j) with i or j at most the depth it covers
    depth = series_end(e)
    max_len = depth + propagation(e)
    table = length_transfer_counted(e, max_len)
    full = per_pair_fill(e, max_len)
    assert table.a == {(i, j): c for (i, j), c in full.items() if min(i, j) <= depth}
    for k in range(depth + 1):
        assert table.dom_count(k) == sum(c for (i, _), c in table.a.items() if i == k)
        assert table.im_count(k) == sum(c for (_, j), c in table.a.items() if j == k)


def test_counted_table_matches_per_pair_fill(compose_cases):
    for _, _, e in compose_cases:
        _assert_counted_table_is_per_pair_fill(e)


def test_counted_table_matches_per_pair_fill_on_deeper_and_wider_inputs(main_endo):
    # re-presentations share (first, i) across mu-lengths; at n = 16 most
    # classes have a (first, i) of their own
    rng = random.Random(16)
    inner = random_inner_automorphism(seeded_matrix(16, rng), rng, depth=1)
    for e in (represent_at_depth(main_endo, 3), represent_at_depth(main_endo, 4), inner):
        _assert_counted_table_is_per_pair_fill(e)


def _reference_maximal_members(matrix, words):
    """The merge that rescans every member once per depth, kept as the reference."""
    members = {w for w in words if not any(w[:n] in words for n in range(len(w)))}
    for depth in range(max(map(len, members), default=0), 0, -1):
        by_parent = {}
        for w in members:
            if len(w) == depth:
                by_parent.setdefault(w[:-1], set()).add(w)
        for p, kids in by_parent.items():
            if len(kids) == len(matrix.followers(terminus(p))):
                members -= kids
                members.add(p)
    return frozenset(members)


class TestClopen:
    def test_same_members_as_the_per_depth_rescan(self):
        # random word sets, dense enough that merges cascade up several depths
        rng = random.Random(41)
        for matrix in small_matrices() + [validate_matrix(Q_ROWS)]:
            pool = [w for k in range(1, 5) for w in enumerate_paths(matrix, k)]
            for _ in range(40):
                words = set(rng.sample(pool, rng.randint(0, len(pool) * 3 // 4)))
                expected = _reference_maximal_members(matrix, words)
                assert clopen_make(matrix, words).members == expected

    def test_refine_depth1_to_2(self, main_matrix):
        # the cylinders 11 and 12 make up the cylinder 1
        s = clopen_make(main_matrix, {(1, 1), (1, 2)})
        assert s.members == frozenset({(1,)})

    def test_refine_same_depth_identity(self, main_matrix):
        # 32 has siblings 31 and 33 outside the set, so it stays maximal
        s = clopen_make(main_matrix, {(3, 2)})
        assert s.members == frozenset({(3, 2)})

    def test_refine_whole_space(self, main_matrix):
        s = clopen_make(main_matrix, {(1,), (2,), (3,)})
        assert s.members == frozenset({()})

    def test_covered_words_dropped(self, main_matrix):
        # words sorting between (1,) and (1, 2) are covered by (1,) as well
        s = clopen_make(main_matrix, {(2, 3, 3), (1,), (1, 1, 2), (1, 2), (2, 3)})
        assert s.members == frozenset({(1,), (2, 3)})

    def test_partition_rejects_overlap_and_repeats(self, main_matrix):
        rest = clopen_make(main_matrix, {(2,), (3,)})
        one = clopen_make(main_matrix, {(1,)})
        assert is_partition([one, rest])
        assert not is_partition([one, clopen_make(main_matrix, {(1, 2, 3)}), rest])
        assert not is_partition([one, one, rest])

    def test_partition_of_ranges(self, main_matrix):
        z1 = clopen_make(main_matrix, {(1,), (2,)})
        z2 = clopen_make(main_matrix, {(3, 2)})
        z3 = clopen_make(main_matrix, {(3, 3)})
        assert is_partition([z1, z2, z3])

    def test_equality_survives_refinement(self, main_matrix):
        s = clopen_make(main_matrix, {(1,), (3,)})
        deep = [w for w in enumerate_paths(main_matrix, 4) if w[0] in (1, 3)]
        assert s == clopen_make(main_matrix, deep)

    def test_whole_space_partition_by_letters(self, main_matrix):
        parts = [clopen_make(main_matrix, {(i,)}) for i in main_matrix.alphabet]
        assert is_partition(parts)
        assert not is_partition(parts[1:])

    def test_matrix_mismatch(self, main_matrix):
        other = validate_matrix([[1]])
        with pytest.raises(MatrixMismatch):
            is_partition(
                [clopen_make(main_matrix, {(1,)}), clopen_make(other, {(1,)})]
            )
