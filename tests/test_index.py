import random
import tracemalloc
from collections import defaultdict
from dataclasses import fields
from itertools import accumulate

import pytest

import cklef.index as index_module
from cklef.cli import parse_document, parse_structured, run
from cklef.endo import (
    GeometricEndomorphism,
    PartialPathMap,
    build_endomorphism,
    identity_endomorphism,
    path_map,
    power,
    represent_at_depth,
)
from cklef.errors import ExponentUnderflow, InvalidParameter
from cklef.index import (
    IndexReport,
    LengthTransfer,
    _class_counts,
    _domain_counts,
    _image_counts,
    _power_counts,
    fredholm_index_truncated,
    gamma,
    gamma_parts,
    index_polynomial,
    index_polynomial_parts,
    index_series,
    index_series_counted,
    landing_table,
    length_transfer_counted,
    propagation,
    series_end,
    stabilized_index,
)
from cklef.sampling import random_complete_graph_endomorphism, random_inner_automorphism
from cklef.sft_core import common_followers, enumerate_paths, validate_matrix
from tests.conftest import J_ROWS, Q_ROWS, small_matrices
from tests.oracles import (
    collisions_by_length,
    compose_word_by_word,
    length_transfer_enumerated,
    matrix_powers,
    pair_images,
    polynomial_parts_pair_by_pair,
)


def _restricted(full, d):
    """The cells a(i, j) of ``full`` with i <= d or j <= d: the ones Index_k
    and gamma_k read for k <= d, which the package's tables hold."""
    return {(i, j): c for (i, j), c in full.items() if i <= d or j <= d}


class TestPropagation:
    def test_main(self, main_endo):
        assert propagation(main_endo) == 1

    def test_identity(self, main_identity):
        assert propagation(main_identity) == 0

    def test_composite_stretch(self, main_endo):
        # squaring compounds the length changes of the pairs
        assert propagation(power(main_endo, 2)) == 3


class TestSeriesRoute:
    def test_per_k_values(self, main_endo):
        table = length_transfer_enumerated(path_map(main_endo), 6 + propagation(main_endo))
        assert table.index_at(1) == 1
        for k in range(2, 7):
            assert table.index_at(k) == 0

    def test_counted_table_matches_enumeration(self, main_endo):
        enum = length_transfer_enumerated(path_map(main_endo), 8)
        counted = length_transfer_counted(main_endo, 8)
        assert counted.a == _restricted(enum.a, 8 - propagation(main_endo))

    def test_series_stabilizes_to_one(self, main_endo):
        report = index_series(path_map(main_endo))
        assert report.stabilized_value == 1
        assert report.per_k[1] == 1
        assert all(v == 0 for k, v in report.per_k.items() if k >= 2)

    def test_counted_series_agrees(self, main_endo):
        report = index_series_counted(main_endo)
        assert report.stabilized_value == 1
        assert stabilized_index(main_endo) == 1

    def test_identity_index_zero(self, main_identity):
        assert index_series(path_map(main_identity)).stabilized_value == 0
        assert stabilized_index(main_identity) == 0


class TestGamma:
    def test_boundary_counts_at_three(self, main_endo):
        assert gamma_parts(path_map(main_endo), 3) == (8, 7)

    def test_stable_value(self, main_endo):
        psi = path_map(main_endo)
        for m in range(3, 11):
            assert gamma(psi, m) == 1

    def test_identity(self, main_identity):
        psi = path_map(main_identity)
        for m in range(1, 8):
            assert gamma(psi, m) == 0

    def test_m_must_be_positive(self, main_endo):
        with pytest.raises(InvalidParameter):
            gamma_parts(path_map(main_endo), 0)

    def test_telescoping_to_partial_sums(self, main_endo):
        # gamma_m equals the partial sum of Index_k over k <= m
        psi = path_map(main_endo)
        table = length_transfer_enumerated(psi, 8 + propagation(main_endo))
        running = 0
        for m in range(1, 9):
            running += table.index_at(m)
            assert gamma(psi, m) == running


class TestPolynomialRoute:
    def test_closed_formula_at_minimal_parameters(self, main_endo):
        assert index_polynomial_parts(main_endo, 3, 1) == (8, 7)
        assert index_polynomial(main_endo, 3, 1) == 1

    def test_stable_in_m(self, main_endo):
        for m in range(3, 9):
            assert index_polynomial(main_endo, m, 1) == 1

    def test_stable_in_n(self, main_endo):
        for n in range(1, 4):
            assert index_polynomial(main_endo, 6, n) == 1

    def test_identity(self, main_identity):
        for m in range(1, 6):
            assert index_polynomial(main_identity, m, 0) == 0

    def test_exponent_underflow(self, main_endo):
        with pytest.raises(ExponentUnderflow):
            index_polynomial(main_endo, 2, 1)

    def test_n_below_bound_rejected(self, main_endo):
        with pytest.raises(ValueError):
            index_polynomial(main_endo, 5, 0)

    @staticmethod
    def _check_against_gamma(e):
        """The closed formula equals the enumerated boundary counts at every
        admissible m up to k + bound + 4."""
        psi = path_map(e)
        bound = propagation(e)
        admissible = []
        for m in range(1, e.k + bound + 5):
            try:
                parts = index_polynomial_parts(e, m, bound)
            except ExponentUnderflow:
                assert not admissible  # admissible m form a ray
                continue
            assert parts == gamma_parts(psi, m)
            admissible.append(m)
        assert admissible

    def test_parts_equal_gamma_on_main_example(self, main_endo):
        self._check_against_gamma(main_endo)

    def test_parts_equal_gamma_on_square(self, main_endo):
        self._check_against_gamma(power(main_endo, 2))

    def test_parts_equal_gamma_on_deeper_presentation(self, main_endo):
        self._check_against_gamma(represent_at_depth(main_endo, 3))

    def test_parts_equal_gamma_on_complete_graph_sample(self):
        matrix = validate_matrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
        e, _ = random_complete_graph_endomorphism(matrix, random.Random(23))
        self._check_against_gamma(e)

    def test_parts_equal_gamma_on_inner_automorphism(self, main_matrix):
        self._check_against_gamma(random_inner_automorphism(main_matrix, random.Random(24)))

    def test_deep_composite(self, main_endo):
        e8 = power(main_endo, 8)
        n_param = propagation(e8)
        assert index_polynomial(e8, 1 + n_param + e8.k, n_param) == 1

    def test_parts_equal_pair_by_pair_on_compose_cases(self, compose_cases):
        for _, _, e in compose_cases:
            bound = propagation(e)
            with pytest.raises(ExponentUnderflow) as below:
                index_polynomial_parts(e, 0, bound)
            least = below.value.minimal_m
            for m in (least, least + 1, least + 5):
                assert index_polynomial_parts(e, m, bound) == polynomial_parts_pair_by_pair(e, m)

    def test_parts_equal_pair_by_pair_at_m_200(self, main_endo):
        assert index_polynomial_parts(main_endo, 200, 1) == polynomial_parts_pair_by_pair(
            main_endo, 200
        )

    def test_at_large_m(self, main_endo):
        assert index_polynomial(main_endo, 1200, 1) == 1


class TestCountingKernel:
    """The counted table and the closed formula read one series of counts
    from matrix powers, one ``_power_counts`` call, per distinct (first, i),
    not one per pair."""

    @staticmethod
    def _record_calls(monkeypatch) -> list[tuple]:
        calls = []
        real = index_module._power_counts

        def record(matrix, first, i, top):
            calls.append((first, i, top))
            return real(matrix, first, i, top)

        monkeypatch.setattr(index_module, "_power_counts", record)
        return calls

    def test_series_are_column_sums_of_powers(self, main_matrix):
        for first, i, top in [
            (frozenset({1, 2}), 1, 7),
            (frozenset({3}), 2, 4),
            (frozenset({1, 2, 3}), 3, 1),
            (frozenset({2, 3}), 1, 0),
        ]:
            counts = _power_counts(main_matrix, first, i, top)
            powers = matrix_powers(main_matrix, top)
            assert counts == [0] + [
                sum(powers[L][c - 1][i - 1] for c in first) for L in range(1, top + 1)
            ]

    def test_one_series_per_first_and_letter_on_e8(self, main_endo, monkeypatch):
        e8 = power(main_endo, 8)
        depth = series_end(e8)
        calls = self._record_calls(monkeypatch)
        length_transfer_counted(e8, depth + propagation(e8))
        pairs = [(i, nu, mu) for i in e8.matrix.alphabet for nu, mu in e8.raw_images[i - 1]]
        assert len(pairs) == 768
        classes = {(common_followers(e8.matrix, nu, mu), i) for i, nu, mu in pairs}
        assert len(calls) == len({(first, i) for first, i, _ in calls}) == len(classes) == 5
        # each call runs to the longest y whose domain word or image one of
        # its pairs needs at the table's depth
        for first, i, top in calls:
            assert top == max(
                depth - min(len(mu) + 1, len(nu))
                for j, nu, mu in pairs
                if (common_followers(e8.matrix, nu, mu), j) == (first, i)
            )

    def test_polynomial_reads_one_series_per_first_and_letter(self, main_endo, monkeypatch):
        e8 = power(main_endo, 8)
        n_param = propagation(e8)
        calls = self._record_calls(monkeypatch)
        assert index_polynomial(e8, 1 + n_param + e8.k, n_param) == 1
        assert len(calls) == len({(first, i) for first, i, _ in calls}) <= 5


class TestFredholmRoute:
    def test_depth_four(self, main_endo):
        assert fredholm_index_truncated(path_map(main_endo), 4) == 1

    def test_depth_one(self, main_endo):
        # equals the partial sum Index_1 = 1 by the telescoping identity
        assert fredholm_index_truncated(path_map(main_endo), 1) == 1

    def test_identity(self, main_identity):
        for d in range(1, 5):
            assert fredholm_index_truncated(path_map(main_identity), d) == 0

    def test_telescopes_to_partial_sums(self, main_endo):
        psi = path_map(main_endo)
        table = length_transfer_enumerated(psi, 5 + propagation(main_endo))
        running = 0
        for d in range(1, 6):
            running += table.index_at(d)
            assert fredholm_index_truncated(psi, d) == running

    def test_square_at_depth_13(self, main_endo):
        # k + 2 * bound + 2 on E^2, past its series end 6
        assert fredholm_index_truncated(path_map(power(main_endo, 2)), 13) == 1

    def test_depth_must_be_positive(self, main_endo):
        with pytest.raises(ValueError):
            fredholm_index_truncated(path_map(main_endo), 0)

    def test_fifth_power_at_its_series_end(self, main_endo, monkeypatch):
        # E^5 at depth 17 is past what the landing walk reaches in a test;
        # the route reads neither the landing table nor a walk
        e5 = power(main_endo, 5)
        assert series_end(e5) == 17

        def refuse(*args):
            raise AssertionError("the Fredholm route filled a table or walked")

        monkeypatch.setattr(index_module, "landing_table", refuse)
        monkeypatch.setattr(index_module, "_table", refuse)
        monkeypatch.setattr(index_module, "walk", refuse)
        assert fredholm_index_truncated(path_map(e5), 17) == 1


class TestAgreementProperties:
    def test_counted_equals_enumerated_on_random_endos(self):
        rng = random.Random(97)
        matrices = [
            validate_matrix([[1, 1], [1, 1]]),
            validate_matrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]]),
        ]
        for matrix in matrices:
            for _ in range(3):
                e, _ = random_complete_graph_endomorphism(matrix, rng)
                enum = length_transfer_enumerated(path_map(e), e.k + 5)
                counted = length_transfer_counted(e, e.k + 5)
                assert counted.a == _restricted(enum.a, e.k + 5 - propagation(e))

    def test_inner_automorphism_all_routes_zero(self, main_matrix):
        rng = random.Random(101)
        e = random_inner_automorphism(main_matrix, rng)
        psi = path_map(e)
        series = index_series(psi)
        assert series.stabilized_value == 0
        assert index_series_counted(e).stabilized_value == 0
        bound = propagation(e)
        m = series.params["depth"]
        assert index_polynomial(e, m + e.k, max(bound, 1)) == 0
        assert fredholm_index_truncated(psi, m) == 0

    def test_invariance_under_representation_depth(self, main_endo):
        for depth in (3, 4):
            deeper = represent_at_depth(main_endo, depth)
            assert stabilized_index(deeper) == 1
            assert index_series(path_map(deeper)).stabilized_value == 1


def _reference_window_index_at(psi, k):
    """Index_k tallied over every word of lengths k - bound .. k + bound,
    the window the route walked before it read the landing walk."""
    bound = propagation(psi.endo)
    dom = 0
    im = 0
    for m in range(max(1, k - bound), k + bound + 1):
        for w in enumerate_paths(psi.matrix, m):
            r = psi.dot_apply(w)
            if r is not None:
                dom += m == k
                im += len(r) == k
    return im - dom


def _reference_window_gamma_parts(psi, m):
    """gamma_m's parts tallied over every word of lengths m - bound + 1 ..
    m + bound, the window the route walked before it read the landing walk."""
    bound = propagation(psi.endo)
    shrink = 0
    stretch = 0
    for length in range(max(1, m - bound + 1), m + bound + 1):
        for w in enumerate_paths(psi.matrix, length):
            r = psi.dot_apply(w)
            if r is None:
                continue
            if length > m and len(r) <= m:
                shrink += 1
            elif length <= m and len(r) > m:
                stretch += 1
    return shrink, stretch


class TestLandingWalk:
    """Index_k and gamma_parts read the landing table; the full windows
    they walked before are the reference."""

    @pytest.fixture(scope="class")
    def corpus(self, main_endo):
        """E, E^2, E re-presented at depth 3, the identity and an inner
        automorphism on each desk matrix, and complete-graph samples."""
        cases = [main_endo, power(main_endo, 2), represent_at_depth(main_endo, 3)]
        for seed, matrix in enumerate(small_matrices()):
            cases.append(identity_endomorphism(matrix))
            cases.append(random_inner_automorphism(matrix, random.Random(400 + seed)))
        rng = random.Random(411)
        for n in (2, 3):
            matrix = validate_matrix([[1] * n] * n)
            cases += [random_complete_graph_endomorphism(matrix, rng)[0] for _ in range(2)]
        return cases

    def test_index_at_equals_the_window(self, corpus):
        for e in corpus:
            psi = path_map(e)
            for k in range(1, series_end(e) + 3):
                want = _reference_window_index_at(psi, k)
                assert landing_table(psi, k).index_at(k) == want

    def test_gamma_parts_equal_the_window(self, corpus):
        for e in corpus:
            psi = path_map(e)
            for m in range(1, e.k + propagation(e) + 2):
                assert gamma_parts(psi, m) == _reference_window_gamma_parts(psi, m)

    def test_series_is_the_counted_series(self, corpus):
        for e in corpus:
            assert index_series(path_map(e)).per_k == index_series_counted(e).per_k

    def test_landing_table_is_the_restricted_full_table(self, corpus):
        # both tables count the domain words of length <= d and the longer
        # ones landing at or below d: the full table's cells with i <= d or
        # j <= d; in the forged strict root one nu is a proper prefix of
        # another
        for e in corpus + [_forged_colliding(), _forged_strict_root()]:
            psi = path_map(e)
            bound = propagation(e)
            end = series_end(e)
            for d in sorted({1, 2, e.k, end, end + 2} - {0}):
                want = _restricted(length_transfer_enumerated(psi, d + bound).a, d)
                assert landing_table(psi, d).a == want
                assert length_transfer_counted(e, d + bound).a == want
            # the two kernels give each class the same counts, to a length
            # past the longest y any table above asks for
            matrix = psi.matrix
            longest = end + 2 + bound
            for i in matrix.alphabet:
                for first in {common_followers(matrix, nu, mu) for nu, mu in e.raw_images[i - 1]}:
                    walked = _class_counts(matrix, first, i, longest)
                    assert _power_counts(matrix, first, i, longest) == walked
            # the oracle's images of each pair are the images of the words
            # that pair matches, of every length up to a depth past the
            # series end
            top = end + 2
            images = _images_by_pair(psi, top + bound)
            for i in psi.matrix.alphabet:
                for nu, mu in e.raw_images[i - 1]:
                    want = sorted(
                        r
                        for (j, n, m, _), rs in images.items()
                        if (j, n, m) == (i, nu, mu)
                        for r in rs
                        if 1 <= len(r) <= top
                    )
                    oracle = sorted(
                        r
                        for L in range(top - len(nu) + 1)
                        for r in pair_images(psi.matrix, i, nu, mu, L)
                        if r
                    )
                    assert oracle == want

    def test_collisions_equal_the_per_length_merge(self, corpus):
        # the landing table's images less the distinct images, against the
        # merge of whole runs length by length
        for e in corpus + [_forged_colliding(), _forged_strict_root()]:
            psi = path_map(e)
            for d in sorted({1, 2, e.k, series_end(e), series_end(e) + 2, 7} - {0}):
                assert _collisions(psi, d) == collisions_by_length(psi, d)

    def test_walk_evaluates_no_word(self, main_endo, monkeypatch):
        def refuse(self, w):
            raise AssertionError("the count walk called dot_apply")

        monkeypatch.setattr(PartialPathMap, "dot_apply", refuse)
        psi = path_map(power(main_endo, 2))
        assert sum(landing_table(psi, 7).a.values()) > 0
        # a nu of E^2 is a proper prefix of two others, so images are
        # counted past several pairs' nu
        assert max(_nu_extensions(psi.endo)) == 2
        assert _collisions(psi, 7) == 0

    def test_totals_are_guarded_past_the_cover(self, corpus):
        # the tables hold only the cells read at k <= d, so a total past d
        # would be partial: both tables refuse it, and agree up to it
        for e in corpus[:5] + [_forged_colliding()]:
            bound = propagation(e)
            for d in (1, series_end(e), series_end(e) + 2):
                tables = (landing_table(path_map(e), d), length_transfer_counted(e, d + bound))
                for table in tables:
                    for total in (table.dom_count, table.im_count, table.index_at):
                        with pytest.raises(InvalidParameter):
                            total(d + 1)
                walked, counted = tables
                for k in range(1, d + 1):
                    assert walked.dom_count(k) == counted.dom_count(k)
                    assert walked.im_count(k) == counted.im_count(k)

    def test_table_guards_gamma_past_its_cover(self, main_endo):
        # lengths up to 8 reach images up to the bound away, so gamma_m and
        # Index_k are only known for m, k <= 8 - bound
        for e, good in ((main_endo, 7), (power(main_endo, 2), 5)):
            table = length_transfer_counted(e, 8)
            assert table.gamma(good) == sum(table.index_at(k) for k in range(1, good + 1))
            for m in (good + 1, 8):
                with pytest.raises(InvalidParameter):
                    table.gamma(m)
                with pytest.raises(InvalidParameter):
                    table.index_at(m)


def _images_by_pair(psi, max_len):
    """dot_apply's images of the words of length <= max_len, sorted and keyed
    by (i, nu, mu, |w|) for the pair (nu, mu) of t_i that sends w there.

    That pair is the first of t_i whose mu begins w[:-1] and which turns
    the rest of w[:-1] into the image, which is the pair dot_apply picks: an
    earlier pair giving the same image would have passed dot_apply's test
    on nu's terminus, the image being allowable.
    """
    grouped = defaultdict(list)
    for m in range(2, max_len + 1):
        for w in enumerate_paths(psi.matrix, m):
            r = psi.dot_apply(w)
            if r is None:
                continue
            i, p = w[-1], w[:-1]
            nu, mu = next(
                (nu, mu)
                for nu, mu in psi.endo.raw_images[i - 1]
                if p[: len(mu)] == mu and r == nu + p[len(mu):]
            )
            grouped[(i, nu, mu, m)].append(r)
    return {key: sorted(images) for key, images in grouped.items()}


def _collisions(psi, d):
    """The images of lengths 1..d counted once more for each further domain
    word landing on them: the landing table's image counts less the
    distinct images."""
    table = landing_table(psi, d)
    distinct = _image_counts(psi.endo, d)
    return sum(table.im_count(j) - distinct[j] for j in range(1, d + 1))


def _nu_extensions(e):
    """For each pair, the number of other pairs whose nu extends its nu,
    an equal nu included."""
    nus = [nu for pairs in e.raw_images for nu, _ in pairs]
    return [sum(other[: len(nu)] == nu for other in nus) - 1 for nu in nus]


def _brute_fredholm_tally(psi, depth):
    """Domain counts and image sets from every word of lengths 1..depth+bound."""
    bound = propagation(psi.endo)
    dom = {j: 0 for j in range(1, depth + 1)}
    images = {j: set() for j in range(1, depth + 1)}
    for m in range(1, depth + bound + 1):
        for w in enumerate_paths(psi.matrix, m):
            r = psi.dot_apply(w)
            if r is None:
                continue
            if m <= depth:
                dom[m] += 1
            if 1 <= len(r) <= depth:
                images[len(r)].add(r)
    return dom, images


def _forged_colliding():
    """t_1 = t_2 = s_1 on the full 2-shift: not a valid presentation, built
    past the checks, whose two pairs have the same images."""
    matrix = validate_matrix([[1, 1], [1, 1]])
    return GeometricEndomorphism(matrix, ((((1,), ()),), (((1,), ()),)), 0, valid=True)


def _forged_strict_root():
    """t_1 = s_1 and t_2 = s_11 on the full 2-shift: not a valid
    presentation, built past the checks, whose pairs' images meet only
    under the longer nu."""
    matrix = validate_matrix([[1, 1], [1, 1]])
    return GeometricEndomorphism(matrix, ((((1,), ()),), (((1, 1), ()),)), 0, valid=True)


class TestFredholmPruning:
    """The Fredholm counts against the brute-force walk over all words."""

    @staticmethod
    def _check(e, depths):
        for depth in depths:
            psi = path_map(e)
            dom, images = _brute_fredholm_tally(psi, depth)
            table = landing_table(psi, depth)
            assert {j: table.dom_count(j) for j in dom} == dom
            assert _collisions(psi, depth) == sum(
                table.im_count(j) - len(images[j]) for j in images
            )
            assert _image_counts(e, depth) == [0] + [len(images[j]) for j in images]
            assert _domain_counts(e, depth) == [0] + [dom[j] for j in dom]
            expected = sum(len(images[j]) - dom[j] for j in dom)
            assert fredholm_index_truncated(psi, depth) == expected

    def test_main_example(self, main_endo):
        # (2,) is a proper prefix of (2,3,2) and (2,3,3), and no nu of any
        # other pair, so images past several pairs' nu are counted
        assert max(_nu_extensions(main_endo)) == 2
        # depth 1 lies below the largest |mu| = 2
        self._check(main_endo, range(1, 7))

    def test_main_example_squared(self, main_endo):
        e2 = power(main_endo, 2)
        assert max(len(mu) for pairs in e2.raw_images for _, mu in pairs) == 4
        self._check(e2, (2, 4, 7, 10))

    def test_complete_graph_sample(self):
        matrix = validate_matrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
        e, _ = random_complete_graph_endomorphism(matrix, random.Random(11))
        self._check(e, (1, e.k + 1, e.k + 4))

    def test_inner_automorphism(self, main_matrix):
        e = random_inner_automorphism(main_matrix, random.Random(12))
        self._check(e, (1, e.k + 1, e.k + 4))

    def test_colliding_images_are_counted_once(self):
        # both pairs send y + (i,) to (1,) + y, so at each length m >= 2 the
        # domain holds 2^m words and the image 2^(m - 1)
        forged = _forged_colliding()
        depth = 7
        psi = path_map(forged)
        table = landing_table(psi, depth)
        assert [table.dom_count(m) for m in range(1, depth + 1)] == [
            2**m if m >= 2 else 0 for m in range(1, depth + 1)
        ]
        # the table counts each image once per domain word, twice here, and
        # the collisions are the second counts: the sum of 2^(m - 1), m = 2..7
        assert [table.im_count(m) for m in range(1, depth + 1)] == [
            2**m if m >= 2 else 0 for m in range(1, depth + 1)
        ]
        assert _collisions(psi, depth) == sum(2 ** (m - 1) for m in range(2, depth + 1)) == 126
        assert _image_counts(forged, depth) == [0, 0] + [2 ** (m - 1) for m in range(2, depth + 1)]
        self._check(forged, (1, 3, depth))

    def test_collision_under_a_strict_root(self):
        # t_2's images (1, 1) + y are t_1's images (1,) + (1,) + y, so at
        # each length m >= 3 the 2^(m - 2) images of t_2 collide
        forged = _forged_strict_root()
        # t_1's nu (1,) is a proper prefix of t_2's nu (1, 1)
        assert [pairs[0][0] for pairs in forged.raw_images] == [(1,), (1, 1)]
        psi = path_map(forged)
        depths = (1, 2, 3, 5, 7)
        assert [_collisions(psi, d) for d in depths] == [0, 0, 2, 14, 62]
        self._check(forged, depths)

    def test_visits_fewer_words(self, main_endo, monkeypatch):
        # the route counts its images over the nu-prefixes and its domain
        # words over the mu-prefixes, and the words past them by path
        # counts, so it starts no walk and fills no table: on the reduced
        # E^2, where a nu is a proper prefix of two others, and on the
        # unreduced E^2, its pairs multiplied out word by word, where no nu
        # is a prefix of another
        e2 = power(main_endo, 2)
        assert max(_nu_extensions(e2)) == 2
        unreduced = build_endomorphism(main_endo.matrix, compose_word_by_word(main_endo, main_endo))
        assert unreduced.valid
        assert max(_nu_extensions(unreduced)) == 0
        # no image collides, so the route gives the partial sums of the
        # series, which differ between the two presentations at short depths
        cases = [
            (e, [length_transfer_counted(e, d + propagation(e)).gamma(d) for d in (2, 8)])
            for e in (e2, unreduced)
        ]
        started = []
        walk, table = index_module.walk, index_module._table

        def recording_walk(*args):
            started.append("walk")
            return walk(*args)

        def recording_table(*args):
            started.append("_table")
            return table(*args)

        monkeypatch.setattr(index_module, "walk", recording_walk)
        monkeypatch.setattr(index_module, "_table", recording_table)
        for e, partial in cases:
            assert [fredholm_index_truncated(path_map(e), d) for d in (2, 8)] == partial
        assert started == []

    def test_memory_does_not_grow_with_the_words(self, main_endo):
        # a set of E^2's images up to length 12 takes about 9 MiB; the route
        # walks no word and holds the nu- or mu-prefixes and one column
        psi = path_map(power(main_endo, 2))
        tracemalloc.start()
        try:
            fredholm_index_truncated(psi, 12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestPairCounts:
    """The class counts against the number of each of its pairs' images
    (``pair_images``) at each length, at the short lengths where the walk has
    few or no heads and at the lengths the tables ask for."""

    @staticmethod
    def _check(e):
        matrix = e.matrix
        end = series_end(e)
        checked = 0
        for i in matrix.alphabet:
            for nu, mu in e.raw_images[i - 1]:
                # depths where the pair's first word or image lands, where
                # both do, and the series end and past it
                depths = {len(nu), len(mu) + 1, len(nu) + 1, len(mu) + 2}
                depths |= {max(len(nu), len(mu) + 1), end, end + propagation(e)}
                longest = {d - min(len(mu) + 1, len(nu)) for d in depths} | {-2, -1, 0, 1, 2}
                first = common_followers(matrix, nu, mu)
                for top in sorted(longest):
                    counts = _class_counts(matrix, first, i, top)
                    want = [len(list(pair_images(matrix, i, nu, mu, L))) for L in range(1, top + 1)]
                    # counts[0] is 0, and a negative top has no counts
                    assert counts == [0] * (top >= 0) + want
                    checked += top >= 2 and sum(counts[2:]) > 0
        assert checked  # some walk had heads to visit

    def test_main_example(self, main_endo):
        self._check(main_endo)

    def test_main_example_squared(self, main_endo):
        self._check(power(main_endo, 2))

    def test_identity(self, main_identity):
        assert all(mu == () for pairs in main_identity.raw_images for _, mu in pairs)
        self._check(main_identity)

    def test_inner_automorphism(self, main_matrix):
        self._check(random_inner_automorphism(main_matrix, random.Random(13)))

    def test_complete_graph_sample(self):
        matrix = validate_matrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
        self._check(random_complete_graph_endomorphism(matrix, random.Random(14))[0])

    def test_colliding_presentation(self):
        self._check(_forged_colliding())


class TestImageCounts:
    """The distinct images by length, without a word set."""

    def test_equal_the_brute_force_image_sets(self, compose_cases):
        cases = [e for triple in compose_cases for e in (triple[0], triple[2])]
        cases += [_q_endo(), _forged_colliding(), _forged_strict_root()]
        checked = 0
        for e in cases:
            bound = propagation(e)
            for depth in range(1, 6):
                if _words_up_to(e.matrix, depth + bound) > 20000:
                    break
                _, images = _brute_fredholm_tally(path_map(e), depth)
                assert _image_counts(e, depth) == [0] + [len(images[j]) for j in images]
                checked += 1
        assert checked >= 250

    @pytest.mark.parametrize("n, depth", [(3, 21), (4, 33)])
    def test_deep_powers_count_without_walking(self, main_endo, monkeypatch, n, depth):
        # E^3 at depth 21 and E^4 at depth 33 are far past what a walk over
        # the images can reach; no two pairs share a nu, so no two domain
        # words share an image, and the distinct images are the counted
        # table's images
        e = power(main_endo, n)
        nus = [nu for pairs in e.raw_images for nu, _ in pairs]
        assert len(set(nus)) == len(nus)

        def refuse(*args):
            raise AssertionError("the image count walked or evaluated a word")

        monkeypatch.setattr(index_module, "walk", refuse)
        monkeypatch.setattr(PartialPathMap, "dot_apply", refuse)
        counts = _image_counts(e, depth)
        table = length_transfer_counted(e, depth + propagation(e))
        assert counts == [0] + [table.im_count(j) for j in range(1, depth + 1)]


class TestDomainCounts:
    """The domain words by length, counted over the mu-prefixes, against
    the landing table's per-pair count."""

    @pytest.fixture(scope="class")
    def corpus(self, main_endo):
        """E^1 .. E^5; the identity and seeded inner automorphisms of depths
        1 and 2 over E's matrix, Q, J, the full 2-shift and K_3;
        complete-graph samples over n = 2 and 3 with their squares; the Q
        document; and both forged presentations."""
        cases = [power(main_endo, n) for n in range(1, 6)]
        rows = (main_endo.matrix.rows, Q_ROWS, J_ROWS, ((1, 1), (1, 1)), ((1, 1, 1),) * 3)
        for seed, matrix in enumerate(map(validate_matrix, rows)):
            cases.append(identity_endomorphism(matrix))
            for depth in (1, 2):
                cases.append(random_inner_automorphism(matrix, random.Random(500 + seed), depth))
        rng = random.Random(511)
        for n in (2, 3):
            matrix = validate_matrix([[1] * n] * n)
            for _ in range(2):
                e, _ = random_complete_graph_endomorphism(matrix, rng)
                cases += [e, power(e, 2)]
        return cases + [_q_endo(), _forged_colliding(), _forged_strict_root()]

    def test_equal_the_landing_table(self, corpus):
        for e in corpus:
            psi = path_map(e)
            for depth in range(1, 9):
                table = landing_table(psi, depth)
                want = [0] + [table.dom_count(j) for j in range(1, depth + 1)]
                assert _domain_counts(e, depth) == want

    def test_a_generator_reached_twice_counts_once(self):
        # t_1 = s_1 s_1* + s_1 s_11* on the full 2-shift breaks the mu-rule,
        # built past the checks: the words 1 1 y 1, |y| = 1, are domain
        # words of both pairs, which the table counts twice and the pass,
        # one generator reached twice, once
        matrix = validate_matrix([[1, 1], [1, 1]])
        pairs = ((((1,), (1,)), ((1,), (1, 1))), (((2,), ()),))
        forged = GeometricEndomorphism(matrix, pairs, 2, valid=True)
        table = landing_table(path_map(forged), 4)
        counts = _domain_counts(forged, 4)
        assert [table.dom_count(j) - counts[j] for j in range(1, 5)] == [0, 0, 0, 2]


# ---------------------------------------------------------------------------
# The series end: Index_k = 0 for every k >= K_0 = series_end + 1.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def end_corpus(main_endo):
    """E^1 .. E^6, E re-presented at depths 3 to 5, the identity and an inner
    automorphism on each desk matrix, and complete-graph samples."""
    cases = [power(main_endo, n) for n in range(1, 7)]
    cases += [represent_at_depth(main_endo, d) for d in (3, 4, 5)]
    for seed, matrix in enumerate(small_matrices()):
        cases.append(identity_endomorphism(matrix))
        cases.append(random_inner_automorphism(matrix, random.Random(300 + seed)))
    rng = random.Random(311)
    for n in (2, 3):
        matrix = validate_matrix([[1] * n] * n)
        cases += [random_complete_graph_endomorphism(matrix, rng)[0] for _ in range(4)]
    return cases


def _words_up_to(matrix, length):
    # the words of length m are the sum of the entries of A^(m - 1)
    return sum(sum(map(sum, power)) for power in matrix_powers(matrix, length - 1))


def _reference_window_scan(e):
    """The stopping rule the series end replaced, kept as the reference.

    Sum Index_k of the counted table until Index_k = 0 for bound + 2
    consecutive k at or above the least length at which a domain or image
    word can exist, with k >= 3, scanning to depth k + 3 * bound + 12.
    Returns the per-k values and the depth where the window was met.
    """
    bound = propagation(e)
    max_depth = e.k + 3 * bound + 12
    table = length_transfer_counted(e, max_depth + bound)
    floor = max(
        1,
        min(
            min(max(len(mu) + 1, 2), max(len(nu), 1))
            for pairs in e.raw_images
            for nu, mu in pairs
        ),
    )
    per_k = {}
    zeros = 0
    for k in range(1, max_depth + 1):
        per_k[k] = table.index_at(k)
        if k >= floor:
            zeros = zeros + 1 if per_k[k] == 0 else 0
        if zeros >= bound + 2 and k >= 3:
            return per_k, k
    raise AssertionError("the reference window was not met")


class TestSeriesEnd:
    def test_end_of_main_example(self, main_endo, main_identity):
        # the pair (2,3,3) <- (2,3) gives max(|mu| + 2, |nu| + 1) = 4
        assert series_end(main_endo) == 3
        assert series_end(main_identity) == 1
        report = index_series_counted(main_endo)
        assert report.params["depth"] == 3
        assert sorted(report.per_k) == [1, 2, 3]
        assert list(accumulate(report.per_k.values())) == [1, 1, 1]

    def test_counted_index_vanishes_past_the_end(self, end_corpus):
        for e in end_corpus:
            k0 = series_end(e) + 1
            table = length_transfer_counted(e, k0 + 30 + propagation(e))
            assert all(table.index_at(k) == 0 for k in range(k0, k0 + 31))

    def test_enumerated_index_vanishes_past_the_end(self, end_corpus):
        checked = 0
        for e in end_corpus:
            k0 = series_end(e) + 1
            bound = propagation(e)
            top = k0 + 30
            while top >= k0 and _words_up_to(e.matrix, top + bound) > 20000:
                top -= 1
            if top < k0:
                continue
            table = length_transfer_enumerated(path_map(e), top + bound)
            assert all(table.index_at(k) == 0 for k in range(k0, top + 1))
            checked += 1
        assert checked >= 20

    def test_same_value_as_the_window_scan(self, end_corpus):
        for e in end_corpus:
            ref_per_k, ref_depth = _reference_window_scan(e)
            counted = index_series_counted(e)
            end = counted.params["depth"]
            # the end never lies past the old scan depth, and the terms up
            # to the end are the old ones; the old ones beyond it are zero
            assert end <= ref_depth
            assert counted.per_k == {k: ref_per_k[k] for k in range(1, end + 1)}
            assert all(ref_per_k[k] == 0 for k in range(end + 1, ref_depth + 1))
            assert counted.stabilized_value == sum(ref_per_k.values())
            if _words_up_to(e.matrix, end + propagation(e)) <= 20000:
                series = index_series(path_map(e))
                assert series.per_k == counted.per_k
                assert series.params == counted.params


class TestTablesCoverADepth:
    """A table stores the depth it covers, and a report keeps the fields
    that the package, the CLI and the benchmark read."""

    @pytest.fixture(scope="class")
    def cases(self, main_endo, main_identity):
        return [main_endo, power(main_endo, 2), main_identity, _q_endo()]

    def test_fields(self):
        assert [f.name for f in fields(LengthTransfer) if f.init] == ["a", "depth"]
        assert [f.name for f in fields(IndexReport)] == ["per_k", "stabilized_value", "params"]

    def test_landing_table_stores_its_depth(self, cases):
        for e in cases:
            for d in sorted({1, series_end(e), series_end(e) + 2}):
                assert landing_table(path_map(e), d).depth == d

    def test_counted_table_covers_its_length_less_the_bound(self, cases):
        for e in cases:
            bound = propagation(e)
            for length in range(bound + 1, series_end(e) + bound + 3):
                assert length_transfer_counted(e, length).depth == length - bound

    def test_report_params_hold_the_series_end(self, cases):
        for e in cases:
            want = {"depth": series_end(e)}
            assert index_series_counted(e).params == want
            assert index_series(path_map(e)).params == want


# A valid presentation over Q whose path map is not injective: t2 holds
# (2,1,4) <- (1) and (2,1,4) <- (2), whose range cylinders (2,1,4,4) and
# (2,1,4,1) are disjoint, and both own words (1,2) and (2,2) land on (2,1,4).
Q_COLLIDING_DOCUMENT = """\
n = 4
A = 0111 1100 1010 1001

[t1]
1,2 <- 2,2
1,4,4 <- 4
1,4,1 <- 2,1
1,3 <- 3

[t2]
2,1,3 <- 1,3
2,1,4 <- 1
2,1,4 <- 2
2,1,2 <- 1,2

[t3]
4,4,1 <- 1
4,4,4 <- 4,4
4,1 <- 4,1

[t4]
3 <- 3
2,2,2 <- 2,2
2,2,1 <- 1
"""


def _q_endo():
    return parse_document(Q_COLLIDING_DOCUMENT).build("t")


class TestValidPresentationThatCollides:
    """Validity does not make the path map injective; the routes' values on
    such a presentation are pinned as they stand."""

    def test_two_words_land_on_one(self):
        e = _q_endo()
        assert e.matrix.rows == Q_ROWS
        assert e.valid
        psi = path_map(e)
        assert psi.dot_apply((1, 2)) == psi.dot_apply((2, 2)) == (2, 1, 4)
        assert _collisions(psi, 3) == 1

    def test_represented_at_depth_two_it_does_not_collide(self):
        deeper = represent_at_depth(_q_endo(), 2)
        assert deeper.valid
        psi = path_map(deeper)
        assert not any(_collisions(psi, d) for d in range(1, series_end(deeper) + 3))

    def test_fredholm_differs_from_the_other_routes(self):
        e = _q_endo()
        psi = path_map(e)
        end = series_end(e)
        assert end == 3
        assert index_series_counted(e).stabilized_value == 0
        assert gamma(psi, end) == 0
        assert index_polynomial(e, 1 + propagation(e) + e.k, propagation(e)) == 0
        assert [fredholm_index_truncated(psi, d) for d in range(3, 7)] == [-1] * 4
        out, code = run(["--structured", "index", "-"], stdin_text=Q_COLLIDING_DOCUMENT)
        assert code == 0
        report = parse_structured(out)
        values = [report[f"{route}.value"] for route in ("series", "gamma", "polynomial")]
        assert values == [0, 0, 0]
        assert report["fredholm.value"] == -1
