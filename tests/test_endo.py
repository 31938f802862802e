import random
import re

import pytest

from cklef import endo as endo_module
from cklef.endo import (
    GeometricEndomorphism,
    build_endomorphism,
    compose,
    dot_apply,
    identity_endomorphism,
    path_map,
    power,
    powers,
    represent_at_depth,
)
from cklef.index import index_series_counted
from cklef.ktheory import induced_k0, k0_reduce
from cklef.errors import (
    CkError,
    DepthTooSmall,
    DuplicateMuAfterNormalization,
    InvalidEndomorphism,
    InvalidParameter,
    UnallowableWord,
    ZeroMonomialPair,
)
from cklef.sampling import random_complete_graph_endomorphism, random_inner_automorphism
from cklef.sft_core import enumerate_paths, is_allowable, terminus, validate_matrix
from tests.conftest import Q_ROWS, seeded_matrix, small_matrices
from tests.oracles import (
    add,
    adjoint,
    apply,
    ck_checks_canonical,
    compose_word_by_word,
    element,
    equals,
    generator_equal,
    image_element,
    is_partial_isometry,
    monomial,
    monomial_is_zero,
    multiply,
    normalize,
    reduce_pairs,
    scale,
    support,
    unit,
    zero,
)


class TestValidation:
    def test_main_presentation_valid(self, main_endo):
        assert main_endo.valid
        assert main_endo.k == 2

    def test_identity_valid_everywhere(self):
        for matrix in small_matrices():
            e = identity_endomorphism(matrix)
            assert e.valid and e.k == 0

    def test_invalid_presentation_flagged(self, main_matrix):
        # s_1 -> s_1 s_2* breaks the range-sum relation
        pairs = [[((1,), (2,))], [((2,), ())], [((3,), ())]]
        e = build_endomorphism(main_matrix, pairs)
        assert not e.valid
        with pytest.raises(InvalidEndomorphism):
            e.require_valid()

    def test_zero_monomial_pair_rejected(self):
        m = validate_matrix([[0, 1], [1, 0]])
        # fol(1) = {2} and fol(2) = {1} are disjoint, so s_1 s_2* = 0
        with pytest.raises(ZeroMonomialPair):
            build_endomorphism(m, [[((1,), (2,))], [((2,), ())]])

    def test_duplicate_mu_after_normalization(self, main_matrix):
        # mu = () expands to mu = (1,) at depth 1, colliding with the second pair
        pairs = [
            [((1,), ()), ((2,), (1,))],
            [((2,), ())],
            [((3,), ())],
        ]
        with pytest.raises(DuplicateMuAfterNormalization):
            build_endomorphism(main_matrix, pairs)

    def test_collision_named_between_the_two_longest(self, main_matrix):
        # mu-words e < 3 < 32: 3 cannot follow 1, so e overlaps neither, and
        # 2 may follow 2, so 3 and 32 collide
        pairs = [
            [((1,), ()), ((2,), (3,)), ((3,), (3, 2))],
            [((2,), ())],
            [((3,), ())],
        ]
        with pytest.raises(
            DuplicateMuAfterNormalization, match=r"generator 1: mu-words \(3,\) and \(3, 2\) "
        ):
            build_endomorphism(main_matrix, pairs)

    def test_two_generators_on_one_range_invalid(self):
        # the two range cylinders 1 hold as many words as the space, so only
        # the test that sorted neighbours do not overlap refuses them
        m = validate_matrix([[1, 1], [1, 1]])
        e = build_endomorphism(m, [[((1,), ())], [((1,), ())]])
        assert not e.valid
        assert ck_checks_canonical(e) is False

    def test_swapped_generators_invalid(self, main_endo):
        # the ranges still partition the space, but t_2's sources do not make
        # up the ranges A allows after 2
        t = main_endo.raw_images
        e = build_endomorphism(main_endo.matrix, [t[0], t[2], t[1]])
        assert not e.valid
        assert ck_checks_canonical(e) is False


class TestApply:
    def test_apply_generator_gives_image(self, main_endo, main_matrix):
        for i in main_matrix.alphabet:
            assert equals(
                apply(main_endo, monomial(main_matrix, (i,), ())),
                image_element(main_endo, i),
            )

    def test_apply_word(self, main_endo, main_matrix):
        # t(s_33 s_3*) = t_3 t_3 t_3* = s_333 s_33* using t_3 = s_33 s_3*
        got = apply(main_endo, monomial(main_matrix, (3, 3), (3,)))
        assert equals(got, monomial(main_matrix, (3, 3, 3), (3, 3)))

    def test_identity_apply_fixes_everything(self, main_matrix, main_identity):
        rng = random.Random(7)
        for _ in range(10):
            words = enumerate_paths(main_matrix, 2)
            nu = rng.choice(words)
            mu = rng.choice(words)
            x = element(main_matrix, [(nu, mu, 1)])
            assert equals(apply(main_identity, x), x)

    def test_coefficients_scale_the_term_images(self, main_endo, main_matrix):
        x = element(main_matrix, [((1, 2), (2,), 2), ((3,), (2, 3), -3)])
        expected = zero(main_matrix)
        for (nu, mu), c in x.terms.items():
            expected = add(expected, scale(apply(main_endo, monomial(main_matrix, nu, mu)), c))
        assert equals(apply(main_endo, x), expected)


class TestCompose:
    def test_identity_neutral(self, main_endo, main_identity):
        assert generator_equal(compose(main_identity, main_endo), main_endo)
        assert generator_equal(compose(main_endo, main_identity), main_endo)

    def test_functoriality_on_elements(self, main_endo, main_matrix):
        square = compose(main_endo, main_endo)
        for i in main_matrix.alphabet:
            x = monomial(main_matrix, (i,), ())
            assert equals(apply(square, x), apply(main_endo, apply(main_endo, x)))

    def test_power_matches_repeated_compose(self, main_endo):
        assert generator_equal(
            power(main_endo, 3), compose(main_endo, compose(main_endo, main_endo))
        )

    def test_power_depth_grows(self, main_endo):
        assert power(main_endo, 2).k == 4

    def test_power_requires_positive(self, main_endo):
        with pytest.raises(ValueError):
            power(main_endo, 0)

    def test_invalid_factor_rejected(self, main_matrix, main_identity):
        bad = build_endomorphism(
            main_matrix, [[((1,), (2,))], [((2,), ())], [((3,), ())]]
        )
        with pytest.raises(InvalidEndomorphism):
            compose(bad, main_identity)

    def test_repeated_monomial_in_a_composite_rejected(self, main_endo, main_matrix):
        # a forged presentation that repeats one pair gives t_1 = 2 s_1, so
        # the composite's image of generator 1 has coefficient 2
        forged = GeometricEndomorphism(
            matrix=main_matrix,
            raw_images=((((1,), ()), ((1,), ())), (((2,), ()),), (((3,), ()),)),
            k=0,
            valid=True,
        )
        with pytest.raises(InvalidEndomorphism, match="generator 1 is not a sum of distinct"):
            compose(main_endo, forged)

    def test_overlap_in_a_composite_is_not_merged_away(self, main_matrix, main_identity):
        # a forged t_1 = s_1 + s_11 s_1* + s_12 s_2* = 2 s_1 holds (1,) <- e
        # and both its siblings; merging them would hide the overlap and
        # leave the valid-looking t_1 = s_1
        forged = GeometricEndomorphism(
            matrix=main_matrix,
            raw_images=(
                (((1,), ()), ((1, 1), (1,)), ((1, 2), (2,))),
                (((2,), ()),),
                (((3,), ()),),
            ),
            k=1,
            valid=True,
        )
        with pytest.raises(DuplicateMuAfterNormalization):
            compose(main_identity, forged)

    def test_square_with_merges_onto_one_mu(self, blocked_square):
        # in t_2 of the square, the sibling families under (2, 5) and (5, 1)
        # would both merge to mu = (3,); their followers are disjoint, but
        # the merged pairs would repeat a mu-word, so neither merge is made
        e, unreduced = blocked_square
        assert e.valid
        square = compose(e, e)
        assert square.valid and sum(map(len, square.raw_images)) == 28
        assert ((2, 5, 1), (3, 1)) in square.raw_images[1]
        assert unreduced.valid and sum(map(len, unreduced.raw_images)) == 192
        assert generator_equal(square, unreduced)
        chain = e
        for n in range(1, 5):
            assert power(e, n).raw_images == chain.raw_images
            chain = compose(e, chain)


class TestComposeAgainstWordByWord:
    def test_same_pairs_as_word_by_word(self, compose_cases, unreduced_composites):
        assert len(compose_cases) == 7 + 14 + 8
        for (e, _, composite), unreduced in zip(compose_cases, unreduced_composites):
            assert composite.valid
            assert tuple((pairs, False) for pairs in composite.raw_images) == tuple(
                reduce_pairs(e.matrix, pairs) for pairs in unreduced.raw_images
            )

    def test_inner_square_on_twelve_letters(self):
        # the images of a depth-2 inner automorphism on a seeded 12-letter
        # matrix hold hundreds of pairs, of which the pair product reads
        # only those each mu-word meets
        rng = random.Random(12)
        matrix = seeded_matrix(12, rng)
        u = random_inner_automorphism(matrix, rng, depth=2)
        square = compose(u, u)
        assert square.valid and sum(map(len, u.raw_images)) > 400
        assert tuple((pairs, False) for pairs in square.raw_images) == tuple(
            reduce_pairs(matrix, pairs) for pairs in compose_word_by_word(u, u)
        )

    def test_each_prefix_multiplied_once(self, main_endo, monkeypatch):
        f = power(main_endo, 7)
        letters, products, checks = [], [], []
        pair_product = endo_module._pair_product
        ck_checks = endo_module._ck_checks

        class CountedImages(tuple):
            def __getitem__(self, index):
                letters.append(index)
                return tuple.__getitem__(self, index)

        def counted_product(matrix, xs, ys):
            products.append(None)
            return pair_product(matrix, xs, ys)

        def counted_checks(matrix, raws, sources):
            checks.append(tuple(raws))
            return ck_checks(matrix, raws, sources)

        monkeypatch.setattr(endo_module, "_pair_product", counted_product)
        monkeypatch.setattr(endo_module, "_ck_checks", counted_checks)
        # the letter images are read from e's pair lists, so count the reads
        counted = GeometricEndomorphism(
            matrix=main_endo.matrix,
            raw_images=CountedImages(main_endo.raw_images),
            k=main_endo.k,
            valid=main_endo.valid,
        )
        composite = compose(counted, f)
        prefixes = {
            w[:n]
            for pairs in f.raw_images
            for pair in pairs
            for w in pair
            for n in range(1, len(w) + 1)
        }
        terms = sum(len(pairs) for pairs in f.raw_images)
        assert 0 < len(letters) <= main_endo.matrix.n
        assert len(products) <= len(prefixes) + terms
        # the composite still goes through the full validity check
        assert checks == [composite.raw_images] and composite.valid
        # the memo belonged to the call: nothing was left on either factor
        assert set(vars(counted)) == set(vars(f)) == {"matrix", "raw_images", "k", "valid"}


@pytest.fixture(scope="module")
def blocked_square():
    """A depth-2 inner automorphism on a 5 x 5 matrix, and its square as the
    word-by-word pair list, in which t_2 and t_5 have merges onto a taken
    mu-word."""
    m = validate_matrix(
        [[0, 1, 1, 0, 0], [1, 1, 0, 1, 1], [1, 1, 0, 0, 0], [0, 0, 1, 0, 0], [1, 0, 0, 1, 1]]
    )
    e = random_inner_automorphism(m, random.Random(15), depth=2)
    return e, build_endomorphism(m, compose_word_by_word(e, e))


def _reduced(a):
    """``a`` with every generator's pairs reduced by the package."""
    return build_endomorphism(
        a.matrix, [endo_module._reduce(a.matrix, pairs) for pairs in a.raw_images]
    )


@pytest.fixture(scope="module")
def unreduced_composites(compose_cases):
    """The composites of ``compose_cases`` as the word-by-word pair lists,
    before any merge."""
    return [
        build_endomorphism(e.matrix, compose_word_by_word(e, f)) for e, f, _ in compose_cases
    ]


@pytest.fixture(scope="module")
def given_presentations(main_endo, compose_cases):
    """E .. E^8 from ``power``, the composites of ``compose_cases``, and seeded
    inner automorphisms and complete-graph samples as the sampler gives them."""
    corpus = [power(main_endo, n) for n in range(1, 9)]
    corpus += [composite for _, _, composite in compose_cases]
    rng = random.Random(31)
    for matrix in small_matrices():
        corpus.append(random_inner_automorphism(matrix, rng))
    for n in (2, 3):
        matrix = validate_matrix([[1] * n for _ in range(n)])
        corpus += [random_complete_graph_endomorphism(matrix, rng)[0] for _ in range(3)]
    return corpus


def _k0_map(a):
    """The descended K_0 map, and the K_0 class of each alpha_*(e_i); the
    Z^n vectors themselves depend on the presentation."""
    ind = induced_k0(a)
    columns = zip(*ind.on_generators)
    classes = [k0_reduce(ind.ktheory, v) for v in columns]
    return ind.free_part, [(c.torsion, c.free) for c in classes]


def _shallow(a):
    """Whether ``a`` is cheap to normalize, as generator_equal and
    represent_at_depth do: that multiplies the pairs by about
    2.4^(depth - |mu|) on E's matrix, so at depth k + 2 E^3 (k = 7) has
    6 825 pairs and E^4 (k = 11) 229 879."""
    return a.k <= 7


class TestReducedForm:
    def test_merge_order_does_not_matter(
        self, given_presentations, unreduced_composites, blocked_square
    ):
        rng = random.Random(5)
        deeper = [represent_at_depth(a, a.k + 1) for a in given_presentations if a.k <= 4]
        # unreduced E^8 (896 pairs) takes the oracle about a second per order
        corpus = [
            a
            for a in given_presentations + unreduced_composites + deeper + [blocked_square[1]]
            if sum(map(len, a.raw_images)) <= 500
        ]
        assert len(corpus) > 60
        blocked = {}  # the presentations with a blocked merge, and those generators
        for a in corpus:
            for i, pairs in enumerate(a.raw_images, 1):
                reduced = tuple(endo_module._reduce(a.matrix, pairs))
                orders = [reduce_pairs(a.matrix, pairs)]
                orders += [reduce_pairs(a.matrix, pairs, rng) for _ in range(2)]
                if any(was_blocked for _, was_blocked in orders):
                    blocked.setdefault(id(a), (a, []))[1].append(i)
                else:
                    assert all(result == reduced for result, _ in orders)
                # no merge, made in any order, repeats a mu-word
                for result in [reduced] + [result for result, _ in orders]:
                    mus = [mu for _, mu in result]
                    assert len(set(mus)) == len(mus)
        # one at a time, a blocked merge can make the order matter, so there
        # the package's reduction is checked against the presentation itself
        assert blocked[id(blocked_square[1])][1] == [2, 5]
        for a, _ in blocked.values():
            reduced = _reduced(a)
            assert reduced.valid and generator_equal(reduced, a)

    def test_undoes_represent_at_depth(self, given_presentations):
        shallow = [a for a in given_presentations if _shallow(a)]
        assert len(shallow) > len(given_presentations) / 2
        for a in shallow:
            deeper = represent_at_depth(a, a.k + 2)
            assert _reduced(deeper).raw_images == _reduced(a).raw_images

    def test_reduced_composite_is_the_unreduced_one(self, compose_cases, unreduced_composites):
        for (_, _, composite), unreduced in zip(compose_cases, unreduced_composites):
            assert unreduced.valid
            if _shallow(unreduced):
                assert generator_equal(composite, unreduced)

    def test_index_and_k0_unchanged(self, given_presentations, unreduced_composites):
        corpus = given_presentations + unreduced_composites
        for a in corpus:
            r = _reduced(a)
            assert r.valid
            assert sum(map(len, r.raw_images)) <= sum(map(len, a.raw_images))
            assert (
                index_series_counted(r).stabilized_value
                == index_series_counted(a).stabilized_value
            )
            assert _k0_map(r) == _k0_map(a)
        assert all(generator_equal(_reduced(a), a) for a in corpus if _shallow(a))

    def test_pair_counts_of_the_powers(self, main_endo):
        counts = [sum(map(len, power(main_endo, n).raw_images)) for n in range(1, 9)]
        assert counts == [7, 12, 24, 48, 96, 192, 384, 768]
        # E as given is not reduced: (1,1) <- (2,1) and (1,2) <- (2,2) merge
        assert sum(map(len, _reduced(main_endo).raw_images)) == 6


def _halvings(n):
    """The exponents that halving n reaches: n, and those of ceil(n/2) and
    floor(n/2) when n > 1."""
    return {n} | (_halvings(n - n // 2) | _halvings(n // 2) if n > 1 else set())


class TestPowerBySquaring:
    """``power`` on the halving ladder: e^k is composed from e^ceil(k/2)
    and e^floor(k/2), a square when k is even."""

    @pytest.fixture(scope="class")
    def bases(self, main_endo, compose_cases):
        # E, a seeded inner automorphism on E's matrix, and a complete-graph
        # sample at n = 2
        inner = compose_cases[7][0]
        sample = compose_cases[21][0]
        assert inner.matrix == main_endo.matrix and sample.matrix.n == 2
        return [main_endo, inner, sample]

    def test_same_presentation_as_the_chain(self, bases):
        for e in bases:
            chain = e
            for n in range(1, 10):
                assert power(e, n).raw_images == chain.raw_images
                chain = compose(e, chain)

    def test_power_one_is_the_input(self, main_endo):
        assert power(main_endo, 1) is main_endo

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_refuses_an_invalid_presentation(self, main_matrix, n):
        # t_2 and t_3 share the range 2, so e fails the checks; e^1 is
        # refused like every higher power, not returned as given
        e = build_endomorphism(main_matrix, [[((1,), ())], [((2,), ())], [((2,), ())]])
        assert not e.valid
        with pytest.raises(InvalidEndomorphism):
            power(e, n)
        with pytest.raises(InvalidEndomorphism):
            next(powers(e, n))

    @pytest.mark.parametrize(
        "n, calls", [(1, 0), (2, 1), (6, 3), (7, 4), (8, 3), (9, 5), (13, 6)]
    )
    def test_compose_calls(self, bases, monkeypatch, n, calls):
        # one compose per exponent above 1 that halving n reaches, each on
        # its balanced halves; the inner automorphism keeps e^13 small
        e = bases[1]
        made = {1: e}
        compose_ = endo_module.compose

        def counted(f, g):
            k = next(k for k in sorted(_halvings(n)) if k not in made)
            assert f is made[k - k // 2] and g is made[k // 2]
            made[k] = compose_(f, g)
            return made[k]

        monkeypatch.setattr(endo_module, "compose", counted)
        assert power(e, n) is made[n]
        assert len(made) - 1 == calls == len(_halvings(n)) - 1

    @pytest.mark.parametrize("n", [0, -1, 2.0, 1.0, 2.5, True, "3", None])
    def test_refuses_an_exponent_that_is_not_a_positive_int(self, main_endo, n):
        with pytest.raises(InvalidParameter):
            power(main_endo, n)


class TestDotApply:
    def test_worked_values(self, main_endo):
        psi = path_map(main_endo)
        assert dot_apply(psi, (1, 1)) == (2,)
        assert dot_apply(psi, (1, 2)) == (3, 2, 1)
        assert dot_apply(psi, (2, 1, 1, 1)) == (1, 1, 1)
        assert dot_apply(psi, (3, 2, 1)) == (2, 3, 2)

    def test_short_words_undefined(self, main_endo):
        psi = path_map(main_endo)
        assert dot_apply(psi, ()) is None
        assert dot_apply(psi, (2,)) is None

    def test_unmatched_word_undefined(self, main_endo):
        # no mu-word of t_1 is a prefix of (2,)
        psi = path_map(main_endo)
        assert dot_apply(psi, (2, 1)) is None

    def test_identity_is_rotation(self, main_identity, main_matrix):
        psi = path_map(main_identity)
        for m in range(2, 6):
            for w in enumerate_paths(main_matrix, m):
                expected = (w[-1],) + w[:-1]
                got = dot_apply(psi, w)
                if got is not None:
                    assert got == expected

    def test_injective_per_length(self, main_endo, main_matrix):
        psi = path_map(main_endo)
        for m in range(2, main_endo.k + 7):
            seen = {}
            for w in enumerate_paths(main_matrix, m):
                r = dot_apply(psi, w)
                if r is not None:
                    assert r not in seen, (w, seen[r], r)
                    seen[r] = w

    def test_results_are_allowable(self, main_endo, main_matrix):
        from cklef.sft_core import is_allowable

        psi = path_map(main_endo)
        for m in range(2, 7):
            for w in enumerate_paths(main_matrix, m):
                r = dot_apply(psi, w)
                if r is not None:
                    assert is_allowable(main_matrix, r)


class TestRepresentAtDepth:
    def test_preserves_images(self, main_endo):
        deeper = represent_at_depth(main_endo, 4)
        assert deeper.k == 4
        assert generator_equal(deeper, main_endo)

    def test_all_mu_words_at_depth(self, main_endo):
        for depth in (3, 4):
            deeper = represent_at_depth(main_endo, depth)
            assert deeper.k == depth
            for pairs in deeper.raw_images:
                assert all(len(mu) == depth for _, mu in pairs)

    def test_below_current_depth_rejected(self, main_endo):
        with pytest.raises(DepthTooSmall):
            represent_at_depth(main_endo, 1)

    def test_split_is_the_normal_form(self, compose_cases):
        # every presentation of the compose corpus with mu-words of length
        # at most 4, at k .. k + 3: past that the split grows geometrically
        # (E^8, with k = 16, would split to about 5 * 10^15 pairs at k + 3)
        corpus = {id(e): e for case in compose_cases for e in case if e.k <= 4}
        assert len(corpus) >= 20
        for e in corpus.values():
            for k in range(e.k, e.k + 4):
                split = represent_at_depth(e, k)
                assert split.valid
                for i in e.matrix.alphabet:
                    normal = normalize(image_element(e, i), k).terms
                    assert set(normal.values()) == {1}
                    assert split.raw_images[i - 1] == tuple(sorted(normal))


def _reference_outcome(matrix, raw_pairs):
    """What a presentation builds to, decided on algebra elements.

    Returns the ``valid`` flag, or the type of the error raised.  The
    mu-collision rule compares every pair with every other, and validity
    checks the three Cuntz-Krieger relations on elements normalized to a
    common mu-length: slow, but independent of the cylinder-set check.
    """
    if len(raw_pairs) != matrix.n:
        return InvalidEndomorphism
    for pairs in raw_pairs:
        if not pairs:
            return InvalidEndomorphism
        for nu, mu in pairs:
            if not (is_allowable(matrix, nu) and is_allowable(matrix, mu)):
                return UnallowableWord
            if monomial_is_zero(matrix, nu, mu):
                return ZeroMonomialPair
    for pairs in raw_pairs:
        for a, (nu1, mu1) in enumerate(pairs):
            for b, (_, mu2) in enumerate(pairs):
                if a == b or len(mu1) > len(mu2) or mu2[: len(mu1)] != mu1:
                    continue
                if len(mu1) == len(mu2):
                    return DuplicateMuAfterNormalization
                if not nu1 or matrix.entry(terminus(nu1), mu2[len(mu1)]) == 1:
                    return DuplicateMuAfterNormalization
    ts = [element(matrix, [(nu, mu, 1) for nu, mu in pairs]) for pairs in raw_pairs]
    if not all(is_partial_isometry(t) for t in ts):
        return False
    ranges = [multiply(t, adjoint(t)) for t in ts]
    for i in matrix.alphabet:
        rhs = zero(matrix)
        for j in matrix.alphabet:
            if matrix.entry(i, j):
                rhs = add(rhs, ranges[j - 1])
        if not equals(multiply(adjoint(ts[i - 1]), ts[i - 1]), rhs):
            return False
    total = zero(matrix)
    for r in ranges:
        total = add(total, r)
    return equals(total, unit(matrix))


def _mu_rule_message(matrix, raw_pairs):
    """The message the mu-rule raises on ``raw_pairs``, decided pair by pair,
    or None.  For each generator in turn: the first mu-word given twice, or
    else the first mu-word, sorted, that collides with its longest proper
    mu-prefix mu1, where the letter after mu1 may follow mu1's nu-word."""
    for i, pairs in enumerate(raw_pairs, start=1):
        nu_of = {}
        for nu, mu in pairs:
            if mu in nu_of:
                return f"generator {i}: mu-word {mu} repeated"
            nu_of[mu] = nu
        for mu2 in sorted(nu_of):
            prefixes = [mu for mu in nu_of if len(mu) < len(mu2) and mu2[: len(mu)] == mu]
            if not prefixes:
                continue
            mu1 = max(prefixes, key=len)
            nu1 = nu_of[mu1]
            if not nu1 or matrix.entry(terminus(nu1), mu2[len(mu1)]):
                return f"generator {i}: mu-words {mu1} and {mu2} collide after normalization"
    return None


def _nested_presentation(matrix, rng):
    """Pair lists whose mu-words are mostly prefixes of one word of length 4,
    with random nu-words of length at most 2."""
    words = [w for n in range(5) for w in enumerate_paths(matrix, n)]
    stems = [w for w in words if len(w) == 4]
    raw = []
    for _ in matrix.alphabet:
        stem = rng.choice(stems)
        pairs = []
        for _ in range(rng.randrange(1, 5)):
            mu = stem[: rng.randrange(5)] if rng.randrange(3) else rng.choice(words)
            pairs.append((rng.choice([w for w in words if len(w) <= 2]), mu))
        raw.append(pairs)
    return raw


def _outcome(matrix, raw_pairs):
    try:
        return build_endomorphism(matrix, raw_pairs).valid
    except CkError as exc:
        return type(exc)


def _oracle_corpus(main_endo):
    """Valid presentations: powers and re-presentations of the running
    example, identities and inner automorphisms on the desk matrices, and
    complete-graph samples."""
    corpus = [main_endo, power(main_endo, 2), power(main_endo, 3)]
    corpus += [represent_at_depth(main_endo, k) for k in (3, 4)]
    rng = random.Random(2024)
    for matrix in small_matrices():
        corpus.append(identity_endomorphism(matrix))
        corpus.append(random_inner_automorphism(matrix, rng))
    for n in (2, 3):
        matrix = validate_matrix([[1] * n for _ in range(n)])
        corpus += [random_complete_graph_endomorphism(matrix, rng)[0] for _ in range(4)]
    return corpus


def _mutate(matrix, raw_images, rng):
    """One seeded change: drop a pair, swap two nu-words, replace a nu or a
    mu by a random allowable word, or add a pair."""
    pairs = [list(p) for p in raw_images]
    spots = [(i, a) for i, p in enumerate(pairs) for a in range(len(p))]

    def word():
        return rng.choice(enumerate_paths(matrix, rng.randrange(4)))

    kind = rng.randrange(5)
    i, a = rng.choice(spots)
    nu, mu = pairs[i][a]
    if kind == 0:
        del pairs[i][a]
    elif kind == 1:
        j, b = rng.choice(spots)
        pairs[i][a] = (pairs[j][b][0], mu)
        pairs[j][b] = (nu, pairs[j][b][1])
    elif kind == 2:
        pairs[i][a] = (word(), mu)
    elif kind == 3:
        pairs[i][a] = (nu, word())
    else:
        pairs[rng.randrange(matrix.n)].append((word(), word()))
    return pairs


class TestCkChecksAgainstElementOracle:
    def test_corpus_is_valid(self, main_endo):
        for e in _oracle_corpus(main_endo):
            assert e.valid
            assert _reference_outcome(e.matrix, e.raw_images) is True

    def test_seeded_mutations_agree(self, main_endo):
        rng = random.Random(5)
        tally = {}
        for e in _oracle_corpus(main_endo):
            # the deep bases cost the element check the most time
            for _ in range(12 if e.k > 4 else 80):
                raw = _mutate(e.matrix, e.raw_images, rng)
                expected = _reference_outcome(e.matrix, raw)
                assert _outcome(e.matrix, raw) == expected, raw
                tally[expected] = tally.get(expected, 0) + 1
        assert sum(tally.values()) >= 1000
        assert tally[True] and tally[False] and tally[DuplicateMuAfterNormalization]

    def test_range_set_is_support_of_range_projection(self, main_endo):
        for e in _oracle_corpus(main_endo):
            for i in e.matrix.alphabet:
                t = image_element(e, i)
                assert e.range_set(i) == support(multiply(t, adjoint(t)))

    def test_repeated_mu_with_disjoint_followers_rejected(self):
        # t_1 = s_1 + s_2: the two source cylinders 1 and 2 are disjoint, but
        # the mu-word e repeats, so the path map could not tell them apart
        m = validate_matrix([[1, 0], [0, 1]])
        raw = [[((1,), ()), ((2,), ())], [((1,), (1,))]]
        assert _reference_outcome(m, raw) is DuplicateMuAfterNormalization
        with pytest.raises(DuplicateMuAfterNormalization, match=r"generator 1: mu-word \(\) repeated"):
            build_endomorphism(m, raw)

    def test_collision_names_generator_and_words(self, main_matrix):
        rest = [[((2,), ())], [((3,), ())]]
        cases = [
            # e covers 1
            ([((1,), ()), ((2,), (1,))], "() and (1,)"),
            # the chain 2 < 22 < 221: 2 covers both longer words, and the
            # cylinder 221 sorts before 22's cylinders 222 and 223, yet the
            # rule names 2 with its nearest extension 22
            ([((2,), (2,)), ((3,), (2, 2)), ((1,), (2, 2, 1))], "(2,) and (2, 2)"),
            # the branch 2 < 21, 2 < 23: 2's cylinders are 22 and 23, so 21
            # is passed over and 23 named
            ([((3,), (2,)), ((1,), (2, 1)), ((2,), (2, 3))], "(2,) and (2, 3)"),
        ]
        for pairs, words in cases:
            message = f"generator 1: mu-words {words} collide after normalization"
            assert _mu_rule_message(main_matrix, [pairs] + rest) == message
            with pytest.raises(DuplicateMuAfterNormalization, match=re.escape(message)):
                build_endomorphism(main_matrix, [pairs] + rest)

    def test_nested_mu_words_name_the_pairwise_pair(self):
        # mu-words drawn as prefixes of one word make chains and branches,
        # where two neighbours in the source sort can hold another pair than
        # the one the rule names
        rng = random.Random(26)
        named = 0
        for matrix in small_matrices() + [validate_matrix(Q_ROWS)]:
            for _ in range(150):
                raw = _nested_presentation(matrix, rng)
                try:
                    build_endomorphism(matrix, raw)
                except DuplicateMuAfterNormalization as exc:
                    assert str(exc) == _mu_rule_message(matrix, raw), raw
                    named += "collide" in str(exc)
                except CkError:
                    continue
                else:
                    assert _mu_rule_message(matrix, raw) is None, raw
        assert named >= 300


def _mutate_or_swap(matrix, raw_images, rng):
    """One ``_mutate`` change, or the whole pair lists of two generators
    swapped."""
    if rng.randrange(6):
        return _mutate(matrix, raw_images, rng)
    pairs = [list(p) for p in raw_images]
    i, j = rng.sample(range(matrix.n), 2) if matrix.n > 1 else (0, 0)
    pairs[i], pairs[j] = pairs[j], pairs[i]
    return pairs


class TestCkChecksAgainstCanonicalForms:
    """The word counts of ``_ck_checks`` against the comparison of maximal
    cylinders in ``tests/oracles.py``."""

    def test_corpus_agrees(self, main_endo):
        corpus = _oracle_corpus(main_endo)
        corpus += [power(main_endo, 8), represent_at_depth(main_endo, 6)]
        corpus.append(identity_endomorphism(validate_matrix([[1]])))
        for e in corpus:
            assert e.valid
            assert ck_checks_canonical(e) is True

    def test_seeded_mutations_agree(self, main_endo):
        rng = random.Random(22)
        tally = {}
        for e in _oracle_corpus(main_endo):
            for _ in range(60):
                raw = _mutate_or_swap(e.matrix, e.raw_images, rng)
                try:
                    built = build_endomorphism(e.matrix, raw)
                except CkError as exc:
                    if isinstance(exc, DuplicateMuAfterNormalization):
                        assert str(exc) == _mu_rule_message(e.matrix, raw), raw
                    tally[type(exc)] = tally.get(type(exc), 0) + 1
                    continue
                assert _mu_rule_message(e.matrix, raw) is None, raw
                assert built.valid == ck_checks_canonical(built), raw
                tally[built.valid] = tally.get(built.valid, 0) + 1
        assert tally[True] >= 100 and tally[False] >= 100
        assert tally[DuplicateMuAfterNormalization]
