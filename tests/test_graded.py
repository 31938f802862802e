import random
from fractions import Fraction

import pytest

from cklef import linalg
from cklef.errors import DegeneratePairing, NotDegreeZero, ShapeMismatch
from cklef.graded import (
    FundamentalTensor,
    GradedSpace,
    GradedVector,
    apply_map,
    basis_vector,
    compose_maps,
    dual_basis,
    dual_fundamental_class,
    fundamental_contraction,
    graded_map,
    graded_pairing,
    graded_tensor_map,
    graded_trace,
    graded_vector,
    identity_map,
    index_pairing,
    koszul_flip_check,
    tensor_basis_labels,
    tensor_position,
    tensor_space,
    tensor_vector,
    zeta_model_check,
)

from tests.oracles import pairing_transpose, scale_map, zero_map


def _rand_space(rng, maxd=4, allow_zero=True):
    lo = 0 if allow_zero else 1
    return GradedSpace(rng.randint(lo, maxd), rng.randint(lo, maxd))


def _rand_map(rng, src, dst, degree):
    return graded_map(
        src,
        dst,
        degree,
        [
            [
                [rng.randint(-3, 3) for _ in range(src.dim(e))]
                for _ in range(dst.dim(e + degree))
            ]
            for e in (0, 1)
        ],
    )


def _rand_vector(rng, space, parity):
    return graded_vector(
        space, parity, [rng.randint(-3, 3) for _ in range(space.dim(parity))]
    )


def _rand_pairing(rng, n, maxd=4):
    while True:
        a = _rand_space(rng, maxd)
        b = (
            GradedSpace(a.dim(n), a.dim(1 + n))
            if n == 0
            else GradedSpace(a.d1, a.d0)
        )
        blocks = [
            [[rng.randint(-3, 3) for _ in range(a.dim(e))] for _ in range(a.dim(e))]
            for e in (0, 1)
        ]
        p = graded_pairing(a, b, n, blocks)
        if p.is_nondegenerate():
            return p


class TestGradedTrace:
    def test_signed_dimension(self):
        assert graded_trace(identity_map(GradedSpace(2, 1))) == 1
        assert graded_trace(identity_map(GradedSpace(1, 1))) == 0

    def test_signs(self):
        v = GradedSpace(1, 1)
        f = graded_map(v, v, 0, [[[2]], [[3]]])
        assert graded_trace(f) == -1

    def test_degree_one_rejected(self):
        v = GradedSpace(1, 1)
        f = graded_map(v, v, 1, [[[1]], [[1]]])
        with pytest.raises(NotDegreeZero):
            graded_trace(f)


class TestTensorMaps:
    def test_action_sign_rule(self):
        # (T1 (x) T2)(a (x) b) = (-1)^{deg(T1) parity(b)} T1 a (x) T2 b
        rng = random.Random(11)
        for _ in range(30):
            s1, s2 = _rand_space(rng, 3), _rand_space(rng, 3)
            d1, d2 = _rand_space(rng, 3), _rand_space(rng, 3)
            for deg1 in (0, 1):
                for deg2 in (0, 1):
                    t1 = _rand_map(rng, s1, d1, deg1)
                    t2 = _rand_map(rng, s2, d2, deg2)
                    for pa in (0, 1):
                        for pb in (0, 1):
                            if s1.dim(pa) == 0 or s2.dim(pb) == 0:
                                continue
                            a = _rand_vector(rng, s1, pa)
                            b = _rand_vector(rng, s2, pb)
                            lhs = apply_map(
                                graded_tensor_map(t1, t2), tensor_vector(a, b)
                            )
                            sign = Fraction(-1 if (deg1 * pb) % 2 else 1)
                            rhs0 = tensor_vector(apply_map(t1, a), apply_map(t2, b))
                            rhs = GradedVector(
                                rhs0.space,
                                rhs0.parity,
                                tuple(sign * c for c in rhs0.coords),
                            )
                            assert lhs == rhs

    def test_composition_sign(self):
        # (T1 (x) T2)(S1 (x) S2) = (-1)^{deg(T1) deg(S2)} (T1 S1) (x) (T2 S2)
        rng = random.Random(13)
        for _ in range(40):
            s1, s2, m1, m2, d1, d2 = (_rand_space(rng, 2) for _ in range(6))
            dt1, dt2, ds1, ds2 = (rng.randint(0, 1) for _ in range(4))
            q1, q2 = _rand_map(rng, s1, m1, ds1), _rand_map(rng, s2, m2, ds2)
            t1, t2 = _rand_map(rng, m1, d1, dt1), _rand_map(rng, m2, d2, dt2)
            left = compose_maps(graded_tensor_map(t1, t2), graded_tensor_map(q1, q2))
            right = scale_map(
                graded_tensor_map(compose_maps(t1, q1), compose_maps(t2, q2)),
                -1 if (dt1 * ds2) % 2 else 1,
            )
            assert left == right, (dt1, dt2, ds1, ds2)

    def test_alternative_composition_sign_falsified(self):
        # the sign (-1)^{deg(T2) deg(S1)} fails on a concrete quadruple
        rng = random.Random(17)
        found = False
        for _ in range(300):
            spaces = [_rand_space(rng, 2, allow_zero=False) for _ in range(6)]
            s1, s2, m1, m2, d1, d2 = spaces
            dt1, dt2, ds1, ds2 = (rng.randint(0, 1) for _ in range(4))
            if (dt1 * ds2) % 2 == (dt2 * ds1) % 2:
                continue
            q1, q2 = _rand_map(rng, s1, m1, ds1), _rand_map(rng, s2, m2, ds2)
            t1, t2 = _rand_map(rng, m1, d1, dt1), _rand_map(rng, m2, d2, dt2)
            left = compose_maps(graded_tensor_map(t1, t2), graded_tensor_map(q1, q2))
            alt = scale_map(
                graded_tensor_map(compose_maps(t1, q1), compose_maps(t2, q2)),
                -1 if (dt2 * ds1) % 2 else 1,
            )
            if left != alt:
                found = True
                break
        assert found

    def test_koszul_flip(self):
        rng = random.Random(19)
        for _ in range(60):
            s1, s2, d1, d2 = (_rand_space(rng, 3) for _ in range(4))
            fdeg, gdeg = rng.randint(0, 1), rng.randint(0, 1)
            fm = _rand_map(rng, s1, d1, fdeg)
            gm = _rand_map(rng, s2, d2, gdeg)
            for pa in (0, 1):
                for pb in (0, 1):
                    if s1.dim(pa) == 0 or s2.dim(pb) == 0:
                        continue
                    assert koszul_flip_check(
                        _rand_vector(rng, s1, pa), _rand_vector(rng, s2, pb), fm, gm
                    )


class TestPairings:
    def test_dual_basis_biorthogonal(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(0, 1)
            p = _rand_pairing(rng, n)
            xs, duals = dual_basis(p)
            for e in (0, 1):
                for i, x in enumerate(xs[e]):
                    for j, y in enumerate(duals[e]):
                        assert _pair(p, x, y) == (1 if i == j else 0)

    def test_trivial_dual_cases(self):
        p1 = graded_pairing(GradedSpace(1, 0), GradedSpace(1, 0), 0, [[[1]], []])
        _, duals = dual_basis(p1)
        assert duals[0][0].coords == (Fraction(1),)
        p2 = graded_pairing(GradedSpace(1, 0), GradedSpace(1, 0), 0, [[[2]], []])
        _, duals = dual_basis(p2)
        assert duals[0][0].coords == (Fraction(1, 2),)

    def test_transpose_graded_symmetry(self):
        rng = random.Random(29)
        for _ in range(30):
            n = rng.randint(0, 1)
            p = _rand_pairing(rng, n)
            pt = pairing_transpose(p)
            assert pt.is_nondegenerate()
            for alpha in (0, 1):
                beta = (n + alpha) % 2
                if p.space_a.dim(alpha) == 0 or p.space_b.dim(beta) == 0:
                    continue
                x = _rand_vector(rng, p.space_a, alpha)
                y = _rand_vector(rng, p.space_b, beta)
                sign = Fraction(-1 if (alpha * beta) % 2 else 1)
                assert _pair(pt, y, x) == sign * _pair(p, x, y)

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneratePairing):
            dual_basis(
                graded_pairing(GradedSpace(1, 0), GradedSpace(1, 0), 0, [[[0]], []])
            )

    def test_degenerate_rejected_by_the_fundamental_class(self):
        with pytest.raises(DegeneratePairing):
            dual_fundamental_class(
                graded_pairing(GradedSpace(1, 1), GradedSpace(1, 1), 0, [[[1]], [[0]]])
            )

    def test_each_block_inverted_once(self, monkeypatch):
        rng = random.Random(37)
        drawn = _rand_pairing(rng, 0)
        f = _rand_map(rng, drawn.space_b, drawn.space_b, 0)
        # A fresh pairing: the draw's nondegeneracy test already inverted
        # the blocks of its own object.
        p = graded_pairing(drawn.space_a, drawn.space_b, drawn.n, drawn.blocks)
        assert p == drawn and hash(p) == hash(drawn)
        calls = []
        inverse = linalg.inverse
        monkeypatch.setattr(linalg, "inverse", lambda a: calls.append(a) or inverse(a))
        index_pairing(p, f)
        assert len(calls) == 2
        fundamental_contraction(p, dual_fundamental_class(p))
        assert len(calls) == 2


class TestFundamentalClass:
    def test_contraction_is_identity(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(0, 1)
            p = _rand_pairing(rng, n)
            ft = dual_fundamental_class(p)
            assert fundamental_contraction(p, ft) == identity_map(p.space_b)

    def test_term_examples(self):
        p1 = graded_pairing(GradedSpace(1, 0), GradedSpace(1, 0), 0, [[[1]], []])
        ft = dual_fundamental_class(p1)
        assert dict(ft.terms) == {((0, 0), (0, 0)): Fraction(1)}
        # the degree-one perfect pairing picks up the grading sign
        p_ck = graded_pairing(GradedSpace(1, 1), GradedSpace(1, 1), 1, [[[1]], [[1]]])
        ft = dual_fundamental_class(p_ck)
        assert ft.terms[((1, 0), (0, 0))] == -1
        assert ft.terms[((0, 0), (1, 0))] == 1


class TestIndexPairing:
    def test_equals_graded_trace(self):
        rng = random.Random(37)
        for _ in range(120):
            n = rng.randint(0, 1)
            p = _rand_pairing(rng, n)
            b = p.space_b
            fmap = _rand_map(rng, b, b, 0)
            assert index_pairing(p, fmap) == graded_trace(fmap)

    def test_identity_gives_signed_dimension(self):
        rng = random.Random(41)
        for _ in range(30):
            p = _rand_pairing(rng, rng.randint(0, 1))
            b = p.space_b
            assert index_pairing(p, identity_map(b)) == b.d0 - b.d1
            assert index_pairing(p, zero_map(b, b)) == 0


def _kronecker_index_pairing(p, f):
    """The reference: the tensor as a vector of B (x) A, pushed through the
    (2d^2) x (2d^2) matrix of f (x) 1_A, then paired coordinate by coordinate."""
    ft = dual_fundamental_class(p)
    space = tensor_space(p.space_b, p.space_a)
    coords = [Fraction(0)] * space.dim(ft.parity)
    for ((beta, j), (alpha, i)), c in ft.terms.items():
        _, pos = tensor_position(p.space_b, p.space_a, beta, alpha, j, i)
        coords[pos] += c
    moved = apply_map(
        graded_tensor_map(f, identity_map(p.space_a)),
        GradedVector(space, ft.parity, tuple(coords)),
    )
    labels = tensor_basis_labels(p.space_b, p.space_a, moved.parity)
    total = Fraction(0)
    for c, (beta, j, alpha, i) in zip(moved.coords, labels):
        if c:
            total += c * _pair(
                p, basis_vector(p.space_a, alpha, i), basis_vector(p.space_b, beta, j)
            )
    return total


def _basis_contraction(p, ft):
    """The reference: every basis vector x of B against every term, through _pair."""
    p.require_nondegenerate()
    b = p.space_b
    blocks = [[[Fraction(0)] * b.dim(e) for _ in range(b.dim(e))] for e in (0, 1)]
    for gamma in (0, 1):
        for col in range(b.dim(gamma)):
            x = basis_vector(b, gamma, col)
            for ((beta, j), (alpha, i)), c in ft.terms.items():
                value = _pair(p, basis_vector(p.space_a, alpha, i), x)
                if value == 0:
                    continue
                if beta != gamma:
                    raise ShapeMismatch("contraction left the parity component")
                sign = Fraction(-1 if (p.n * gamma + alpha * gamma) % 2 else 1)
                blocks[gamma][j][col] += sign * c * value
    return graded_map(b, b, 0, blocks)


def _rand_tensor(rng, p):
    """A random tensor of B (x) A of total parity n, about half its terms zero."""
    terms = {}
    for alpha in (0, 1):
        beta = (p.n + alpha) % 2
        for i in range(p.space_a.dim(alpha)):
            for j in range(p.space_b.dim(beta)):
                if rng.random() < 0.5:
                    terms[(beta, j), (alpha, i)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return FundamentalTensor(p.space_b, p.space_a, p.n, terms)


class TestTermwiseContraction:
    def _pairings(self):
        rng = random.Random(53)
        out = [_rand_pairing(rng, k % 2) for k in range(200)]
        assert {p.n for p in out} == {0, 1}
        assert any(p.space_b.d0 != p.space_b.d1 for p in out)
        assert any(0 in (p.space_b.d0, p.space_b.d1) for p in out)
        return rng, out

    def test_index_pairing_matches_kronecker_route(self):
        rng, pairings = self._pairings()
        for k, p in enumerate(pairings):
            b = p.space_b
            maps = [_rand_map(rng, b, b, 0)]
            if k < 20:
                maps += [identity_map(b), zero_map(b, b)]
            for f in maps:
                assert index_pairing(p, f) == _kronecker_index_pairing(p, f)

    def test_contraction_matches_basis_route(self):
        rng, pairings = self._pairings()
        for p in pairings:
            for ft in (dual_fundamental_class(p), _rand_tensor(rng, p)):
                assert fundamental_contraction(p, ft) == _basis_contraction(p, ft)

    def test_tensor_of_the_wrong_parity_rejected(self):
        p = graded_pairing(GradedSpace(1, 1), GradedSpace(1, 1), 0, [[[2]], [[3]]])
        # e_0^1 (x) e_0^0 has total parity 1, and (e_0^0 | e_0^0) = 2 is nonzero
        ft = FundamentalTensor(p.space_b, p.space_a, 1, {((1, 0), (0, 0)): Fraction(1)})
        for contract in (fundamental_contraction, _basis_contraction):
            with pytest.raises(ShapeMismatch):
                contract(p, ft)

    @pytest.mark.parametrize(
        "label",
        [((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (0, 1)), ((0, -1), (0, 0))],
        ids=["parity", "b-index", "a-index", "negative"],
    )
    def test_malformed_term_rejected(self, label):
        space = GradedSpace(1, 1)
        with pytest.raises(ShapeMismatch):
            FundamentalTensor(space, space, 0, {label: Fraction(1)})

    @pytest.mark.parametrize(
        "a, b, blocks",
        [
            ((1, 1), (1, 1), [[[1]], [[0]]]),  # singular odd block
            ((2, 1), (1, 1), [[[1], [2]], [[1]]]),  # even block not square
            ((2, 0), (2, 0), [[[1, 2], [2, 4]], []]),  # singular, empty odd part
        ],
    )
    def test_degenerate_pairing_rejected(self, a, b, blocks):
        p = graded_pairing(GradedSpace(*a), GradedSpace(*b), 0, blocks)
        assert not p.is_nondegenerate()
        with pytest.raises(DegeneratePairing):
            index_pairing(p, identity_map(p.space_b))
        with pytest.raises(DegeneratePairing):
            fundamental_contraction(p, FundamentalTensor(p.space_b, p.space_a, 0, {}))


class TestZetaModel:
    def test_rationality_of_supertrace_series(self):
        rng = random.Random(43)
        for _ in range(30):
            sp = _rand_space(rng, 3)
            fmap = _rand_map(rng, sp, sp, 0)
            assert zeta_model_check(fmap, 8)


def _sparse_fraction(rng, zero_share):
    if rng.random() < zero_share:
        return Fraction(0)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))


def _dense_mat_vec(a, v):
    return tuple(
        sum((a[i][j] * Fraction(v[j]) for j in range(len(v))), Fraction(0))
        for i in range(len(a))
    )


def _dense_pair(block, x, y):
    return sum(
        (x[i] * block[i][j] * y[j] for i in range(len(x)) for j in range(len(y))),
        Fraction(0),
    )


def _pair(p, x, y):
    """(x | y) by the dense sum; zero when the parities do not sum to n."""
    if (x.parity + y.parity) % 2 != p.n:
        return Fraction(0)
    return _dense_pair(p.blocks[x.parity], x.coords, y.coords)


def _dense_supertrace(f):
    return sum(
        (sign * block[i][i] for sign, block in zip((1, -1), f.blocks) for i in range(len(block))),
        Fraction(0),
    )


class TestZeroSkipping:
    """mat_vec and the index pairing sum only nonzero terms; the sums must not change."""

    @pytest.mark.parametrize("zero_share", [0.0, 0.5, 1.0])
    def test_mat_vec_equals_dense_sum(self, zero_share):
        rng = random.Random(47)
        for _ in range(60):
            rows, cols = rng.randint(0, 6), rng.randint(0, 6)
            a = tuple(
                tuple(_sparse_fraction(rng, zero_share) for _ in range(cols))
                for _ in range(rows)
            )
            v = [_sparse_fraction(rng, zero_share) for _ in range(cols)]
            if rows and rng.random() < 0.3:
                a = a[:-1] + (tuple(Fraction(0) for _ in range(cols)),)
            got = linalg.mat_vec(a, v)
            assert got == _dense_mat_vec(a, v)
            assert all(isinstance(c, Fraction) for c in got)

    def test_mat_vec_on_empty_dimensions(self):
        assert linalg.mat_vec((), ()) == ()
        assert linalg.mat_vec(((), (), ()), ()) == (0, 0, 0)
        assert linalg.mat_vec(((Fraction(0),),), [0]) == (0,)

    def test_mat_vec_takes_int_vectors(self):
        a = linalg.to_matrix([[1, 2], [3, 4]])
        assert linalg.mat_vec(a, [0, 5]) == (10, 20)

    @pytest.mark.parametrize("zero_share", [0.0, 0.5, 1.0])
    def test_pair_equals_dense_sum(self, zero_share):
        # the index pairing of a sparse rational map against the dense supertrace
        rng = random.Random(53)
        for _ in range(60):
            p = _rand_pairing(rng, rng.randint(0, 1), 5)
            b = p.space_b
            f = graded_map(
                b,
                b,
                0,
                [
                    [[_sparse_fraction(rng, zero_share) for _ in range(b.dim(e))]
                     for _ in range(b.dim(e))]
                    for e in (0, 1)
                ],
            )
            assert index_pairing(p, f) == _dense_supertrace(f)

    def test_pair_with_zero_row_and_empty_parts(self):
        a = GradedSpace(2, 0)
        p = graded_pairing(a, a, 0, [[[1, 2], [3, 4]], []])
        f = graded_map(a, a, 0, [[[0, 0], [3, 4]], []])
        assert index_pairing(p, f) == _dense_supertrace(f) == 4

    def test_empty_dimensions(self):
        # the d = 0 parts that compose_maps special-cases
        empty = GradedSpace(0, 0)
        q = graded_pairing(empty, empty, 0, [[], []])
        assert index_pairing(q, graded_map(empty, empty, 0, [[], []])) == 0
        v, w = GradedSpace(2, 1), GradedSpace(0, 1)
        f = graded_map(v, w, 0, [[], [[Fraction(2, 3)]]])
        x = graded_vector(v, 0, [1, 2])
        assert apply_map(f, x).coords == _dense_mat_vec(f.blocks[0], x.coords) == ()
        g = graded_map(w, v, 0, [[[], []], [[5]]])
        assert compose_maps(g, f).blocks[0] == ((0, 0), (0, 0))
        assert apply_map(compose_maps(g, f), x).coords == (0, 0)
