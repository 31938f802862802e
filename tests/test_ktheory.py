import dataclasses
import random
import weakref
from fractions import Fraction

import pytest

from cklef import endo as endo_module
from cklef import ktheory, linalg
from cklef.cli import run
from cklef.endo import (
    build_endomorphism,
    compose,
    identity_endomorphism,
    power,
    represent_at_depth,
)
from cklef.errors import (
    DimensionMismatch,
    InvalidParameter,
    ReconstructionInconsistent,
    WellDefinednessFailure,
)
from cklef.index import stabilized_index
from cklef.ktheory import (
    _descend_free,
    _require_well_defined,
    generator_class,
    induced_k0,
    k0_reduce,
    k_groups,
    lefschetz_number,
    smith_normal_form,
    zeta,
    zeta_coefficients,
    zeta_reconstruct,
)
from cklef.sft_core import validate_matrix
from tests.conftest import MAIN_DOCUMENT, MAIN_PAIRS, MAIN_ROWS, Q_ROWS
from tests import oracles


def _mat_mul(a, b):
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _det(m):
    n = len(m)
    rows = [[Fraction(x) for x in r] for r in m]
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


class TestSmithNormalForm:
    def test_main_presentation(self, main_matrix):
        kt = k_groups(main_matrix)
        assert kt.presentation == ((0, -1, 0), (-1, 0, -1), (0, -1, 0))
        assert kt.invariant_factors == (1, 1, 0)

    def test_zero_matrix(self):
        snf = smith_normal_form([[0, 0], [0, 0]])
        assert snf.d == ((0, 0), (0, 0))

    def test_identity_matrix(self):
        snf = smith_normal_form([[1, 0], [0, 1]])
        assert snf.d == ((1, 0), (0, 1))

    def test_contract_randomized(self):
        rng = random.Random(13)
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            snf = smith_normal_form(m)
            # U M V = D
            assert tuple(
                tuple(r) for r in _mat_mul(_mat_mul(snf.u, m), snf.v)
            ) == snf.d
            # U, V unimodular
            assert abs(_det(snf.u)) == 1
            assert abs(_det(snf.v)) == 1
            # diagonal, nonnegative, divisibility chain
            diag = [snf.d[i][i] for i in range(min(rows, cols))]
            for i in range(rows):
                for j in range(cols):
                    if i != j:
                        assert snf.d[i][j] == 0
            assert all(x >= 0 for x in diag)
            for a, b in zip(diag, diag[1:]):
                if a != 0:
                    assert b % a == 0
                else:
                    assert b == 0

    def test_repr_survives_a_huge_transform(self):
        # Python refuses to print an int of more than 4 300 digits; U, V and
        # U^-1 reach such entries at n = 128, and the repr of the K-theory
        # data holding them must not raise
        huge = 10**5000
        snf = ktheory.SmithDecomposition(
            u=((1, huge), (0, 1)), v=((huge,),), d=((1, 0), (0, 2)), u_inv=((1, -huge), (0, 1))
        )
        assert repr(snf) == "SmithDecomposition(d=((1, 0), (0, 2)))"
        e = build_endomorphism(validate_matrix(MAIN_ROWS), MAIN_PAIRS)
        kt = dataclasses.replace(k_groups(e.matrix), snf=snf)
        assert "d=((1, 0), (0, 2))" in repr(kt)
        assert "d=((1, 0), (0, 2))" in repr(dataclasses.replace(induced_k0(e), ktheory=kt))

    def test_u_inv_is_inverse(self):
        assert smith_normal_form([]).u_inv == ()
        rng = random.Random(17)
        shapes = [(1, 1), (3, 1), (1, 3)] + [
            (rng.randint(1, 6), rng.randint(1, 6)) for _ in range(60)
        ]
        for rows, cols in shapes:
            m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            snf = smith_normal_form(m)
            eye = [[int(i == j) for j in range(rows)] for i in range(rows)]
            assert _mat_mul(snf.u, snf.u_inv) == eye
            assert _mat_mul(snf.u_inv, snf.u) == eye


class TestKGroups:
    def test_main_example(self, main_matrix):
        kt = k_groups(main_matrix)
        assert kt.rank_k0_free == 1
        assert kt.rank_k1 == 1
        assert kt.torsion == ()

    def test_one_letter_full_shift(self):
        kt = k_groups(validate_matrix([[1]]))
        assert kt.rank_k0_free == 1 and kt.rank_k1 == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_complete_graph_torsion(self, n):
        # O_n has K_0 = Z/(n-1), K_1 = 0
        kt = k_groups(validate_matrix([[1] * n for _ in range(n)]))
        assert kt.rank_k0_free == 0
        assert kt.rank_k1 == 0
        if n == 2:
            assert kt.torsion == ()  # Z/1 is trivial
        else:
            assert kt.torsion == (n - 1,)


class TestKZeroClasses:
    def test_generator_relations(self, main_matrix):
        kt = k_groups(main_matrix)
        e1, e2, e3 = (generator_class(kt, i) for i in (1, 2, 3))
        # e_2 = 0 and e_3 = -e_1 in coker(I - A^T)
        zero = k0_reduce(kt, (0, 0, 0))
        assert e2.same_class(zero)
        assert e3.same_class(e1.negate(kt))
        assert not e1.same_class(zero)

    @pytest.mark.parametrize("i", [0, -1, 4])
    def test_generator_index_outside_the_alphabet(self, main_matrix, i):
        # 0 and -1 would read e_3 and e_2 through negative indexing
        with pytest.raises(InvalidParameter):
            generator_class(k_groups(main_matrix), i)

    def test_relation_columns_vanish(self, main_matrix):
        kt = k_groups(main_matrix)
        zero = k0_reduce(kt, (0, 0, 0))
        for col in range(3):
            v = tuple(kt.presentation[row][col] for row in range(3))
            assert k0_reduce(kt, v).same_class(zero)


class TestInducedK0:
    def test_main_columns_and_free_part(self, main_endo):
        ind = induced_k0(main_endo)
        # columns alpha_*(e_i) in Z^3
        cols = tuple(
            tuple(ind.on_generators[r][c] for r in range(3)) for c in range(3)
        )
        assert cols == ((4, 5, 3), (1, 1, 1), (0, 1, 1))
        assert ind.free_part == ((1,),)

    def test_identity_induces_identity(self, main_matrix):
        ind = induced_k0(identity_endomorphism(main_matrix))
        kt = k_groups(main_matrix)
        # column i equals e_i in the quotient (raw vectors differ by relations)
        for i in (1, 2, 3):
            col = tuple(ind.on_generators[r][i - 1] for r in range(3))
            assert k0_reduce(kt, col).same_class(generator_class(kt, i))
        assert ind.free_part == ((1,),)

    @pytest.mark.parametrize(
        "rows", [((1, 1, 0), (1, 1, 1), (0, 1, 1)), ((1, 1, 1),) * 3], ids=["free", "torsion"]
    )
    def test_relation_outside_the_lattice_rejected(self, rows, monkeypatch):
        # e_1 -> e_1 and every other e_i -> 0 sends the relation column
        # e_2 - A^T e_2 to a nonzero class, in K_0 = Z and in K_0 = Z/2
        matrix = validate_matrix([list(r) for r in rows])
        e = identity_endomorphism(matrix)
        induced_k0(e)

        def only_e1(m, nu, mu):
            return [int(nu == (1,) and j == 1) for j in m.alphabet]

        monkeypatch.setattr(ktheory, "_range_class_vector", only_e1)
        with pytest.raises(WellDefinednessFailure):
            induced_k0(e)

    def test_support_route_agrees_in_quotient(self, main_endo, main_matrix):
        kt = k_groups(main_matrix)
        a = induced_k0(main_endo).on_generators
        b = oracles.induced_k0_support_route(main_endo)
        for c in range(3):
            ca = k0_reduce(kt, tuple(a[r][c] for r in range(3)))
            cb = k0_reduce(kt, tuple(b[r][c] for r in range(3)))
            assert ca.same_class(cb)

    def test_representation_depth_irrelevant(self, main_endo, main_matrix):
        kt = k_groups(main_matrix)
        a = induced_k0(main_endo).on_generators
        b = induced_k0(represent_at_depth(main_endo, 4)).on_generators
        for c in range(3):
            ca = k0_reduce(kt, tuple(a[r][c] for r in range(3)))
            cb = k0_reduce(kt, tuple(b[r][c] for r in range(3)))
            assert ca.same_class(cb)

    def test_functorial_on_free_part(self, main_endo):
        sq = compose(main_endo, main_endo)
        f = induced_k0(main_endo).free_part
        assert induced_k0(sq).free_part == tuple(
            tuple(sum(f[i][t] * f[t][j] for t in range(len(f))) for j in range(len(f)))
            for i in range(len(f))
        )


def _random_01(rng, n):
    while True:
        rows = [[int(rng.random() < 0.5) for _ in range(n)] for _ in range(n)]
        if all(any(r) for r in rows) and all(any(c) for c in zip(*rows)):
            return validate_matrix(rows)


def _fraction_descent(kt, t_rows):
    """The reference: U T U^{-1} over Fraction, with the oracle's Gauss-Jordan
    inverse, restricted to the free indices."""
    u = linalg.to_matrix(kt.snf.u)
    conj = linalg.mat_mul(linalg.mat_mul(u, linalg.to_matrix(t_rows)), oracles.inverse(u))
    assert all(c.denominator == 1 for row in conj for c in row)
    return tuple(tuple(int(conj[i][j]) for j in kt.free_indices) for i in kt.free_indices)


class TestIntegerDescent:
    def test_matches_fraction_conjugation(self):
        # 150 matrices of free rank 0 and at least 150 of free rank >= 1
        rng = random.Random(23)
        ranks = []
        while ranks.count(0) < 150 or len(ranks) - ranks.count(0) < 150:
            n = rng.randint(1, 10)
            kt = k_groups(_random_01(rng, n))
            if kt.rank_k0_free == 0 and ranks.count(0) >= 150:
                continue
            ranks.append(kt.rank_k0_free)
            t = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
            assert _descend_free(kt, t) == _fraction_descent(kt, t), (kt.matrix.rows, t)
        assert max(ranks) >= 2

    def test_torsion_k0_forms_nothing(self):
        kt = k_groups(validate_matrix([[1] * 3 for _ in range(3)]))
        assert _descend_free(kt, ((5, 1, 2), (0, 3, 1), (7, 7, 7))) == ()

    def test_identity_on_free_rank_two(self):
        # Q, the smallest irreducible 4 x 4 0/1 matrix whose K_0 has free rank 2
        q = validate_matrix([[0, 1, 1, 1], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]])
        ind = induced_k0(identity_endomorphism(q))
        assert ind.ktheory.rank_k0_free == 2
        assert ind.free_part == ((1, 0), (0, 1))

    def test_wrong_u_inv_column_rejected(self, main_matrix):
        kt = k_groups(main_matrix)
        (j,) = kt.free_indices
        bad = [list(row) for row in kt.snf.u_inv]
        bad[0][j] += 1
        broken = dataclasses.replace(
            kt, snf=dataclasses.replace(kt.snf, u_inv=tuple(map(tuple, bad)))
        )
        t = tuple(tuple(int(i == c) for c in range(3)) for i in range(3))
        assert _descend_free(kt, t) == ((1,),)
        with pytest.raises(WellDefinednessFailure):
            _descend_free(broken, t)


def _full_reading(kt, v):
    """The reference reading: all n rows of U v, then the torsion and free
    coordinates picked out of them."""
    n = kt.matrix.n
    w = [sum(kt.snf.u[i][j] * v[j] for j in range(n)) for i in range(n)]
    return (
        tuple(w[i] % kt.invariant_factors[i] for i in kt.torsion_indices),
        tuple(w[i] for i in kt.free_indices),
    )


def _full_relation_failure(kt, t_rows):
    """The first relation column (1-based) that T sends to a nonzero class,
    read on all n rows of U; None when T is well defined."""
    n = kt.matrix.n
    for col in range(n):
        rel = [kt.presentation[row][col] for row in range(n)]
        image = [sum(t_rows[r][c] * rel[c] for c in range(n)) for r in range(n)]
        torsion, free = _full_reading(kt, image)
        if any(torsion) or any(free):
            return col + 1
    return None


def _relation_failure(kt, t_rows):
    try:
        _require_well_defined(kt, t_rows)
    except WellDefinednessFailure as exc:
        return int(str(exc).split("relation column ")[1].split()[0])
    return None


def _maps_to_check(rng, kt):
    """The identity and A^T (always well defined), p(A^T) + (I - A^T) X for
    a random polynomial p and integer X (well defined by construction), and
    two random integer matrices (mostly not well defined)."""
    n = kt.matrix.n
    at = tuple(tuple(kt.matrix.rows[j][i] for j in range(n)) for i in range(n))
    eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    x = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    shifted = _mat_mul(kt.presentation, x)
    square = _mat_mul(at, at)
    c2, c1, c0 = (rng.randint(-2, 2) for _ in range(3))
    built = tuple(
        tuple(c2 * square[i][j] + c1 * at[i][j] + c0 * eye[i][j] + shifted[i][j]
              for j in range(n))
        for i in range(n)
    )
    noise = [
        tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        for _ in range(2)
    ]
    return [(eye, True), (at, True), (built, True)] + [(t, None) for t in noise]


class TestRowRestrictedReading:
    def _corpus(self):
        """At least 70 seeded matrices each with torsion-only, free-only and
        mixed K_0 (Q and its relabellings among the free-only ones)."""
        rng = random.Random(41)
        buckets = {"torsion": [], "free": [], "mixed": []}
        for _ in range(10):
            perm = list(range(4))
            rng.shuffle(perm)
            buckets["free"].append(
                validate_matrix([[Q_ROWS[perm[i]][perm[j]] for j in range(4)] for i in range(4)])
            )
        while min(len(b) for b in buckets.values()) < 70:
            m = _random_01(rng, rng.randint(1, 8))
            kt = k_groups(m)
            kind = {(True, False): "torsion", (False, True): "free", (True, True): "mixed"}.get(
                (bool(kt.torsion), kt.rank_k0_free > 0)
            )
            if kind is not None and len(buckets[kind]) < 70:
                buckets[kind].append(m)
        return rng, buckets

    def test_matches_the_full_reading(self):
        rng, buckets = self._corpus()
        failures = passes = 0
        for kind, matrices in buckets.items():
            assert len(matrices) >= 70
            for m in matrices:
                kt = k_groups(m)
                assert kt.torsion if kind != "free" else not kt.torsion
                assert kt.rank_k0_free if kind != "torsion" else not kt.rank_k0_free
                n = m.n
                vectors = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(4)]
                vectors += [tuple(int(i == j) for j in range(n)) for i in range(n)]
                for v in vectors:
                    cls = k0_reduce(kt, v)
                    assert (cls.torsion, cls.free) == _full_reading(kt, v)
                for t, defined in _maps_to_check(rng, kt):
                    want = _full_relation_failure(kt, t)
                    if defined:
                        assert want is None
                    assert _relation_failure(kt, t) == want, (m.rows, t)
                    failures += want is not None
                    passes += want is None
        assert failures >= 100 and passes >= 600

    def test_induced_maps_from_endomorphisms(self, main_endo):
        # E, its square and identities on torsion-only, free-only and mixed K_0
        for e in (
            main_endo,
            compose(main_endo, main_endo),
            identity_endomorphism(validate_matrix([[1] * 3 for _ in range(3)])),
            identity_endomorphism(validate_matrix(Q_ROWS)),
        ):
            ind = induced_k0(e)
            assert _full_relation_failure(ind.ktheory, ind.on_generators) is None


class TestOneSmithForm:
    @pytest.fixture()
    def smith_calls(self, monkeypatch):
        calls = []
        snf = ktheory.smith_normal_form
        monkeypatch.setattr(ktheory, "smith_normal_form", lambda m: calls.append(m) or snf(m))
        return calls

    def test_library_chain(self, smith_calls):
        e = build_endomorphism(validate_matrix(MAIN_ROWS), MAIN_PAIRS)
        kt = k_groups(e.matrix)
        assert induced_k0(e).ktheory is kt
        assert lefschetz_number(e, k1_action=[[0]]).value == 1
        assert zeta_coefficients(e, 3) == [0, 1, 1, 1]
        assert len(smith_calls) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["lefschetz", "--k1-matrix", "0"],
            ["lefschetz"],
            ["zeta", "--terms", "4"],
            ["k0map"],
            ["ktheory"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_cli_commands(self, smith_calls, tmp_path, argv):
        path = tmp_path / "main.ck"
        path.write_text(MAIN_DOCUMENT)
        out, code = run([argv[0], str(path)] + argv[1:])
        assert code == 0, out
        assert len(smith_calls) == 1

    def test_held_k_groups_leave_equality_alone(self):
        filled, empty = validate_matrix(MAIN_ROWS), validate_matrix(MAIN_ROWS)
        kt = k_groups(filled)
        assert filled._k_groups == [kt] and empty._k_groups == []
        assert filled == empty and hash(filled) == hash(empty)
        assert repr(filled) == repr(empty)
        assert k_groups(empty) == kt and k_groups(empty) is not kt


class TestLefschetz:
    def test_main_supplied_k1(self, main_endo):
        res = lefschetz_number(main_endo, k1_action=[[0]])
        assert res.mode == "supplied"
        assert res.trace_k0 == 1 and res.trace_k1 == 0
        assert res.value == 1  # agrees with the stabilized index

    def test_identity_supplied_k1(self, main_identity):
        res = lefschetz_number(main_identity, k1_action=[[1]])
        assert res.value == 0  # rank K_0 - rank K_1 = 1 - 1

    def test_complete_graph_identity(self):
        m = validate_matrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
        res = lefschetz_number(identity_endomorphism(m), k1_action=[])
        assert res.value == 0  # both ranks vanish

    def test_derived_mode_flagged(self, main_endo):
        res = lefschetz_number(main_endo)
        assert res.mode == "derived"
        assert res.value == 1
        assert res.trace_k1 == res.trace_k0 - res.index

    def test_dimension_mismatch(self, main_endo):
        with pytest.raises(DimensionMismatch):
            lefschetz_number(main_endo, k1_action=[[0, 0], [0, 0]])


class TestZeta:
    def test_main_coefficients(self, main_endo):
        assert zeta_coefficients(main_endo, 5) == [0, 1, 1, 1, 1, 1]

    def test_main_reconstruction(self, main_endo):
        coeffs, rf = zeta(main_endo, 5)
        # t / (1 - t)
        assert rf.numerator == (Fraction(0), Fraction(1))
        assert rf.denominator == (Fraction(1), Fraction(-1))
        # held-out predictions: every further coefficient is 1
        assert all(c == 1 for c in rf.expand(9)[1:])

    def test_predictions_match_powers(self, main_endo):
        # coefficient n is the index of the n-th power
        _, rf = zeta(main_endo, 5)
        expanded = rf.expand(8)
        from cklef.index import stabilized_index

        for n in (6, 7):
            assert expanded[n] == stabilized_index(power(main_endo, n))

    def test_identity_zeta(self, main_identity):
        assert zeta_coefficients(main_identity, 4) == [0, 0, 0, 0, 0]

    def test_reconstruct_needs_holdout(self):
        with pytest.raises(ReconstructionInconsistent):
            zeta_reconstruct([0, 1, 1], 1, 1)

    def test_reconstruct_rejects_corruption(self):
        with pytest.raises(ReconstructionInconsistent):
            zeta_reconstruct([0, 1, 1, 1, 1, 2], 1, 1)


def _chain_coefficients(e, n_max):
    """The reference: each power composed onto e, as ``compose(e, e^(n-1))``."""
    kt = k_groups(e.matrix)
    coeffs, current = [kt.rank_k0_free - kt.rank_k1], e
    for _ in range(n_max):
        coeffs.append(stabilized_index(current))
        current = compose(e, current)
    return coeffs


class TestZetaLadder:
    """zeta_coefficients reads the powers off the halving ladder."""

    def test_composes_on_balanced_halves_and_lets_go(self, main_endo, monkeypatch):
        n_max = 8
        refs = {}  # k -> a weak reference to e^k, k >= 2
        compose_ = endo_module.compose

        def power_of(k):
            return main_endo if k == 1 else refs[k]()

        def recorded(f, g):
            k = len(refs) + 2
            assert f is power_of(k - k // 2) and g is power_of(k // 2)
            # the powers still held are the halves of e^k .. e^n_max, so
            # none above ceil(n_max / 2) = 4, whose index was read already
            halves = {h for j in range(k, n_max + 1) for h in (j - j // 2, j // 2)}
            assert {m for m, ref in refs.items() if ref()} == {h for h in halves if 1 < h < k}
            result = compose_(f, g)
            refs[k] = weakref.ref(result)
            return result

        monkeypatch.setattr(endo_module, "compose", recorded)
        assert zeta_coefficients(main_endo, n_max) == [0] + [1] * n_max
        assert sorted(refs) == list(range(2, n_max + 1))
        assert not any(ref() for ref in refs.values())

    def test_powers_are_those_of_power(self, main_endo, monkeypatch):
        made = []
        compose_ = endo_module.compose
        monkeypatch.setattr(
            endo_module, "compose", lambda f, g: made.append(compose_(f, g)) or made[-1]
        )
        zeta_coefficients(main_endo, 8)
        monkeypatch.undo()
        assert len(made) == 7
        for k, made_k in enumerate(made, start=2):
            assert made_k.raw_images == power(main_endo, k).raw_images

    def test_coefficients_match_the_chain(self, main_endo, compose_cases):
        # E; seeded inner automorphisms on E's, the golden-mean and Q's
        # matrix; an inner automorphism after E^2; complete-graph samples at
        # n = 2 and 3
        cases = [(main_endo, 8), (compose_cases[8][2], 3)]
        cases += [(compose_cases[i][0], 6) for i in (7, 12, 17, 19, 21)]
        cases += [(compose_cases[i][0], 5) for i in (23, 25)] + [(compose_cases[27][0], 3)]
        for e, n_max in cases:
            assert zeta_coefficients(e, n_max) == _chain_coefficients(e, n_max)

    def test_no_powers(self, main_endo):
        assert zeta_coefficients(main_endo, 0) == [0]

    @pytest.mark.parametrize("n_max", [-1, 2.5, 2.0, True, "3", None])
    def test_refuses_a_count_that_is_not_a_nonnegative_int(self, main_endo, n_max):
        with pytest.raises(InvalidParameter):
            zeta_coefficients(main_endo, n_max)
