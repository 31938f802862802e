"""The exact linear algebra runs in ints where the data are integral, but the
public scalars keep their types: every structured tag the CLI prints on the
worked example, and the Fraction results of the graded harness and the
K-theory layer.  Integer parameters take an ``int`` and nothing else: a
float, a ``bool`` or a Fraction is refused with ``InvalidParameter``."""

from fractions import Fraction

import pytest

from cklef.cli import run
from cklef.endo import path_map, power, represent_at_depth
from cklef.errors import InvalidParameter
from cklef.graded import (
    GradedSpace,
    graded_map,
    graded_pairing,
    graded_trace,
    index_pairing,
)
from cklef.index import (
    fredholm_index_truncated,
    gamma,
    index_polynomial,
    length_transfer_counted,
)
from cklef.ktheory import (
    generator_class,
    k0_reduce,
    k_groups,
    lefschetz_number,
    smith_normal_form,
    zeta_coefficients,
    zeta_reconstruct,
)
from cklef.sft_core import count_paths, enumerate_paths, iter_paths
from tests.conftest import MAIN_DOCUMENT


def _tags(argv):
    out, code = run(["--structured"] + argv, stdin_text=MAIN_DOCUMENT)
    assert code == 0
    return [tuple(line.split("\t")[:2]) for line in out.splitlines()]


@pytest.mark.parametrize(
    "argv, tags",
    [
        (
            ["lefschetz", "-"],
            [
                ("command", "str"),
                ("endomorphism", "str"),
                ("mode", "str"),
                ("trace.K0", "frac"),
                ("trace.K1.derived", "frac"),
                ("lefschetz", "frac"),
                ("index", "int"),
                ("warning.0", "str"),
            ],
        ),
        (
            ["lefschetz", "-", "--k1-matrix", "0"],
            [
                ("command", "str"),
                ("endomorphism", "str"),
                ("mode", "str"),
                ("trace.K0", "frac"),
                ("trace.K1", "frac"),
                ("lefschetz", "frac"),
                ("index", "int"),
                ("theorem.check", "str"),
            ],
        ),
        (
            ["zeta", "-", "--terms", "6"],
            [
                ("command", "str"),
                ("endomorphism", "str"),
                ("coefficients", "ints"),
                ("numerator", "str"),
                ("denominator", "str"),
                ("predicted.next", "str"),
            ],
        ),
        (
            ["k0map", "-"],
            [
                ("command", "str"),
                ("endomorphism", "str"),
                ("T.row1", "ints"),
                ("T.row2", "ints"),
                ("T.row3", "ints"),
                ("M0.row1", "ints"),
                ("well.defined", "bool"),
            ],
        ),
        (
            ["ktheory", "-"],
            [
                ("command", "str"),
                ("invariant.factors", "ints"),
                ("K0", "str"),
                ("K1", "str"),
                ("class.e1.free", "ints"),
                ("class.e2.free", "ints"),
                ("class.e3.free", "ints"),
            ],
        ),
    ],
    ids=["lefschetz-derived", "lefschetz-supplied", "zeta", "k0map", "ktheory"],
)
def test_structured_tags_on_the_worked_example(argv, tags):
    assert _tags(argv) == tags


def test_lefschetz_result_fields_are_fractions(main_endo):
    supplied = lefschetz_number(main_endo, k1_action=[[0]])
    derived = lefschetz_number(main_endo)
    for result in (supplied, derived):
        assert type(result.value) is Fraction
        assert type(result.trace_k0) is Fraction
        assert type(result.trace_k1) is Fraction
    assert type(derived.index) is int


def test_graded_scalars_are_fractions():
    space = GradedSpace(2, 1)
    f = graded_map(space, space, 0, [[[1, 2], [3, 4]], [[5]]])
    p = graded_pairing(space, space, 0, [[[1, 0], [0, 1]], [[1]]])
    assert type(graded_trace(f)) is Fraction and graded_trace(f) == 0
    assert type(index_pairing(p, f)) is Fraction and index_pairing(p, f) == 0
    empty = GradedSpace(0, 0)
    zero = graded_map(empty, empty, 0, [[], []])
    assert type(graded_trace(zero)) is Fraction
    assert type(index_pairing(graded_pairing(empty, empty, 0, [[], []]), zero)) is Fraction


def test_rational_function_coefficients_are_fractions():
    rf = zeta_reconstruct([0, 1, 1, 1, 1, 1], 1, 1)
    assert all(type(c) is Fraction for c in rf.numerator + rf.denominator)
    assert all(type(c) is Fraction for c in rf.expand(8))


# (call on the worked example E, the exact message it must raise)
NON_INT_PARAMETERS = {
    "gamma-float": (lambda e: gamma(path_map(e), 4.0), "m must be an int, got 4.0"),
    "gamma-bool": (lambda e: gamma(path_map(e), True), "m must be an int, got True"),
    "gamma-zero": (lambda e: gamma(path_map(e), 0), "m must be >= 1"),
    "fredholm-float": (
        lambda e: fredholm_index_truncated(path_map(e), 6.0), "depth must be an int, got 6.0"
    ),
    "fredholm-zero": (lambda e: fredholm_index_truncated(path_map(e), 0), "depth must be >= 1"),
    "fredholm-str": (
        lambda e: fredholm_index_truncated(path_map(e), "3"), "depth must be an int, got '3'"
    ),
    "polynomial-m": (lambda e: index_polynomial(e, 4.0, 1), "m must be an int, got 4.0"),
    "polynomial-N": (lambda e: index_polynomial(e, 4, 1.5), "N must be an int, got 1.5"),
    "counted-table": (
        lambda e: length_transfer_counted(e, 8.0), "max_len must be an int, got 8.0"
    ),
    "represent": (lambda e: represent_at_depth(e, 2.5), "k must be an int, got 2.5"),
    "k0-vector": (
        lambda e: k0_reduce(k_groups(e.matrix), [Fraction(1, 2), 0, 0]),
        "a vector entry must be an int, got Fraction(1, 2)",
    ),
    "k0-vector-bool": (
        lambda e: k0_reduce(k_groups(e.matrix), [0, True, 0]),
        "a vector entry must be an int, got True",
    ),
    "power-float": (lambda e: power(e, 2.0), "an exponent must be an int, got 2.0"),
    "power-zero": (lambda e: power(e, 0), "an exponent must be >= 1, got 0"),
    "paths-float": (lambda e: enumerate_paths(e.matrix, 2.0), "k must be an int, got 2.0"),
    "paths-bool": (lambda e: enumerate_paths(e.matrix, True), "k must be an int, got True"),
    "iter-paths-str": (lambda e: list(iter_paths(e.matrix, "2")), "k must be an int, got '2'"),
    # refused at the call, before the first word is asked for
    "iter-paths-str-call": (lambda e: iter_paths(e.matrix, "2"), "k must be an int, got '2'"),
    "count-paths-bool": (
        lambda e: count_paths(e.matrix, None, 1, True), "L must be an int, got True"
    ),
    "count-paths-float": (
        lambda e: count_paths(e.matrix, None, 1, 2.0), "L must be an int, got 2.0"
    ),
    "snf-float": (
        lambda e: smith_normal_form([[1.5, 0], [0, 2]]), "a matrix entry must be an int, got 1.5"
    ),
    "snf-str": (lambda e: smith_normal_form([["3"]]), "a matrix entry must be an int, got '3'"),
    "lefschetz-k1-float": (
        lambda e: lefschetz_number(e, k1_action=[[0.1]]),
        "a K_1 action entry must be an int, got 0.1",
    ),
    "lefschetz-k1-str": (
        lambda e: lefschetz_number(e, k1_action=[["1/3"]]),
        "a K_1 action entry must be an int, got '1/3'",
    ),
    "lefschetz-k1-bool": (
        lambda e: lefschetz_number(e, k1_action=[[True]]),
        "a K_1 action entry must be an int, got True",
    ),
    "generator-bool": (
        lambda e: generator_class(k_groups(e.matrix), True),
        "generator index must be an int, got True",
    ),
    "generator-float": (
        lambda e: generator_class(k_groups(e.matrix), 2.0),
        "generator index must be an int, got 2.0",
    ),
    "zeta-terms-negative": (lambda e: zeta_coefficients(e, -1), "n_max must be >= 0, got -1"),
    "zeta-terms-float": (lambda e: zeta_coefficients(e, 2.0), "n_max must be an int, got 2.0"),
    "zeta-num-negative": (
        lambda e: zeta_reconstruct([0, 1, 1, 1, 1, 1], -1, 1), "deg_num must be >= 0"
    ),
    "zeta-den-negative": (
        lambda e: zeta_reconstruct([0, 1, 1, 1, 1, 1], 1, -1), "deg_den must be >= 0"
    ),
    "zeta-num-float": (
        lambda e: zeta_reconstruct([0, 1, 1, 1, 1, 1], 1.0, 1), "deg_num must be an int, got 1.0"
    ),
    "zeta-den-bool": (
        lambda e: zeta_reconstruct([0, 1, 1, 1, 1, 1], 1, True), "deg_den must be an int, got True"
    ),
}


@pytest.mark.parametrize("call, message", NON_INT_PARAMETERS.values(), ids=NON_INT_PARAMETERS)
def test_integer_parameters_refuse_other_types(main_endo, call, message):
    with pytest.raises(InvalidParameter) as exc:
        call(main_endo)
    assert str(exc.value) == message


def test_zero_degrees_are_accepted():
    # a constant series fits p/q with deg p = deg q = 0
    rf = zeta_reconstruct([3, 0, 0, 0], 0, 0)
    assert rf.numerator == (Fraction(3),) and rf.denominator == (Fraction(1),)
