import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cklef import index as index_module
from cklef.cli import (
    Report,
    document_of,
    parse_document,
    parse_structured,
    render_document,
    run,
)
from cklef.endo import compose, power
from cklef.errors import CkSyntaxError, UnallowableWord, UnknownLetter
from cklef.sampling import random_inner_automorphism
from cklef.sft_core import validate_matrix
from tests.conftest import MAIN_DOCUMENT
from tests.oracles import generator_equal


@pytest.fixture()
def main_file(tmp_path):
    path = tmp_path / "main.ck"
    path.write_text(MAIN_DOCUMENT)
    return str(path)


class TestParsing:
    def test_main_document(self, main_endo):
        doc = parse_document(MAIN_DOCUMENT)
        assert doc.matrix.rows == ((1, 1, 0), (1, 1, 1), (0, 1, 1))
        built = doc.build("t")
        assert built.valid and built.k == 2
        assert generator_equal(built, main_endo)

    def test_digit_string_shorthand(self):
        commas = "n = 3\nA = 110 111 011\n[t1]\n1 <- e\n2,3,3 <- 2,3\n"
        digits = "n = 3\nA = 110 111 011\n[t1]\n1 <- e\n233 <- 23\n"
        # incomplete presentations still parse identically
        a = parse_document(commas.replace("[t1]", "[t1]") + "[t2]\n2 <- e\n[t3]\n3 <- e\n")
        b = parse_document(digits + "[t2]\n2 <- e\n[t3]\n3 <- e\n")
        assert a.endos == b.endos

    def test_comments_and_blank_lines_ignored(self):
        doc = parse_document(MAIN_DOCUMENT)
        noisy = MAIN_DOCUMENT.replace("[t2]", "# noise\n\n[t2]  # trailing")
        assert parse_document(noisy).endos == doc.endos

    def test_unknown_letter(self):
        text = "n = 3\nA = 110 111 011\n[t1]\n1,4 <- e\n[t2]\n2 <- e\n[t3]\n3 <- e\n"
        with pytest.raises(UnknownLetter):
            parse_document(text)

    def test_unallowable_word(self):
        text = "n = 3\nA = 110 111 011\n[t1]\n1,3 <- e\n[t2]\n2 <- e\n[t3]\n3 <- e\n"
        with pytest.raises(UnallowableWord):
            parse_document(text)

    def test_missing_generator_block(self):
        text = "n = 3\nA = 110 111 011\n[t1]\n1 <- e\n"
        with pytest.raises(CkSyntaxError):
            parse_document(text)

    def test_syntax_error_reports_line(self):
        text = "n = 3\nA = 110 111 011\n[t1]\nthis is not a rule\n"
        with pytest.raises(CkSyntaxError) as exc:
            parse_document(text)
        assert exc.value.line == 4

    def test_render_round_trip(self, main_endo, main_matrix):
        text = render_document(document_of(main_matrix, "t", main_endo))
        again = parse_document(text)
        assert generator_equal(again.build("t"), main_endo)


_HEAD = "n = 3\nA = 110 111 011\n"
_TAIL = "[t2]\n2 <- e\n[t3]\n3 <- e\n"
_ROWS10 = " ".join(["1111111111"] * 10)
# every error parse_document raises: the document, the message with its
# position, and that (line, column)
PARSE_ERRORS = {
    "empty": ("", "empty document (line 1, column 1)", (1, 1)),
    "only-comments": ("# nothing\n\n", "empty document (line 1, column 1)", (1, 1)),
    "n-line": ("m = 3\n", "expected 'n = <int>' (line 1, column 1)", (1, 1)),
    "n-not-int": ("# header\nn = three\n", "expected 'n = <int>' (line 2, column 1)", (2, 1)),
    # the document ends after n: the error is on the line after n's
    "a-missing": ("n = 3\n", "expected 'A = <rows>' (line 2, column 1)", (2, 1)),
    "a-missing-after-comment": (
        "n = 3\n# no rows\n\n", "expected 'A = <rows>' (line 2, column 1)", (2, 1)
    ),
    "a-wrong": ("n = 3\nB = 110 111 011\n", "expected 'A = <rows>' (line 2, column 1)", (2, 1)),
    "row-count": ("n = 3\nA = 110 111\n", "expected 3 rows, got 2 (line 2, column 1)", (2, 1)),
    "row-character": (
        "n = 3\nA = 110 121 011\n",
        "row '121' must be 3 characters of 0/1 (line 2, column 1)",
        (2, 1),
    ),
    "row-length": (
        "n = 3\nA = 110 1111 011\n",
        "row '1111' must be 3 characters of 0/1 (line 2, column 1)",
        (2, 1),
    ),
    "undotted-from-n10": (
        f"n = 10\nA = {_ROWS10}\n[t10]\n1 <- e\n",
        "block [t10] is ambiguous when n >= 10; write it as [<name>.<i>], as in [t.10]"
        " (line 3, column 1)",
        (3, 1),
    ),
    "index-out-of-range": (
        _HEAD + "[t.4]\n1 <- e\n",
        "block [t.4] must end in a generator index 1..3 (line 3, column 1)",
        (3, 1),
    ),
    "undotted-index-out-of-range": (
        _HEAD + "[t4]\n1 <- e\n",
        "block [t4] must end in a generator index 1..3 (line 3, column 1)",
        (3, 1),
    ),
    "duplicate-block": (
        _HEAD + "[t1]\n1 <- e\n[t1]\n1 <- e\n", "duplicate block [t1] (line 5, column 1)", (5, 1)
    ),
    "pair-before-header": (
        _HEAD + "1 <- e\n",
        "expected a '[name<i>]' or '[name.<i>]' block header (line 3, column 1)",
        (3, 1),
    ),
    "no-arrow": (_HEAD + "[t1]\n1 -> e\n", "expected '<nu> <- <mu>' (line 4, column 1)", (4, 1)),
    # every error on a word points at the column where the word starts
    "letter-in-mu": (
        _HEAD + "[t1]\n1 <- x\n", "expected a letter, got 'x' (line 4, column 6)", (4, 6)
    ),
    "letter-in-nu": (
        _HEAD + "[t1]\n  y <- e\n", "expected a letter, got 'y' (line 4, column 3)", (4, 3)
    ),
    "unknown-letter": (
        _HEAD + "[t1]\n1,4 <- e\n" + _TAIL,
        "letter 4 outside the alphabet (line 4, column 1)",
        (4, 1),
    ),
    "unknown-letter-indented": (
        _HEAD + "[t1]\n  1,4 <- e\n" + _TAIL,
        "letter 4 outside the alphabet (line 4, column 3)",
        (4, 3),
    ),
    "unknown-letter-in-mu": (
        _HEAD + "[t1]\n1 <- 2,4\n" + _TAIL,
        "letter 4 outside the alphabet (line 4, column 6)",
        (4, 6),
    ),
    "unallowable-word": (
        _HEAD + "[t1]\n1,3 <- e\n" + _TAIL,
        "word (1, 3) is not allowable (line 4, column 1)",
        (4, 1),
    ),
    "unallowable-word-indented": (
        _HEAD + "[t1]\n  1,3 <- e\n" + _TAIL,
        "word (1, 3) is not allowable (line 4, column 3)",
        (4, 3),
    ),
    "unallowable-word-in-mu": (
        _HEAD + "[t1]\n1 <- 1,3\n" + _TAIL,
        "word (1, 3) is not allowable (line 4, column 6)",
        (4, 6),
    ),
    "unallowable-word-in-mu-indented": (
        _HEAD + "[t1]\n  1 <-   1,3  # comment\n" + _TAIL,
        "word (1, 3) is not allowable (line 4, column 10)",
        (4, 10),
    ),
    "missing-generator-blocks": (
        _HEAD + "[t1]\n1 <- e\n\n# end\n",
        "endomorphism 't' is missing generator blocks [2, 3] (line 6, column 1)",
        (6, 1),
    ),
}


class TestParseErrors:
    @pytest.mark.parametrize("text, message, where", PARSE_ERRORS.values(), ids=PARSE_ERRORS)
    def test_message_position_and_exit_code(self, text, message, where):
        with pytest.raises((CkSyntaxError, UnknownLetter, UnallowableWord)) as exc:
            parse_document(text)
        error = exc.value
        assert str(error) == message
        position = error.position if hasattr(error, "position") else (error.line, error.col)
        assert position == where
        assert run(["validate", "-"], stdin_text=text) == (f"parse error: {message}\n", 2)

    @pytest.mark.parametrize(
        "text, argv, message",
        [
            (MAIN_DOCUMENT, ["--endo", "nope"], "no endomorphism named 'nope' in the document"),
            (_HEAD, [], "document defines no endomorphism"),
        ],
        ids=["no-endomorphism-named", "no-endomorphism-defined"],
    )
    def test_document_error_is_one(self, text, argv, message):
        assert run(["validate", "-"] + argv, stdin_text=text) == (f"error: {message}\n", 1)


def _inner_automorphism(n, seed):
    rng = random.Random(seed)
    while True:
        rows = [[int(rng.random() < 0.5) for _ in range(n)] for _ in range(n)]
        if all(any(r) for r in rows) and all(any(c) for c in zip(*rows)):
            return random_inner_automorphism(validate_matrix(rows), rng, depth=2)


class TestBlockLabels:
    """From n = 10 on, generator blocks are written [name.i]."""

    def test_round_trip_at_n12(self, tmp_path):
        e = _inner_automorphism(12, 5)
        text = render_document(document_of(e.matrix, "t", e))
        assert "[t.11]" in text and "[t.12]" in text and "[t11]" not in text
        built = parse_document(text).build("t")
        assert built.valid and built.raw_images == e.raw_images
        path = tmp_path / "inner12.ck"
        path.write_text(text)
        out, code = run(["--structured", "k0map", str(path)])
        assert code == 0
        assert parse_structured(out)["well.defined"] is True

    def test_undotted_label_refused_from_n10(self):
        e = _inner_automorphism(10, 6)
        text = render_document(document_of(e.matrix, "t", e)).replace("[t.10]", "[t10]")
        with pytest.raises(CkSyntaxError, match=r"\[<name>\.<i>\]"):
            parse_document(text)

    def test_small_n_keeps_undotted_labels(self, main_endo, main_matrix):
        text = render_document(document_of(main_matrix, "tp2", main_endo))
        assert "[tp21]" in text and "." not in text
        dotted = text.replace("[tp21]", "[tp2.1]").replace("[tp23]", "[tp2.3]")
        assert parse_document(dotted).endos == parse_document(text).endos

    def test_dotted_index_out_of_range(self):
        with pytest.raises(CkSyntaxError, match="1..3"):
            parse_document("n = 3\nA = 110 111 011\n[t.4]\n1 <- e\n")


# t2 and t3 share the range 2
INVALID_DOCUMENT = "n = 3\nA = 110 111 011\n[t1]\n1 <- e\n[t2]\n2 <- e\n[t3]\n2 <- e\n"


class TestRunExitCodes:
    def test_validate_ok(self, main_file):
        out, code = run(["validate", main_file])
        assert code == 0
        assert "valid" in out

    def test_stdin_input(self):
        out, code = run(["validate", "-"], stdin_text=MAIN_DOCUMENT)
        assert code == 0

    def test_parse_error_is_two(self):
        out, code = run(["validate", "-"], stdin_text="garbage\n")
        assert code == 2
        assert out.startswith("parse error:")

    def test_unallowable_word_is_two(self):
        text = "n = 3\nA = 110 111 011\n[t1]\n1,3 <- e\n[t2]\n2 <- e\n[t3]\n3 <- e\n"
        _, code = run(["validate", "-"], stdin_text=text)
        assert code == 2

    @pytest.mark.parametrize(
        "rows, message",
        [("10 00", "row 2 is zero"), ("10 10", "column 2 is zero")],
        ids=["zero-row", "zero-column"],
    )
    def test_zero_row_or_column_is_two(self, rows, message):
        text = f"n = 2\nA = {rows}\n[t1]\n1 <- e\n[t2]\n2 <- e\n"
        out, code = run(["validate", "-"], stdin_text=text)
        assert code == 2
        assert out == f"parse error: {message} (line 2, column 1)\n"

    def test_missing_file_is_two(self):
        _, code = run(["validate", "/nonexistent/path.ck"])
        assert code == 2

    def test_non_utf8_file_is_two(self, tmp_path):
        # a UTF-16 byte-order mark cannot start UTF-8 text
        path = tmp_path / "utf16.ck"
        path.write_bytes(b"\xff\xfe" + MAIN_DOCUMENT.encode("utf-16-le"))
        message = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        assert run(["validate", str(path)]) == (f"parse error: {message}\n", 2)

    def test_unknown_endo_is_one(self, main_file):
        out, code = run(["index", main_file, "--endo", "nope"])
        assert code == 1
        assert out.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["lefschetz", "--k1-matrix", "x"],
            ["zeta", "--terms", "-1"],
            ["power", "--n", "0"],
            # K_1 of E's algebra has rank 1; lefschetz_number checks the size
            ["lefschetz", "--k1-matrix", "0,0;0,0"],
        ],
        ids=["k1-matrix", "terms", "n", "k1-matrix-size"],
    )
    def test_out_of_range_option_is_one(self, main_file, argv):
        out, code = run(argv[:1] + [main_file] + argv[1:])
        assert code == 1
        assert out.startswith("error:")

    def test_negative_terms_name_the_count(self, main_file):
        assert run(["zeta", main_file, "--terms", "-1"]) == (
            "error: n_max must be >= 0, got -1\n", 1
        )

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_power_of_an_invalid_presentation_is_one(self, n):
        # t^1 is refused like t^2
        out, code = run(["power", "-", "--n", n], stdin_text=INVALID_DOCUMENT)
        assert (out, code) == ("error: presentation fails the Cuntz-Krieger checks\n", 1)

    @pytest.mark.parametrize(
        "argv",
        [
            ["index"],
            ["k0map"],
            ["lefschetz"],
            ["lefschetz", "--k1-matrix", "0"],
            ["zeta"],
            ["compose", "--with", "t"],
        ],
        ids=["index", "k0map", "lefschetz", "lefschetz-k1-matrix", "zeta", "compose"],
    )
    def test_every_command_refuses_an_invalid_presentation(self, argv):
        # the power case is test_power_of_an_invalid_presentation_is_one
        out, code = run(argv[:1] + ["-"] + argv[1:], stdin_text=INVALID_DOCUMENT)
        assert (out, code) == ("error: presentation fails the Cuntz-Krieger checks\n", 1)

    def test_validate_of_an_invalid_presentation_warns(self):
        out, code = run(["--structured", "validate", "-"], stdin_text=INVALID_DOCUMENT)
        assert code == 0
        data = parse_structured(out)
        assert data["valid"] is False
        assert data["warning.0"] == "presentation fails the Cuntz-Krieger checks"

    @pytest.mark.parametrize("name", ["t.x", "a b", "9abc", "a-b"])
    @pytest.mark.parametrize(
        "argv", [["compose", "--with", "t"], ["power", "--n", "2"]], ids=["compose", "power"]
    )
    def test_unreadable_name_is_one(self, main_file, tmp_path, argv, name):
        # a name the parser would not read back is refused, and no file written
        out_path = tmp_path / "o.ck"
        out, code = run(
            argv[:1] + [main_file] + argv[1:] + ["--name", name, "--out", str(out_path)]
        )
        assert (out, code) == (
            f"error: --name must match [A-Za-z_][A-Za-z_0-9]*, got {name!r}\n", 1
        )
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "argv", [["compose", "--with", "t"], ["power", "--n", "2"]], ids=["compose", "power"]
    )
    def test_name_is_checked_before_composing(self, argv):
        # composing the invalid presentation would raise; the name is refused first
        argv = argv[:1] + ["-"] + argv[1:] + ["--name", "t.x"]
        out, code = run(argv, stdin_text=INVALID_DOCUMENT)
        assert (out, code) == ("error: --name must match [A-Za-z_][A-Za-z_0-9]*, got 't.x'\n", 1)

    def test_name_ending_in_a_digit_round_trips(self, main_file, tmp_path, main_endo):
        # at n = 3 the block [t11] reads as generator 1 of t1
        out_path = tmp_path / "o.ck"
        _, code = run(["power", main_file, "--n", "2", "--name", "t1", "--out", str(out_path)])
        assert code == 0
        doc = parse_document(out_path.read_text())
        assert list(doc.endos) == ["t1"]
        assert generator_equal(doc.build("t1"), power(main_endo, 2))

    @pytest.mark.parametrize(
        "argv", [["compose", "--with", "t"], ["power", "--n", "2"]], ids=["compose", "power"]
    )
    def test_unwritable_out_is_one(self, main_file, tmp_path, argv):
        out_path = tmp_path / "no-such-dir" / "x.ck"
        out, code = run(argv[:1] + [main_file] + argv[1:] + ["--out", str(out_path)])
        assert code == 1
        assert out.startswith("error:") and str(out_path) in out
        assert not out_path.parent.exists()


def test_module_runs_as_a_script(tmp_path):
    # python -m cklef.cli runs main(), and prints nothing on stderr: the
    # package does not import cklef.cli before runpy executes it, which
    # would make Python warn
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    (tmp_path / "main.ck").write_text(MAIN_DOCUMENT)
    (tmp_path / "bad.ck").write_text("n = 3\n")

    def script(name):
        return subprocess.run(
            [sys.executable, "-m", "cklef.cli", "validate", str(tmp_path / name)],
            capture_output=True, text=True, env=env, timeout=60,
        )

    ok = script("main.ck")
    assert ok.returncode == 0 and ok.stdout.startswith("command: validate\n")
    assert ok.stderr == ""
    bad = script("bad.ck")
    assert bad.returncode == 2 and bad.stderr == ""
    assert bad.stdout == "parse error: expected 'A = <rows>' (line 2, column 1)\n"


class TestSubcommands:
    def test_index_all_methods_agree(self, main_file):
        out, code = run(["--structured", "index", main_file])
        assert code == 0
        data = parse_structured(out)
        assert data["series.value"] == 1
        assert data["gamma.value"] == 1
        assert data["polynomial.value"] == 1
        assert data["fredholm.value"] == 1
        assert data["index.k1"] == 1 and data["index.k2"] == 0

    def test_index_depth_is_fredholm_only(self, main_file):
        # the series, gamma and the Fredholm count all run to the proven
        # series end, 3 on E
        out, _ = run(["--structured", "index", main_file])
        data = parse_structured(out)
        assert data["series.depth"] == data["fredholm.depth"] == data["gamma.m"] == 3
        assert [k for k in data if k.startswith("index.k")] == ["index.k1", "index.k2", "index.k3"]
        assert data["series.value"] == data["fredholm.value"] == 1

    def test_index_on_identity_defaults_gamma_m_to_one(self, tmp_path):
        # gamma's default m is the series end, 1 on an identity (k = 0)
        path = tmp_path / "identity.ck"
        path.write_text("n = 3\nA = 110 111 011\n[t1]\n1 <- e\n[t2]\n2 <- e\n[t3]\n3 <- e\n")
        out, code = run(["--structured", "index", str(path)])
        assert code == 0
        data = parse_structured(out)
        assert data["gamma.m"] == 1
        assert data["gamma.value"] == 0
        assert data["series.value"] == data["fredholm.value"] == 0

    def test_index_on_cube_agrees_on_every_route(self, tmp_path, main_matrix, main_endo):
        # gamma and Fredholm default to the series end, 8 on E^3
        path = tmp_path / "cube.ck"
        path.write_text(render_document(document_of(main_matrix, "t", power(main_endo, 3))))
        out, code = run(["--structured", "index", str(path)])
        assert code == 0
        data = parse_structured(out)
        assert data["gamma.m"] == data["fredholm.depth"] == data["series.depth"] == 8
        for route in ("series", "gamma", "polynomial", "fredholm"):
            assert data[f"{route}.value"] == 1

    @pytest.mark.parametrize("method", ["all", "gamma", "fredholm"])
    def test_index_walks_one_landing_table(self, main_file, monkeypatch, method):
        # gamma reads the walk's table at the series end, so the command
        # fills it once when gamma is asked for; Fredholm counts its own
        # domain words and fills none
        kernels = []
        table = index_module._table

        def recorded(e, depth, counts_of):
            kernels.append((counts_of.__name__, depth))
            return table(e, depth, counts_of)

        monkeypatch.setattr(index_module, "_table", recorded)
        out, code = run(["--structured", "index", main_file, "--method", method])
        assert code == 0
        walked = [] if method == "fredholm" else [("_class_counts", 3)]
        assert [k for k in kernels if k[0] == "_class_counts"] == walked
        data = parse_structured(out)
        assert data.get("gamma.value", 1) == data.get("fredholm.value", 1) == 1

    def test_index_polynomial_parts(self, main_file):
        # the formula runs at N = max(bound, 1) = 1 and m = 1 + N + k = 4 on E
        out, _ = run(["--structured", "index", main_file, "--method", "polynomial"])
        data = parse_structured(out)
        assert data["polynomial.m"] == 4
        assert data["polynomial.N"] == 1
        assert data["polynomial.positive"] == 18
        assert data["polynomial.negative"] == 17

    def test_ktheory(self, main_file):
        out, code = run(["--structured", "ktheory", main_file])
        assert code == 0
        data = parse_structured(out)
        assert data["invariant.factors"] == (1, 1, 0)
        assert data["K0"] == "Z" and data["K1"] == "Z"

    def test_k0map(self, main_file):
        out, code = run(["--structured", "k0map", main_file])
        assert code == 0
        data = parse_structured(out)
        assert data["T.row1"] == (4, 1, 0)
        assert data["T.row2"] == (5, 1, 1)
        assert data["T.row3"] == (3, 1, 1)
        assert data["M0.row1"] == (1,)
        assert data["well.defined"] is True

    def test_lefschetz_supplied(self, main_file):
        out, code = run(
            ["--structured", "lefschetz", main_file, "--k1-matrix", "0"]
        )
        assert code == 0
        data = parse_structured(out)
        assert data["lefschetz"] == Fraction(1)
        assert data["index"] == 1
        assert data["theorem.check"] == "PASS"

    def test_lefschetz_derived_flagged(self, main_file):
        out, code = run(["lefschetz", main_file])
        assert code == 0
        assert "DERIVED" in out

    def test_zeta(self, main_file):
        out, code = run(["--structured", "zeta", main_file, "--terms", "5"])
        assert code == 0
        data = parse_structured(out)
        assert data["coefficients"] == (0, 1, 1, 1, 1, 1)
        assert data["numerator"] == "0 1"
        assert data["denominator"] == "1 -1"
        assert data["predicted.next"] == "1 1 1"

    def test_compose_round_trip(self, main_file, tmp_path, main_endo):
        out_path = str(tmp_path / "square.ck")
        out, code = run(
            ["compose", main_file, "--with", "t", "--out", out_path, "--name", "sq"]
        )
        assert code == 0
        doc = parse_document(open(out_path).read())
        assert generator_equal(doc.build("sq"), compose(main_endo, main_endo))

    def test_power_round_trip_and_index(self, main_file, tmp_path, main_endo):
        out_path = str(tmp_path / "p2.ck")
        _, code = run(["power", main_file, "--n", "2", "--out", out_path])
        assert code == 0
        text = open(out_path).read()
        doc = parse_document(text)
        built = doc.build(doc.default_name())
        assert generator_equal(built, power(main_endo, 2))
        # the emitted document is directly consumable by the other commands
        out, code = run(["--structured", "index", out_path, "--method", "series"])
        assert code == 0
        data = parse_structured(out)
        assert data["series.value"] == 1
        assert data["index.k3"] == 0 and data["index.k4"] == 0


    def test_validate_lists_maximal_range_cylinders(self, main_file):
        out, code = run(["--structured", "validate", main_file])
        assert code == 0
        data = parse_structured(out)
        assert data["valid"] is True
        assert (data["range.1"], data["range.2"], data["range.3"]) == ("1 2", "3,2", "3,3")

    def test_validate_overlapping_ranges(self):
        # the ranges 1 and 1,1 of t1 overlap, so t1 t1* is not a projection
        text = (
            "n = 3\nA = 110 111 011\n[t1]\n1 <- 1\n1,1 <- 2\n"
            "[t2]\n2 <- e\n[t3]\n3 <- e\n"
        )
        out, code = run(["--structured", "validate", "-"], stdin_text=text)
        assert code == 0
        data = parse_structured(out)
        assert data["valid"] is False
        assert data["warning.0"] == "presentation fails the Cuntz-Krieger checks"
        assert data["range.1"] == "1"

    def test_deep_power_round_trip(self, main_file, tmp_path):
        # the written sixth power is checked afresh once it is parsed back
        out_path = str(tmp_path / "p6.ck")
        _, code = run(["power", main_file, "--n", "6", "--out", out_path])
        assert code == 0
        out, code = run(["--structured", "validate", out_path])
        assert code == 0
        assert parse_structured(out)["valid"] is True
        out, code = run(["--structured", "index", out_path, "--method", "polynomial"])
        assert code == 0
        assert parse_structured(out)["polynomial.value"] == 1

class TestStructuredFormat:
    def test_round_trip_all_tags(self):
        report = Report(command="demo")
        report.add("a", 3)
        report.add("b", True)
        report.add("c", Fraction(-7, 3))
        report.add("d", (1, -2, 3))
        report.add("e", "text with spaces")
        report.add("f", "tab\tbackslash\\n newline\n return\r")
        report.warn("be careful")
        report.warn("two\nlines")
        rendered = report.render_structured()
        assert rendered.count("\n") == 9
        data = parse_structured(rendered)
        assert data["a"] == 3
        assert data["b"] is True
        assert data["c"] == Fraction(-7, 3)
        assert data["d"] == (1, -2, 3)
        assert data["e"] == "text with spaces"
        assert data["f"] == "tab\tbackslash\\n newline\n return\r"
        assert data["warning.0"] == "be careful"
        assert data["warning.1"] == "two\nlines"

    def test_deterministic_output(self, main_file):
        a, _ = run(["--structured", "index", main_file])
        b, _ = run(["--structured", "index", main_file])
        assert a == b

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate"],
            ["index"],
            ["ktheory"],
            ["k0map"],
            ["lefschetz"],
            ["lefschetz", "--k1-matrix", "0"],
            ["zeta", "--terms", "4"],
            ["compose", "--with", "t"],
            ["power", "--n", "2"],
        ],
    )
    def test_every_subcommand_parses_back(self, main_file, argv):
        out, code = run(["--structured", argv[0], main_file] + argv[1:])
        assert code == 0
        data = parse_structured(out)
        assert data["command"] == argv[0]
        assert len(data) == len(out.splitlines())

    def test_power_document_value_is_the_written_document(self, main_file, tmp_path):
        out_path = tmp_path / "p2.ck"
        _, code = run(["power", main_file, "--n", "2", "--out", str(out_path)])
        assert code == 0
        out, code = run(["--structured", "power", main_file, "--n", "2"])
        assert code == 0
        # the value starts on a line of its own, as in the plain report
        assert parse_structured(out)["document"] == "\n" + out_path.read_text()

    @pytest.mark.parametrize(
        "argv, pairs, k",
        [
            (["power", "--n", "1"], 7, 2),
            (["power", "--n", "8"], 768, 37),
            (["compose", "--with", "t"], 12, 4),
        ],
    )
    def test_pair_count_round_trips(self, main_file, argv, pairs, k):
        out, code = run(["--structured", argv[0], main_file] + argv[1:])
        assert code == 0
        data = parse_structured(out)
        assert (data["pairs"], data["k"]) == (pairs, k)
        written = parse_document(data["document"])
        built = written.build(written.default_name())
        assert sum(map(len, built.raw_images)) == pairs
