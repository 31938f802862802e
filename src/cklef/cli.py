"""Command-line interface: document parsing, reports, and subcommands.

Input documents describe a transition matrix and named endomorphisms::

    # comments run to end of line
    n = 3
    A = 110 111 011

    [t1]
    1,1 <- 2,1
    2 <- 1

    [t2]
    3,2 <- e

Each block ``[<name><i>]`` lists the presentation pairs ``nu <- mu`` of
generator ``i`` of endomorphism ``<name>``; ``e`` is the empty word, and a
bare digit string like ``233`` may abbreviate ``2,3,3`` when n <= 9.  From
n = 10 on, ``[t11]`` could be generator 11 of ``t`` or generator 1 of
``t1``, so blocks must be written ``[<name>.<i>]``, as in ``[t.11]``; the
dotted form is accepted for every n.

Subcommands: validate, index, ktheory, k0map, lefschetz, zeta, compose,
power.  Exit codes: 0 success, 1 domain/validation failure, 2 parse error.
Run as ``cklef`` or ``python -m cklef.cli``.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .endo import (
    GeometricEndomorphism,
    build_endomorphism,
    compose,
    path_map,
    power,
)
from .errors import (
    CkError,
    CkSyntaxError,
    InvalidParameter,
    UnallowableWord,
    UnknownLetter,
    ZeroRowOrColumn,
)
from .index import (
    fredholm_index_truncated,
    index_polynomial_parts,
    index_series_counted,
    landing_table,
    propagation,
    series_end,
)
from .ktheory import (
    generator_class,
    induced_k0,
    k_groups,
    lefschetz_number,
    zeta,
)
from .sft_core import TransitionMatrix, Word, is_allowable, validate_matrix


# ---------------------------------------------------------------------------
# Document model and parser.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CkDocument:
    matrix: TransitionMatrix
    endos: dict[str, list[list[tuple[Word, Word]]]]

    def build(self, name: str) -> GeometricEndomorphism:
        return build_endomorphism(self.matrix, self.endos[name])

    def default_name(self) -> str:
        if not self.endos:
            raise CkError("document defines no endomorphism")
        return next(iter(self.endos))


# An endomorphism's name, as block labels and --name spell it.
_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_BLOCK_RE = re.compile(rf"^\[({_NAME}(?:\.[0-9]+)?)\]$")


def _split_block_label(label: str, n: int, line_no: int) -> tuple[str, int]:
    """Split '<name>.<index>', or '<name><index>' when n <= 9.

    Undotted, the index is the final digit, so names may themselves end in
    digits (as the power/compose emitters produce).  From n = 10 on that
    reading is ambiguous, and an undotted label is refused.
    """
    name, dot, index = label.rpartition(".")
    if not dot:
        if n >= 10:
            raise CkSyntaxError(
                f"block [{label}] is ambiguous when n >= 10; "
                f"write it as [<name>.<i>], as in [t.{n}]",
                line_no,
                1,
            )
        name, index = label[:-1], label[-1]
    if name and index.isdigit() and 1 <= int(index) <= n:
        return name, int(index)
    raise CkSyntaxError(
        f"block [{label}] must end in a generator index 1..{n}", line_no, 1
    )


def _parse_word(text: str, n: int, line_no: int, col: int) -> Word:
    text = text.strip()
    if text == "e":
        return ()
    if "," in text:
        parts = text.split(",")
    elif text.isdigit() and n <= 9:
        parts = list(text)
    else:
        parts = [text]
    letters = []
    for part in parts:
        part = part.strip()
        if not part.isdigit():
            raise CkSyntaxError(f"expected a letter, got {part!r}", line_no, col)
        letter = int(part)
        if not 1 <= letter <= n:
            raise UnknownLetter(letter, (line_no, col))
        letters.append(letter)
    return tuple(letters)


def parse_document(text: str) -> CkDocument:
    """Parse the document format, attaching line/column positions to errors."""
    lines = text.splitlines()
    # (line number, text before any '#') of each line with content, read once
    content = [
        (line_no, stripped)
        for line_no, raw in enumerate(lines, start=1)
        if (stripped := raw.partition("#")[0].strip())
    ]
    if not content:
        raise CkSyntaxError("empty document", 1, 1)
    line_no, line = content[0]
    m = re.match(r"^n\s*=\s*(\d+)$", line)
    if not m:
        raise CkSyntaxError("expected 'n = <int>'", line_no, 1)
    n = int(m.group(1))

    # a document that ends after n is missing A on the line after n's
    line_no, line = content[1] if len(content) > 1 else (line_no + 1, "")
    m = re.match(r"^A\s*=\s*(.+)$", line)
    if not m:
        raise CkSyntaxError("expected 'A = <rows>'", line_no, 1)
    row_texts = m.group(1).split()
    if len(row_texts) != n:
        raise CkSyntaxError(f"expected {n} rows, got {len(row_texts)}", line_no, 1)
    rows = []
    for r in row_texts:
        if len(r) != n or any(c not in "01" for c in r):
            raise CkSyntaxError(
                f"row {r!r} must be {n} characters of 0/1", line_no, 1
            )
        rows.append(tuple(int(c) for c in r))
    # the rows are n digits 0/1 each, so only a zero row or column is left
    try:
        matrix = validate_matrix(rows)
    except ZeroRowOrColumn as exc:
        raise CkSyntaxError(str(exc), line_no, 1) from exc

    blocks: dict[str, dict[int, list[tuple[Word, Word]]]] = {}
    current: list[tuple[Word, Word]] | None = None
    for line_no, line in content[2:]:
        bm = _BLOCK_RE.match(line)
        if bm:
            name, idx = _split_block_label(bm.group(1), n, line_no)
            per_endo = blocks.setdefault(name, {})
            if idx in per_endo:
                raise CkSyntaxError(
                    f"duplicate block [{bm.group(1)}]", line_no, 1
                )
            current = per_endo.setdefault(idx, [])
            continue
        if current is None:
            raise CkSyntaxError(
                "expected a '[name<i>]' or '[name.<i>]' block header", line_no, 1
            )
        if "<-" not in line:
            raise CkSyntaxError("expected '<nu> <- <mu>'", line_no, 1)
        left, _, right = line.partition("<-")
        raw = lines[line_no - 1]
        # each word's errors point at the column where its text starts
        nu_col = raw.find(left.strip()) + 1
        mu_col = raw.find("<-") + 3 + len(right) - len(right.lstrip())
        nu = _parse_word(left, n, line_no, nu_col)
        mu = _parse_word(right, n, line_no, mu_col)
        for w, col in ((nu, nu_col), (mu, mu_col)):
            if not is_allowable(matrix, w):
                raise UnallowableWord(w, (line_no, col))
        current.append((nu, mu))

    endos: dict[str, list[list[tuple[Word, Word]]]] = {}
    for name, per_endo in blocks.items():
        missing = [i for i in range(1, n + 1) if i not in per_endo]
        if missing:
            raise CkSyntaxError(
                f"endomorphism {name!r} is missing generator blocks {missing}",
                len(lines),
                1,
            )
        endos[name] = [per_endo[i] for i in range(1, n + 1)]
    return CkDocument(matrix=matrix, endos=endos)


def format_word(w: Word) -> str:
    return "e" if not w else ",".join(str(x) for x in w)


def render_document(doc: CkDocument) -> str:
    """The document text; block labels are dotted, [t.11], only when n >= 10."""
    out = [f"n = {doc.matrix.n}"]
    out.append("A = " + " ".join("".join(str(v) for v in row) for row in doc.matrix.rows))
    dot = "." if doc.matrix.n >= 10 else ""
    for name, pair_lists in doc.endos.items():
        for i, pairs in enumerate(pair_lists, start=1):
            out.append("")
            out.append(f"[{name}{dot}{i}]")
            for nu, mu in pairs:
                out.append(f"{format_word(nu)} <- {format_word(mu)}")
    return "\n".join(out) + "\n"


def document_of(
    matrix: TransitionMatrix, name: str, endo: GeometricEndomorphism
) -> CkDocument:
    return CkDocument(
        matrix=matrix, endos={name: [list(pairs) for pairs in endo.raw_images]}
    )


# ---------------------------------------------------------------------------
# Reports: aligned human text plus a round-trippable key-value rendering.
# ---------------------------------------------------------------------------

@dataclass
class Report:
    command: str
    items: list[tuple[str, object]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def add(self, key: str, value) -> None:
        self.items.append((key, value))

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def render_text(self) -> str:
        lines = [f"command: {self.command}"]
        width = max((len(k) for k, _ in self.items), default=0)
        for key, value in self.items:
            lines.append(f"  {key.ljust(width)}  {_show(value)}")
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        return "\n".join(lines) + "\n"

    def render_structured(self) -> str:
        lines = [f"command\tstr\t{self.command}"]
        for key, value in self.items:
            tag, text = _encode(value)
            lines.append(f"{key}\t{tag}\t{text}")
        for i, w in enumerate(self.warnings):
            lines.append(f"warning.{i}\tstr\t{_escape(w)}")
        return "\n".join(lines) + "\n"


def _show(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, tuple):
        return "(" + ", ".join(str(v) for v in value) + ")"
    return str(value)


def _encode(value) -> tuple[str, str]:
    if isinstance(value, bool):
        return "bool", "true" if value else "false"
    if isinstance(value, int):
        return "int", str(value)
    if isinstance(value, Fraction):
        return "frac", f"{value.numerator}/{value.denominator}"
    if isinstance(value, tuple):
        return "ints", ",".join(str(int(v)) for v in value)
    return "str", _escape(str(value))


_UNESCAPE = {"\\": "\\", "t": "\t", "n": "\n"}


def _escape(text: str) -> str:
    """A string payload kept on its line: backslash, tab and newline escaped."""
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def parse_structured(text: str) -> dict[str, object]:
    """Inverse of :meth:`Report.render_structured`, bit-exact on values;
    string payloads are unescaped."""
    out: dict[str, object] = {}
    for raw in text.split("\n"):
        if not raw.strip():
            continue
        key, tag, payload = raw.split("\t", 2)
        if tag == "int":
            out[key] = int(payload)
        elif tag == "bool":
            out[key] = payload == "true"
        elif tag == "frac":
            p, q = payload.split("/")
            out[key] = Fraction(int(p), int(q))
        elif tag == "ints":
            out[key] = tuple(int(v) for v in payload.split(",")) if payload else ()
        else:
            out[key] = re.sub(r"\\(.)", lambda m: _UNESCAPE[m.group(1)], payload)
    return out


# ---------------------------------------------------------------------------
# Subcommand implementations.  Each returns a Report.
# ---------------------------------------------------------------------------


def _endo_from(doc: CkDocument, name: str | None) -> tuple[str, GeometricEndomorphism]:
    chosen = name or doc.default_name()
    if chosen not in doc.endos:
        raise CkError(f"no endomorphism named {chosen!r} in the document")
    return chosen, doc.build(chosen)


def cmd_validate(doc: CkDocument, args) -> Report:
    name, endo = _endo_from(doc, args.endo)
    report = Report(command="validate")
    report.add("endomorphism", name)
    report.add("n", doc.matrix.n)
    report.add("irreducible", doc.matrix.irreducible)
    report.add("k", endo.k)
    report.add("valid", endo.valid)
    for i in doc.matrix.alphabet:
        cylinders = sorted(endo.range_set(i).members)
        report.add(f"range.{i}", " ".join(format_word(w) for w in cylinders))
    if not endo.valid:
        report.warn("presentation fails the Cuntz-Krieger checks")
    return report


def cmd_index(doc: CkDocument, args) -> Report:
    name, endo = _endo_from(doc, args.endo)
    report = Report(command="index")
    report.add("endomorphism", name)
    bound = propagation(endo)
    report.add("propagation", bound)
    method = args.method
    if method in ("series", "all"):
        series = index_series_counted(endo)
        for k in sorted(series.per_k):
            report.add(f"index.k{k}", series.per_k[k])
        report.add("series.value", series.stabilized_value)
        report.add("series.depth", series.params["depth"])
    # gamma_m is the partial sum to m, so from the series end on gamma is the
    # index; Fredholm counts its images and domain words there itself, so
    # only gamma reads the landing table.
    end = series_end(endo)
    if method in ("gamma", "all"):
        shrink, stretch = landing_table(path_map(endo), end).gamma_parts(end)
        report.add("gamma.m", end)
        report.add("gamma.shrink", shrink)
        report.add("gamma.stretch", stretch)
        report.add("gamma.value", shrink - stretch)
    if method in ("polynomial", "all"):
        # the formula is exact from N = bound on, and m = 1 + N + k is
        # admissible there, since no pair stretches by more than the bound
        n_param = max(bound, 1)
        m = 1 + n_param + endo.k
        pos, neg = index_polynomial_parts(endo, m, n_param)
        report.add("polynomial.m", m)
        report.add("polynomial.N", n_param)
        report.add("polynomial.positive", pos)
        report.add("polynomial.negative", neg)
        report.add("polynomial.value", pos - neg)
    if method in ("fredholm", "all"):
        report.add("fredholm.depth", end)
        report.add("fredholm.value", fredholm_index_truncated(path_map(endo), end))
    return report


def _describe_group(rank: int, torsion: tuple[int, ...]) -> str:
    parts = ["Z"] * rank + [f"Z/{d}" for d in torsion]
    return " + ".join(parts) if parts else "0"


def cmd_ktheory(doc: CkDocument, args) -> Report:
    kt = k_groups(doc.matrix)
    report = Report(command="ktheory")
    report.add("invariant.factors", kt.invariant_factors)
    report.add("K0", _describe_group(kt.rank_k0_free, kt.torsion))
    report.add("K1", _describe_group(kt.rank_k1, ()))
    for i in doc.matrix.alphabet:
        cls = generator_class(kt, i)
        report.add(f"class.e{i}.free", cls.free)
        if cls.torsion:
            report.add(f"class.e{i}.torsion", cls.torsion)
    return report


def cmd_k0map(doc: CkDocument, args) -> Report:
    name, endo = _endo_from(doc, args.endo)
    ind = induced_k0(endo)
    report = Report(command="k0map")
    report.add("endomorphism", name)
    for r, row in enumerate(ind.on_generators, start=1):
        report.add(f"T.row{r}", row)
    for r, row in enumerate(ind.free_part, start=1):
        report.add(f"M0.row{r}", row)
    report.add("well.defined", True)
    return report


def _parse_k1_matrix(text: str):
    """The rows of ``--k1-matrix`` as integers; :func:`lefschetz_number`
    checks their size."""
    rows = [r for r in text.split(";") if r.strip() != ""]
    try:
        return [[int(v) for v in row.split(",")] for row in rows]
    except ValueError:
        raise InvalidParameter(
            "--k1-matrix must be integers (rows ';'-separated, entries ','-separated)"
        ) from None


def cmd_lefschetz(doc: CkDocument, args) -> Report:
    name, endo = _endo_from(doc, args.endo)
    # before --k1-matrix is parsed, so an invalid presentation is reported first
    endo.require_valid()
    report = Report(command="lefschetz")
    report.add("endomorphism", name)
    if args.k1_matrix is not None:
        m1 = _parse_k1_matrix(args.k1_matrix)
        result = lefschetz_number(endo, k1_action=m1)
        series = index_series_counted(endo)
        report.add("mode", "supplied")
        report.add("trace.K0", result.trace_k0)
        report.add("trace.K1", result.trace_k1)
        report.add("lefschetz", result.value)
        report.add("index", series.stabilized_value)
        report.add(
            "theorem.check",
            "PASS" if result.value == series.stabilized_value else "FAIL",
        )
    else:
        result = lefschetz_number(endo)
        report.add("mode", "DERIVED")
        report.warn(
            "K1 trace DERIVED from the index via the Lefschetz identity, "
            "not computed independently"
        )
        report.add("trace.K0", result.trace_k0)
        report.add("trace.K1.derived", result.trace_k1)
        report.add("lefschetz", result.value)
        report.add("index", result.index)
    return report


def cmd_zeta(doc: CkDocument, args) -> Report:
    name, endo = _endo_from(doc, args.endo)
    terms = args.terms
    report = Report(command="zeta")
    report.add("endomorphism", name)
    coeffs, rf = zeta(endo, terms)
    report.add("coefficients", tuple(coeffs))
    report.add("numerator", " ".join(str(c) for c in rf.numerator))
    report.add("denominator", " ".join(str(c) for c in rf.denominator))
    predicted = rf.expand(terms + 3)[terms + 1 :]
    report.add("predicted.next", " ".join(str(c) for c in predicted))
    return report


def _new_endo(doc: CkDocument, args, label: str, default: str, build, *operands) -> Report:
    """The report of ``compose`` and ``power``: the endomorphism
    ``build(*operands)``, written to ``--out`` or embedded as a document.
    ``--name`` is checked before anything is built."""
    if args.name and not re.fullmatch(_NAME, args.name):
        raise InvalidParameter(f"--name must match {_NAME}, got {args.name!r}")
    result = build(*operands)
    report = Report(command=args.subcommand)
    report.add("endomorphism", label)
    report.add("k", result.k)
    report.add("pairs", sum(map(len, result.raw_images)))
    text = render_document(document_of(doc.matrix, args.name or default, result))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidParameter(f"cannot write --out {args.out}: {exc.strerror}") from exc
        report.add("out", args.out)
    else:
        report.add("document", "\n" + text)
    return report


def cmd_compose(doc: CkDocument, args) -> Report:
    name_e, e = _endo_from(doc, args.endo)
    name_f, f = _endo_from(doc, getattr(args, "with"))
    return _new_endo(doc, args, f"{name_e} after {name_f}", f"{name_e}{name_f}", compose, e, f)


def cmd_power(doc: CkDocument, args) -> Report:
    name, endo = _endo_from(doc, args.endo)
    return _new_endo(doc, args, f"{name}^{args.n}", f"{name}p{args.n}", power, endo, args.n)


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cklef",
        description="Lefschetz indices of geometric endomorphisms of Cuntz-Krieger algebras",
    )
    parser.add_argument("--structured", action="store_true",
                        help="emit the machine-readable key-value rendering")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("file", help="input document ('-' for stdin)")
        p.add_argument("--endo", help="endomorphism name (default: first in file)")

    p = sub.add_parser("validate", help="run the Cuntz-Krieger checks")
    common(p)
    p = sub.add_parser("index", help="Lefschetz index of the path map")
    common(p)
    p.add_argument("--method", choices=["series", "gamma", "polynomial", "fredholm", "all"],
                   default="all")
    p = sub.add_parser("ktheory", help="K-groups of the algebra")
    p.add_argument("file")
    p = sub.add_parser("k0map", help="induced map on K0")
    common(p)
    p = sub.add_parser("lefschetz", help="Lefschetz number vs index")
    common(p)
    p.add_argument("--k1-matrix", dest="k1_matrix", default=None,
                   help="K1 action, rows ';'-separated, entries ','-separated")
    p = sub.add_parser("zeta", help="zeta coefficients and rational reconstruction")
    common(p)
    p.add_argument("--terms", type=int, default=5)
    p = sub.add_parser("compose", help="compose two endomorphisms into a new document")
    common(p)
    p.add_argument("--with", required=True, help="inner endomorphism name")
    p.add_argument("--out", default=None)
    p.add_argument("--name", default=None)
    p = sub.add_parser("power", help="iterate an endomorphism into a new document")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--name", default=None)
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "index": cmd_index,
    "ktheory": cmd_ktheory,
    "k0map": cmd_k0map,
    "lefschetz": cmd_lefschetz,
    "zeta": cmd_zeta,
    "compose": cmd_compose,
    "power": cmd_power,
}


def run(argv: Sequence[str], stdin_text: str | None = None) -> tuple[str, int]:
    """Run one CLI invocation; returns (output text, exit code)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.file == "-":
            text = stdin_text if stdin_text is not None else sys.stdin.read()
        else:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        doc = parse_document(text)
    except (CkSyntaxError, UnknownLetter, UnallowableWord, OSError, UnicodeDecodeError) as exc:
        return f"parse error: {exc}\n", 2
    try:
        report = _COMMANDS[args.subcommand](doc, args)
    except CkError as exc:
        return f"error: {exc}\n", 1
    out = report.render_structured() if args.structured else report.render_text()
    return out, 0


def main() -> None:
    out, code = run(sys.argv[1:])
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
