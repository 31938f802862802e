"""The README's examples run as written: the worked-example document, each
``cklef`` line of the subcommand block, and the library example with the
values its comments give."""

import re
import shlex
from pathlib import Path

import pytest

from cklef.cli import parse_document, run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# the worked example: the first bare code block of the CLI section
DOCUMENT = re.search(r"^## CLI$.*?^```\n(.*?)^```$", README, re.M | re.S).group(1)
[SUBCOMMANDS] = [
    block
    for block in re.findall(r"^```sh\n(.*?)^```$", README, re.M | re.S)
    if block.startswith("cklef ")
]
COMMAND_LINES = [line.partition("#")[0].strip() for line in SUBCOMMANDS.splitlines()]


@pytest.fixture()
def in_doc_dir(tmp_path, monkeypatch):
    (tmp_path / "doc.ck").write_text(DOCUMENT, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_worked_example_is_valid():
    doc = parse_document(DOCUMENT)
    assert list(doc.endos) == ["t"] and doc.build("t").valid


@pytest.mark.parametrize("line", COMMAND_LINES, ids=[line.split()[1] for line in COMMAND_LINES])
def test_subcommand_line_runs(in_doc_dir, line):
    argv = shlex.split(line)
    assert argv[0] == "cklef"
    out, code = run(argv[1:])
    assert code == 0, out
    if "--out" in argv:
        written = (in_doc_dir / argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
        doc = parse_document(written)
        assert doc.build(doc.default_name()).valid


def test_library_example(in_doc_dir, capsys):
    [block] = re.findall(r"```python\n(.*?)```", README, re.S)
    exec(block, {})
    expected = re.findall(r"^print\(.*\)\s*#\s*(.*?)\s*$", block, re.M)
    assert expected == ["1", "(1, 1, 0)", "((1,),)", "1"]
    assert capsys.readouterr().out.splitlines() == expected
