"""Rules on the package source that no runtime test can see.

Every cache needs an owner and a size bound, so no function in
``src/cklef`` is wrapped in a process-wide ``functools`` cache.  Every
option is public, so no function takes a parameter whose name starts with an
underscore: such a parameter is a hidden way round a check.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "cklef").glob("*.py"))
CACHE_DECORATORS = {"lru_cache", "cache"}


def _cached_functions(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if name in CACHE_DECORATORS:
                found.append(node.name)
    return found


def test_detector_sees_every_spelling():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@functools.lru_cache(maxsize=None)\ndef a(): pass\n"
        "@lru_cache\ndef b(): pass\n"
        "@functools.cache\ndef c(): pass\n"
        "class K:\n    @cache\n    def d(self): pass\n"
        "@staticmethod\ndef e(): pass\n"
    )
    assert _cached_functions(source) == ["a", "b", "c", "d"]


def test_no_function_cache_decorators_in_package():
    assert SOURCES
    offenders = {
        path.name: names
        for path in SOURCES
        if (names := _cached_functions(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def _hidden_parameters(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        name = getattr(node, "name", "<lambda>")
        found += [f"{name}({p.arg})" for p in params if p.arg.startswith("_")]
    return found


def test_hidden_parameter_detector_sees_every_kind():
    source = (
        "def a(x, _hint=None): pass\n"
        "def b(_p, /, q, *, _k): pass\n"
        "def c(*_args, **_kw): pass\n"
        "class K:\n    def d(self, _x): pass\n"
        "f = lambda _y: _y\n"
        "def _private(x, y=1): pass\n"
    )
    assert _hidden_parameters(source) == [
        "a(_hint)", "b(_p)", "b(_k)", "c(_args)", "c(_kw)", "d(_x)", "<lambda>(_y)",
    ]


def test_no_hidden_parameters_in_package():
    assert SOURCES
    offenders = {
        path.name: names
        for path in SOURCES
        if (names := _hidden_parameters(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}
