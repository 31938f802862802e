"""Rules on the package source that no runtime test can see.

Every cache needs an owner and a size bound, so no function in
``src/cklef`` is wrapped in a process-wide ``functools`` cache.
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
