"""Rules on the package source that no runtime test can see.

Every cache needs an owner and a size bound, so no function in
``src/cklef`` is wrapped in a process-wide ``functools`` cache.  Every
option is public, so no function takes a parameter whose name starts with an
underscore: such a parameter is a hidden way round a check.  The index
routes share one word enumerator, so exactly one function in
``src/cklef/index.py`` uses ``iter_paths`` or ``enumerate_paths``, or walks
the follower table ``TransitionMatrix._successors`` by hand.  The exact
linear algebra has one elimination loop, so exactly one function in
``src/cklef/linalg.py`` replaces matrix rows inside a loop over pivots.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cklef"
SOURCES = sorted(PACKAGE.glob("*.py"))
CACHE_DECORATORS = {"lru_cache", "cache"}
ENUMERATORS = {"iter_paths", "enumerate_paths", "_successors"}


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


def _enumerating_scopes(source: str) -> list[str]:
    """The innermost functions (or ``<module>``) that name a word enumerator,
    whether they call it or pass it on, in source order."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif isinstance(node, ast.Lambda):
            scope = "<lambda>"
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in ENUMERATORS and scope not in found:
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_enumerator_detector_sees_every_use():
    source = (
        "from .sft_core import enumerate_paths, iter_paths\n"
        "from . import sft_core\n"
        "def a(m):\n    \"\"\"iter_paths in a docstring is no use.\"\"\"\n    return m\n"
        "def b(m):\n    return list(iter_paths(m, 2))\n"
        "def c(m):\n    return sft_core.enumerate_paths(m, 2)\n"
        "def d(m):\n    def inner():\n        return iter_paths(m, 1)\n    return inner\n"
        "def e(m):\n    walk = iter_paths\n    return walk(m, 1)\n"
        "f = lambda m: enumerate_paths(m, 1)\n"
        "WORDS = iter_paths\n"
        "def g(m, w):\n    return [w + (x,) for x in m._successors[w[-1]]]\n"
        "def h(m):\n    return m.followers(1)\n"
    )
    assert _enumerating_scopes(source) == ["b", "c", "inner", "e", "<lambda>", "<module>", "g"]


def test_index_routes_share_one_enumerator():
    source = (PACKAGE / "index.py").read_text(encoding="utf-8")
    assert _enumerating_scopes(source) == ["_pair_heads"]


def _assigns_a_subscript(node) -> bool:
    targets = []
    for n in ast.walk(node):
        if isinstance(n, ast.Assign):
            targets += n.targets
        elif isinstance(n, ast.AugAssign):
            targets.append(n.target)
    return any(isinstance(t, ast.Subscript) for target in targets for t in ast.walk(target))


def _elimination_loops(source: str) -> list[str]:
    """The functions with a loop nested in a loop that assigns to a row
    (a subscript): the shape of a pivot step that updates the other rows."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for outer in ast.walk(func):
            if not isinstance(outer, ast.For):
                continue
            inner = [n for n in ast.walk(outer) if isinstance(n, ast.For) and n is not outer]
            if any(_assigns_a_subscript(loop) for loop in inner):
                found.append(func.name)
                break
    return found


def test_elimination_detector_sees_the_fraction_references():
    oracles = Path(__file__).resolve().parent / "oracles.py"
    assert _elimination_loops(oracles.read_text(encoding="utf-8")) == ["inverse", "solve"]
    source = (
        "def a(m):\n    for c in m:\n        for r in m:\n            m[r] = c\n"
        "def b(m):\n    for c in m:\n        m[c] = 0\n"
        "def c(m):\n    for c in m:\n        for r in m:\n            if r: raise ValueError\n"
        "def d(m):\n    for c in m:\n        for r in m:\n            m[r], m[c] = m[c], m[r]\n"
    )
    assert _elimination_loops(source) == ["a", "d"]


def test_linalg_has_one_elimination_loop():
    source = (PACKAGE / "linalg.py").read_text(encoding="utf-8")
    assert _elimination_loops(source) == ["_gauss_jordan"]
