"""Rules on the package source that no runtime test can see.

Every cache needs an owner and a size bound, so no function in
``src/cklef`` is wrapped in a process-wide ``functools`` cache.  Every
option is public, so no function takes a parameter whose name starts with an
underscore: such a parameter is a hidden way round a check.  The package
has one word walk, ``sft_core.walk``: it is the only function in
``src/cklef/sft_core.py`` that names the follower table
``TransitionMatrix._successors``, whose field declaration is the one other
place naming it, and ``src/cklef/index.py`` names none of ``iter_paths``,
``enumerate_paths`` and ``_successors``, so the index routes walk words
only through ``walk``; and only one function there names ``walk``, the
class counter ``_class_counts``, so a walk starts nowhere else.  Exactly two
functions there count paths: name ``count_paths``, ``path_columns``,
``.power`` or ``_powers``; they are the power kernel ``_power_counts`` and
the prefix pass ``_prefix_counts`` that counts Fredholm's distinct images
and domain words.  The Fredholm route reads no table and walks no word: no
function of ``index.py`` that ``fredholm_index_truncated`` reaches names
``landing_table``, ``_table``, ``_class_counts`` or ``walk``.  Paths are counted
by one recurrence, ``sft_core.path_columns``, which only ``count_paths``,
those two and the validity check step, and no
package source names the cache of powers it replaced, ``.power`` or
``_powers``.  Every field a package dataclass fills itself
(``field(init=False)``) is listed here with the bound on its size.  The two tables
share one fill: only ``_table`` constructs a ``LengthTransfer`` there, and
each table names its kernel alone, ``landing_table`` the walk's
``_class_counts`` and ``length_transfer_counted`` the powers'
``_power_counts``, so neither route can read the other's counts.  A table
stores the depth it covers, so of the functions that build a table or read
its depth only ``length_transfer_counted``, which turns the length it is
asked for into that depth, names the propagation bound.  Validating a
presentation builds no canonical clopen form and reads no matrix power, so in
``src/cklef/endo.py`` only ``range_set``, which ``cklef validate`` prints,
names ``clopen_make`` or ``ClopenSet``, and only the check ``_ck_checks``
counts paths, on its own steps of the recurrence.  The mu-rule is decided
in one place: only ``_sources`` there names
``DuplicateMuAfterNormalization``, so one sort of each generator's source
cylinders refuses colliding mu-words and feeds the validity check.  Powers
are composed in one place, the halving ladder ``endo._ladder``, which
``power`` and ``zeta_coefficients`` read: it is the only package function
that names ``compose`` besides ``cli.cmd_compose``, which composes the two
endomorphisms it is given, so ``ktheory.py`` names none.  The exact
linear algebra has one elimination loop, so exactly one function in
``src/cklef/linalg.py`` replaces matrix rows inside a loop over pivots.
K_0 reads the Smith form's U through its rows and keeps no inverse of it:
no package source names ``u_inv``, and in ``src/cklef/ktheory.py`` only
``k0_reduce``, ``_require_well_defined`` and ``_descend_free`` read ``.u``
of a Smith form, each on U's torsion and free rows, so a Smith form that
produces only those rows would serve every reader.
The package composes and splits lists of coefficient-1 pairs, and keeps
no algebra of integer combinations of monomials: no module defines or
imports ``Element``, ``multiply``, ``normalize``, ``equals`` or
``word_algebra``, which live on as the reference in ``tests/oracles.py``.
The package holds no code that only the tests need, so every function,
class and method of ``src/cklef`` is read by the package itself, by
``perfbench``, or by ``tests/test_acceptance.py``, outside a commented
allow-list; independent references belong in ``tests/oracles.py``.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cklef"
SOURCES = sorted(PACKAGE.glob("*.py"))
CACHE_DECORATORS = {"lru_cache", "cache"}
ENUMERATORS = {"iter_paths", "enumerate_paths", "_successors"}
# ".power" is matched only as an attribute, so a local named power is no read;
# ".power" and "_powers" are the cache of powers the recurrence replaced
POWER_READERS = {"count_paths", "path_columns", ".power", "_powers"}
# the one recurrence of path counts and the only functions that step it
RECURRENCE_READERS = {
    "endo": ["_ck_checks"], "index": ["_power_counts", "_prefix_counts"],
    "sft_core": ["count_paths"],
}
# every field a package dataclass fills itself (field(init=False)), with the
# bound on its size; a table without one is a cache without a bound
BOUNDED_FIELDS = {
    "GeometricEndomorphism._induced_k0": "at most 1 entry",
    "GradedPairing._inverses": "at most 2 entries, one per degree",
    "LengthTransfer._dom": "one entry per domain length of the table",
    "LengthTransfer._im": "one entry per image length of the table",
    "TransitionMatrix._followers": "n + 1 entries",
    "TransitionMatrix._k_groups": "at most 1 entry",
    "TransitionMatrix._successors": "n + 1 entries",
}
# the two kernels of the one fill, each named by its own table alone
KERNEL_READERS = {"_class_counts": "landing_table", "_power_counts": "length_transfer_counted"}
# the functions of index.py that build a table or read the depth it covers
TABLE_SCOPES = {"_table", "landing_table", "length_transfer_counted", "_require_covered"}
# the one word walk, started only where the landing table counts words
WALKERS = {"walk"}
# the landing table, its fill, its kernel and the walk, none of which the
# Fredholm route reaches
LANDING = {"landing_table", "_table", "_class_counts", "walk"}
# the canonical clopen form, which validity checks do without
CANONICAL_FORMS = {"clopen_make", "ClopenSet"}
# the composition of two endomorphisms, which only the power ladder and the
# compose subcommand call
COMPOSERS = {"compose"}
# the error of the mu-rule, which one function of endo.py raises
MU_RULE = {"DuplicateMuAfterNormalization"}
# the algebra of integer combinations of monomials, which lives in
# tests/oracles.py: the package composes and splits pair lists instead
WORD_ALGEBRA = {"Element", "multiply", "normalize", "equals", "word_algebra"}
# the inverse of the Smith form's U, which K_0 does without, in any spelling
INVERSE_OF_U = re.compile(r"\bu_inv\w*")
# the functions of ktheory.py that read U off a Smith form: the row
# interface a Smith form producing only U's torsion and free rows supplies
U_READERS = ["k0_reduce", "_require_well_defined", "_descend_free"]


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


def _naming_scopes(source: str, names: set[str]) -> list[str]:
    """The innermost functions (or ``<module>``) that name one of ``names``,
    whether they call it or pass it on, in source order.  A name written
    ``.x`` matches only the attribute ``x``.  A class field declared in the
    class body, ``x: T`` or ``x: T = ...``, is reported as ``Class.x``."""
    found = []
    fields = {}  # the declared field names, by node, as Class.x

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif isinstance(node, ast.Lambda):
            scope = "<lambda>"
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    fields[item.target] = f"{node.name}.{item.target.id}"
        if isinstance(node, ast.Name):
            hit = node.id in names
        elif isinstance(node, ast.Attribute):
            hit = node.attr in names or "." + node.attr in names
        else:
            hit = False
        where = fields.get(node, scope)
        if hit and where not in found:
            found.append(where)
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
    assert _naming_scopes(source, ENUMERATORS) == [
        "b", "c", "inner", "e", "<lambda>", "<module>", "g",
    ]


def test_field_declaration_detector():
    source = (
        "class T:\n"
        "    _successors: tuple = ()\n"
        "    _followers: tuple\n"
        "    def a(self):\n        return self._successors\n"
        "class U:\n    _successors = ()\n"
        "def b(m: '_successors'):\n    _successors: int = 1\n    return m\n"
        "X: int = T._successors\n"
    )
    assert _naming_scopes(source, {"_successors"}) == ["T._successors", "a", "<module>", "b"]


def test_index_routes_share_one_enumerator():
    # the routes walk words only through sft_core.walk, which they import
    source = (PACKAGE / "index.py").read_text(encoding="utf-8")
    assert _naming_scopes(source, ENUMERATORS) == []


def test_walk_detector_sees_every_start():
    source = (
        "from .sft_core import walk\n"
        "from . import sft_core\n"
        "def a(m):\n    \"\"\"walk(m, (), {1}, 3) in a docstring starts nothing.\"\"\"\n    return m\n"
        "def b(m):\n    return list(walk(m, (), {1}, 3))\n"
        "def c(m):\n    return sft_core.walk(m, (), {1}, 3)\n"
        "def d(m):\n    def inner():\n        return walk(m, (), {1}, 2)\n    return inner\n"
        "def e(m):\n    step = walk\n    return step(m, (), {1}, 2)\n"
        "f = lambda m: next(walk(m, (), {1}, 2))\n"
        "def g(m):\n    walked = m.walks\n    return walked\n"
        "WALK = walk\n"
    )
    assert _naming_scopes(source, WALKERS) == ["b", "c", "inner", "e", "<lambda>", "<module>"]


def test_index_routes_start_walks_in_one_place():
    # ROADMAP's budget guard goes where walks start: the per-class count of
    # the landing table; the Fredholm counts are path counts
    source = (PACKAGE / "index.py").read_text(encoding="utf-8")
    assert _naming_scopes(source, WALKERS) == ["_class_counts"]


def test_sft_core_has_one_word_walk():
    source = (PACKAGE / "sft_core.py").read_text(encoding="utf-8")
    assert _naming_scopes(source, {"_successors"}) == ["TransitionMatrix._successors", "walk"]


def test_power_reader_detector_sees_every_use():
    source = (
        "from .sft_core import count_paths\n"
        "from . import sft_core\n"
        "def a(m):\n    \"\"\"m.power(2) in a docstring is no read.\"\"\"\n    return m\n"
        "def b(m):\n    return count_paths(m, 1, 1, 2)\n"
        "def c(m):\n    return m.power(3)\n"
        "def d(m):\n    return m._powers[-1]\n"
        "def e(m):\n    power = powers = 2\n    return power + powers\n"
        "def f(m):\n    return sft_core.count_paths\n"
        "g = lambda m: [m.power(k) for k in range(3)]\n"
        "def h(m):\n    def inner():\n        return m.power(1)\n    return inner\n"
        "def k(m):\n    read = m.power\n    return read(2)\n"
        "def p(m):\n    return list(path_columns(m, [1, 1], 3))\n"
        "READ = count_paths\n"
    )
    assert _naming_scopes(source, POWER_READERS) == [
        "b", "c", "d", "f", "<lambda>", "inner", "k", "p", "<module>",
    ]


def test_index_routes_count_paths_in_two_places():
    # the counted table's kernel and the Fredholm counts' prefix pass
    source = (PACKAGE / "index.py").read_text(encoding="utf-8")
    assert _naming_scopes(source, POWER_READERS) == ["_power_counts", "_prefix_counts"]


def _reached(source: str, root: str) -> dict[str, set[str]]:
    """The module functions ``root`` reaches, itself included, through the
    names it and each function it reaches use, nested functions included,
    with the names each one uses, attributes by their last part."""
    tree = ast.parse(source)
    used = {
        node.name: {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        }
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    reached: dict[str, set[str]] = {}
    todo = [root]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached[name] = used[name]
            todo += [other for other in used[name] if other in used]
    return reached


def test_reach_detector_follows_every_call():
    source = (
        "def walk(m):\n    return m\n"
        "def route(m):\n    \"\"\"landing_table(m) in a docstring reads nothing.\"\"\"\n"
        "    return helper(m) + index.other(m)\n"
        "def helper(m):\n    def inner():\n        return deeper(m)\n    return inner\n"
        "def deeper(m):\n    step = walk\n    return step(m)\n"
        "def other(m):\n    return m\n"
        "def unreached(m):\n    return landing_table(m)\n"
    )
    reached = _reached(source, "route")
    assert sorted(reached) == ["deeper", "helper", "other", "route", "walk"]
    assert {name for name, used in reached.items() if used & LANDING} == {"deeper"}


def test_fredholm_reads_no_landing_table():
    # the route counts its own images and domain words, so it stays
    # independent of gamma and the enumerated series, which read the walk
    source = (PACKAGE / "index.py").read_text(encoding="utf-8")
    reached = _reached(source, "fredholm_index_truncated")
    assert "_prefix_counts" in reached
    assert {name for name, used in reached.items() if used & LANDING} == set()


def test_one_recurrence_counts_paths():
    # path counts are stepped by sft_core.path_columns alone, read by four
    # functions, and no package source names a cache of powers again
    found = {
        path.stem: scopes
        for path in SOURCES
        if (scopes := _naming_scopes(path.read_text(encoding="utf-8"), {"path_columns"}))
    }
    assert found == RECURRENCE_READERS
    for path in SOURCES:
        assert _naming_scopes(path.read_text(encoding="utf-8"), {".power", "_powers"}) == []


def _self_filled_fields(source: str) -> list[str]:
    """The class fields declared ``x: T = field(..., init=False, ...)``, as
    ``Class.x``, however ``field`` is spelled."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            value = getattr(item, "value", None)
            if not (isinstance(item, ast.AnnAssign) and isinstance(value, ast.Call)):
                continue
            func = value.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            init = {k.arg: k.value for k in value.keywords}.get("init")
            if name == "field" and isinstance(init, ast.Constant) and init.value is False:
                found.append(f"{cls.name}.{item.target.id}")
    return found


def test_self_filled_field_detector_sees_every_spelling():
    source = (
        "import dataclasses\nfrom dataclasses import field\n"
        "class T:\n"
        "    a: int\n"
        "    _b: dict = field(init=False, repr=False)\n"
        "    _c: list = dataclasses.field(repr=False, init=False, compare=False)\n"
        "    d: list = field(default_factory=list)\n"
        "    e: list = field(init=True)\n"
        "    _f = field(init=False)\n"
        "    def g(self):\n        h: dict = field(init=False)\n        return h\n"
        "class U:\n    class V:\n        _w: dict = field(init=False)\n"
    )
    assert _self_filled_fields(source) == ["T._b", "T._c", "V._w"]


def test_every_self_filled_field_has_a_bound():
    # every cache needs an owner and a size bound: a new field(init=False)
    # fails here until BOUNDED_FIELDS states its bound
    found = [
        name for path in SOURCES for name in _self_filled_fields(path.read_text(encoding="utf-8"))
    ]
    assert sorted(found) == sorted(BOUNDED_FIELDS)


def _unannotated(source: str) -> str:
    """``source`` with its annotations dropped, so that a type hint is no use
    of the name it gives."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            node.returns = None
        elif isinstance(node, ast.arg):
            node.annotation = None
        elif isinstance(node, ast.AnnAssign):
            node.annotation = ast.Constant(None)
    return ast.unparse(tree)


def test_constructor_detector_sees_every_use():
    source = (
        "class LengthTransfer:\n    a: dict\n"
        "def a(e) -> LengthTransfer:\n"
        "    \"\"\"LengthTransfer(e) in a docstring builds nothing.\"\"\"\n    return e\n"
        "def b(t: LengthTransfer, u: 'LengthTransfer' = None):\n"
        "    v: LengthTransfer = t\n    return v\n"
        "def c(e):\n    return LengthTransfer(a=e, depth=1)\n"
        "def d(e):\n    make = index.LengthTransfer\n    return make(e)\n"
        "f = lambda e: LengthTransfer(e)\n"
        "def g(e):\n    def inner():\n        return LengthTransfer(e)\n    return inner\n"
        "MAKE = LengthTransfer\n"
    )
    assert _naming_scopes(_unannotated(source), {"LengthTransfer"}) == [
        "c", "d", "<lambda>", "inner", "<module>",
    ]


def test_one_fill_builds_both_tables():
    # the walk and the powers differ only in the counts they supply, so the
    # grouping of pairs and the placing of counts are written once
    source = (PACKAGE / "index.py").read_text(encoding="utf-8")
    assert _naming_scopes(_unannotated(source), {"LengthTransfer"}) == ["_table"]


def test_tables_do_not_read_the_propagation_bound():
    # the bound turns the counted table's max_len into its depth, and
    # nowhere else does a table or a reader of its depth need it
    source = (PACKAGE / "index.py").read_text(encoding="utf-8")
    readers = _naming_scopes(source, {"propagation"})
    assert [scope for scope in readers if scope in TABLE_SCOPES] == ["length_transfer_counted"]


@pytest.mark.parametrize("kernel", sorted(KERNEL_READERS))
def test_kernel_reader_detector_sees_every_use(kernel):
    source = (
        "def KERNEL(matrix, first, i, top):\n    return [0]\n"
        "def a(m):\n    \"\"\"KERNEL(m, {1}, 1, 2) in a docstring is no read.\"\"\"\n"
        "    return m\n"
        "def b(e, d):\n    return _table(e, d, KERNEL)\n"
        "def c(m):\n    kernel = index.KERNEL\n    return kernel(m, {1}, 1, 2)\n"
        "d = lambda m: KERNEL(m, {1}, 1, 2)\n"
        "def f(m):\n    def inner():\n        return KERNEL(m, {1}, 1, 2)\n    return inner\n"
        "def g(m, KERNEL=None):\n    return m\n"
        "COUNTS = KERNEL\n"
    ).replace("KERNEL", kernel)
    assert _naming_scopes(source, {kernel}) == ["b", "c", "<lambda>", "inner", "<module>"]


@pytest.mark.parametrize("kernel", sorted(KERNEL_READERS))
def test_each_kernel_is_named_by_its_own_table(kernel):
    # the walk's table reads no powers and the counted table walks no words,
    # so the routes that read them stay independent
    source = (PACKAGE / "index.py").read_text(encoding="utf-8")
    assert _naming_scopes(source, {kernel}) == [KERNEL_READERS[kernel]]


def test_canonical_form_detector_sees_every_use():
    source = (
        "from .sft_core import ClopenSet, clopen_make\n"
        "from . import sft_core\n"
        "def a(m):\n    \"\"\"clopen_make(m, ()) in a docstring builds nothing.\"\"\"\n    return m\n"
        "def b(m) -> ClopenSet:\n    return m\n"
        "def c(m, w):\n    return sft_core.clopen_make(m, w)\n"
        "def d(m, w):\n    return ClopenSet(m, frozenset(w))\n"
        "def e(m, w):\n    def inner():\n        return clopen_make(m, w)\n    return inner\n"
        "f = lambda m: clopen_make(m, ())\n"
        "def g(m, w):\n    make = sft_core.clopen_make\n    return make(m, w)\n"
        "def h(m, clopen):\n    return clopen.members\n"
        "MAKE = clopen_make\n"
    )
    assert _naming_scopes(source, CANONICAL_FORMS) == [
        "b", "c", "d", "inner", "<lambda>", "g", "<module>",
    ]


def test_validation_builds_no_canonical_form():
    # the Cuntz-Krieger relations are read off one sort and word counts, and
    # the count table is the check's own steps of the one recurrence
    source = (PACKAGE / "endo.py").read_text(encoding="utf-8")
    assert _naming_scopes(source, CANONICAL_FORMS) == ["range_set"]
    assert _naming_scopes(source, POWER_READERS) == ["_ck_checks"]


def test_compose_detector_sees_every_use():
    source = (
        "from .endo import compose\n"
        "from . import endo\n"
        "def a(e):\n    \"\"\"compose(e, e) in a docstring composes nothing.\"\"\"\n    return e\n"
        "def b(e):\n    return compose(e, e)\n"
        "def c(e):\n    return endo.compose(e, e)\n"
        "def d(e):\n    step = compose\n    return step(e, e)\n"
        "f = lambda e: compose(e, e)\n"
        "def g(e):\n    def inner():\n        return compose(e, e)\n    return inner\n"
        "def h(e, composed):\n    return compose_maps(e, composed) + e.composer\n"
        "COMPOSE = compose\n"
    )
    assert _naming_scopes(source, COMPOSERS) == ["b", "c", "d", "<lambda>", "inner", "<module>"]


def test_the_ladder_alone_composes_powers():
    # power and zeta_coefficients take their powers off one ladder, so the
    # schedule of composes, and any budget check on it, lives in one place
    found = {
        path.stem: scopes
        for path in SOURCES
        if (scopes := _naming_scopes(path.read_text(encoding="utf-8"), COMPOSERS))
    }
    assert found == {"cli": ["cmd_compose"], "endo": ["_ladder"]}


def test_mu_rule_detector_sees_every_use():
    source = (
        "from .errors import DuplicateMuAfterNormalization\n"
        "from . import errors\n"
        "def a(p):\n    \"\"\"DuplicateMuAfterNormalization in a docstring raises nothing.\"\"\"\n"
        "    return p\n"
        "def b(p):\n    raise DuplicateMuAfterNormalization(p)\n"
        "def c(p):\n    raise errors.DuplicateMuAfterNormalization(p)\n"
        "def d(p):\n    def inner():\n        raise DuplicateMuAfterNormalization(p)\n"
        "    return inner\n"
        "def e(p):\n    error = DuplicateMuAfterNormalization\n    raise error(p)\n"
        "f = lambda p: DuplicateMuAfterNormalization(p)\n"
        "def g(p):\n    try:\n        return p()\n"
        "    except DuplicateMuAfterNormalization:\n        return None\n"
        "ERROR = DuplicateMuAfterNormalization\n"
    )
    assert _naming_scopes(source, MU_RULE) == [
        "b", "c", "inner", "e", "<lambda>", "g", "<module>",
    ]


def test_one_function_decides_the_mu_rule():
    # a repeated mu-word and meeting source cylinders are refused from one
    # sort of each generator's source cylinders, which the check then reads
    source = (PACKAGE / "endo.py").read_text(encoding="utf-8")
    assert _naming_scopes(source, MU_RULE) == ["_sources"]


def _algebra_names(source: str) -> list[str]:
    """The names of ``WORD_ALGEBRA`` that ``source`` defines or imports: a
    function, class or assigned name, an imported name or its alias, or a
    module path that holds one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DEFINITIONS):
            names = [node.name]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names = [node.id]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [part for a in node.names for part in a.name.split(".")]
            names += [a.asname for a in node.names if a.asname]
            names += (getattr(node, "module", None) or "").split(".")
        else:
            continue
        found += [name for name in names if name in WORD_ALGEBRA]
    return found


def test_algebra_detector_sees_every_spelling():
    source = (
        "from .word_algebra import Element, multiply as mul\n"
        "import cklef.word_algebra\n"
        "from . import word_algebra\n"
        "from .sft_core import Word as normalize\n"
        "class Element:\n    pass\n"
        "def equals(x, y):\n    return x == y\n"
        "multiply = None\n"
        "def _multiply_monomials(a, b):\n    return multiply(a, b)\n"
        "import os.path\n"
    )
    # the call of multiply is a read, not a definition
    assert sorted(_algebra_names(source)) == [
        "Element", "Element", "equals", "multiply", "multiply", "normalize",
        "word_algebra", "word_algebra", "word_algebra",
    ]


def test_no_module_keeps_the_word_algebra():
    assert not (PACKAGE / "word_algebra.py").exists()
    offenders = {
        path.name: names
        for path in SOURCES
        if (names := _algebra_names(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


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


def test_smith_row_detector_sees_every_use():
    source = (
        "def a(kt):\n    \"\"\"kt.snf.u in a docstring reads nothing.\"\"\"\n    return kt\n"
        "def b(kt):\n    return kt.snf.u[0]\n"
        "def c(snf):\n    u, v = snf.u, snf.v\n    return u\n"
        "def d(kt):\n    u = [[1]]\n    return u, kt.snf.uu, kt.snf.v\n"
        "f = lambda snf: snf.u\n"
        "def g(kt):\n    def inner():\n        return kt.snf.u\n    return inner\n"
        "def h(snf):\n    return snf.u_inv, SmithDecomposition(u=snf.u_inv_cols)\n"
        "# mu_inverse and menu_inv name no inverse of U\n"
    )
    assert _naming_scopes(source, {".u"}) == ["b", "c", "<lambda>", "inner"]
    assert INVERSE_OF_U.findall(source) == ["u_inv", "u_inv_cols"]


def test_k0_reads_u_through_its_rows():
    # the descent solves on U's free rows instead of conjugating by U^-1,
    # so a row-restricted Smith form would serve all of K_0
    offenders = {
        path.name: names
        for path in SOURCES
        if (names := INVERSE_OF_U.findall(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}
    source = (PACKAGE / "ktheory.py").read_text(encoding="utf-8")
    assert _naming_scopes(source, {".u"}) == U_READERS



FUNCTION_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
SCOPES = FUNCTION_SCOPES + (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# The package functions that only tests call, each kept for a stated reason.
TEST_ONLY_ALLOWED = {
    # the documented inverse of --structured (README, "Subcommands")
    "cli.parse_structured",
}


def _bindings(scope) -> set[str]:
    """The names a function, lambda or comprehension binds for itself: its
    parameters, and the names it stores, imports or defines, leaving out
    those of the scopes nested in it."""
    bound = set()
    if isinstance(scope, FUNCTION_SCOPES):
        a = scope.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        bound |= {p.arg for p in params}
        stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    else:
        stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, DEFINITIONS):
            bound.add(node.name)
        if not isinstance(node, SCOPES + DEFINITIONS):
            stack += ast.iter_child_nodes(node)
    return bound


def _reads(node, skip=frozenset(), local=frozenset()) -> set[str]:
    """The names ``node`` reads outside the subtrees in ``skip``: a loaded
    name that no enclosing function scope binds, an attribute, or a name
    imported."""
    if node in skip:
        return set()
    if isinstance(node, SCOPES):
        local = local | _bindings(node)
    found = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
        found.add(node.id)
    elif isinstance(node, ast.Attribute):
        found.add(node.attr)
    elif isinstance(node, ast.ImportFrom):
        found |= {a.name for a in node.names}
    for child in ast.iter_child_nodes(node):
        found |= _reads(child, skip, local)
    return found


def _test_only_definitions(package: dict[str, str], readers: list[str]) -> set[str]:
    """The definitions of ``package`` (module name to source) that nothing
    but the tests reads.

    A definition is a top-level function or class, or a method of a
    top-level class, named ``module.name`` or ``module.Class.method``.  It
    is live when a live definition, the module-level code of a package
    module, or one of the ``readers`` reads its name; dunder methods, which
    Python calls itself, are live.  Liveness goes by name alone, so a read
    of ``x.negate`` keeps every definition named ``negate`` live.
    """
    live_names = set().union(*(_reads(ast.parse(src)) for src in readers))
    definitions = []  # (key, name, the names it reads)
    for module, source in package.items():
        tree = ast.parse(source)
        nodes = []
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                nodes.append((f"{module}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                nodes += [
                    (f"{module}.{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, DEFINITIONS)
                ]
        skip = frozenset(n for _, n in nodes)
        live_names |= _reads(tree, skip)
        definitions += [(key, n.name, _reads(n, skip - {n})) for key, n in nodes]
    live = set()
    grown = True
    while grown:
        grown = False
        for key, name, reads in definitions:
            if key not in live and (name in live_names or name.startswith("__")):
                live.add(key)
                live_names |= reads
                grown = True
    return {key for key, _, _ in definitions} - live


def test_test_only_detector():
    package = {
        "__init__": "from .m import exported\n",
        "m": (
            "def exported():\n    return 1\n"
            "def tested():\n    return helper()\n"
            "def helper():\n    return 2\n"
            "def support():\n    return 3\n"
            "def gamma():\n    return 4\n"
            "def scale():\n    return 5\n"
            "def uses_locals(support, m):\n"
            "    gamma = m\n"
            "    return [scale for scale in support] + [gamma]\n"
            "class K:\n"
            "    def __post_init__(self):\n        pass\n"
            "    def negate(self, kt):\n        return self\n"
            "    def unread(self):\n        return support()\n"
        ),
    }
    reader = "from cklef.m import K, uses_locals\ndef use(x, kt):\n    return x.negate(kt)\n"
    # read only by tests: tested, and through it helper; the parameter
    # support, the local gamma and the comprehension's scale are no reads
    assert _test_only_definitions(package, [reader]) == {
        "m.tested", "m.helper", "m.support", "m.gamma", "m.scale", "m.K.unread",
    }


def test_no_package_function_has_only_test_callers():
    root = PACKAGE.parents[1]
    readers = sorted((root / "perfbench").glob("*.py")) + [root / "tests" / "test_acceptance.py"]
    # the console scripts call their entry points: "cklef.cli:main" reads main
    scripts = (root / "pyproject.toml").read_text(encoding="utf-8").split("[project.scripts]")[1]
    entry_points = re.findall(r'"[\w.]+:(\w+)"', scripts.split("\n[")[0])
    assert entry_points == ["main"]
    offenders = _test_only_definitions(
        {path.stem: path.read_text(encoding="utf-8") for path in SOURCES},
        [path.read_text(encoding="utf-8") for path in readers] + entry_points,
    )
    assert offenders == TEST_ONLY_ALLOWED
