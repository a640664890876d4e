"""sensopt's modules reach each other only through public names they use.

A name with a leading underscore is private to the module that defines
it, so a decision it encodes has one owner, and that module reads it:
one it never reads is dead. A name imported from a sensopt module and
never read is dead too, unless it is a binding that perfbench/spans.py
wraps (PATCH_POINTS). This reads the source of each module of
src/sensopt and of spans.py, and imports none of them.
"""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SOURCE = _ROOT / "src" / "sensopt"


def _sensopt_imports(tree: ast.AST) -> list[tuple[ast.ImportFrom, ast.alias]]:
    """Each (statement, alias) importing a name from a sensopt module.

    A sensopt module is one imported relatively or from the sensopt
    package.
    """
    return [
        (node, alias)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "sensopt")
        for alias in node.names
    ]


def _private_imports(source: str) -> list[str]:
    """The private names a module's `source` imports from a sensopt module.

    Dunder names such as __version__ are public.
    """
    return [
        f"{'.' * node.level}{node.module or ''}.{alias.name}"
        for node, alias in _sensopt_imports(ast.parse(source))
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]


def _read_names(tree: ast.AST) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _dead_imports(source: str) -> list[str]:
    """The names a module's `source` imports from a sensopt module and never reads."""
    tree = ast.parse(source)
    read = _read_names(tree)
    bound = [alias.asname or alias.name for _, alias in _sensopt_imports(tree)]
    return [name for name in bound if name not in read]


def _unread_private_names(source: str) -> list[str]:
    """The private names a module's `source` defines at its top level and never reads.

    A top-level def, class or assignment target defines a name; dunder
    names such as __version__ are public.
    """
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    read = _read_names(tree)
    return [
        name
        for name in defined
        if name.startswith("_") and not name.endswith("__") and name not in read
    ]


def _patch_points() -> set[str]:
    """The `owner.attribute` bindings of PATCH_POINTS in perfbench/spans.py."""
    tree = ast.parse((_ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PATCH_POINTS"]
    ]
    return {f"{owner}.{attr}" for owner, attr, _, _ in ast.literal_eval(value)}


def test_the_check_finds_a_private_import():
    source = (
        "from __future__ import annotations\n"
        "from . import __version__\n"
        "from .data import _texts, write_rows\n"
        "from sensopt.network import _layer_views\n"
        "from numpy import _private\n"
        "def f():\n"
        "    from .sweep import _ChunkPredictor\n"
    )
    assert _private_imports(source) == [
        ".data._texts", "sensopt.network._layer_views", ".sweep._ChunkPredictor"
    ]


@pytest.mark.parametrize("path", sorted(_SOURCE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_a_private_name(path):
    assert _private_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_a_dead_import():
    source = (
        "from __future__ import annotations\n"
        "from .data import check_maxima, encode_inputs as encode, write_rows\n"
        "from numpy import asarray\n"
        "def f(values: SampleTable) -> None:\n"
        "    from .sweep import run_sweep, predict_curves\n"
        "    check_maxima(values)\n"
        "    return predict_curves\n"
        "write_rows = None\n"
    )
    assert _dead_imports(source) == ["encode", "write_rows", "run_sweep"]


@pytest.mark.parametrize("path", sorted(_SOURCE.glob("*.py")), ids=lambda path: path.name)
def test_every_unread_import_is_a_binding_perfbench_wraps(path):
    module = "sensopt" if path.stem == "__init__" else f"sensopt.{path.stem}"
    dead = {f"{module}.{name}" for name in _dead_imports(path.read_text(encoding="utf-8"))}
    assert dead <= _patch_points()


def test_the_check_finds_an_unread_private_name():
    source = (
        "from __future__ import annotations\n"
        "_USED = 1\n"
        "_UNREAD, _PAIR = 2, 3\n"
        "_ANNOTATED: int = 4\n"
        "__dunder__ = 5\n"
        "def _helper():\n"
        "    _local = _USED\n"
        "    return _local\n"
        "def _orphan():\n"
        "    pass\n"
        "class _Private:\n"
        "    _attribute = 6\n"
        "def public(value: _Annotation = _ANNOTATED):\n"
        "    return _helper() + _PAIR\n"
    )
    assert _unread_private_names(source) == ["_UNREAD", "_orphan", "_Private"]


@pytest.mark.parametrize("path", sorted(_SOURCE.glob("*.py")), ids=lambda path: path.name)
def test_every_private_name_is_read_where_it_is_defined(path):
    assert _unread_private_names(path.read_text(encoding="utf-8")) == []
