"""sensopt's modules reach each other only through public names.

A name with a leading underscore is private to the module that defines
it, so a decision it encodes has one owner. This reads the source of
each module of src/sensopt and imports none of them.
"""

import ast
from pathlib import Path

import pytest

_SOURCE = Path(__file__).resolve().parents[1] / "src" / "sensopt"


def _private_imports(source: str) -> list[str]:
    """The private names a module's `source` imports from a sensopt module.

    A sensopt module is one imported relatively or from the sensopt
    package; dunder names such as __version__ are public.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "sensopt":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.endswith("__"):
                found.append(f"{'.' * node.level}{node.module or ''}.{alias.name}")
    return found


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
