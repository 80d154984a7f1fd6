"""Repo lint: every import under ``src/repro`` binds a name its module reads.

Files are parsed with :mod:`ast`, never imported.  A *binding* is the name
an ``import`` or ``from ... import`` statement introduces (``import a.b``
binds ``a``; ``from __future__`` and ``*`` imports bind nothing checked).
A binding is *read* when its name appears as an ``ast.Name`` anywhere in
the module, or inside a string annotation (an annotation that is a string,
or a string within an annotation, is parsed as an expression).  Package
``__init__.py`` files are exempt: their imports are the package's
re-exports.  ``make lint-imports`` runs this file.
"""

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

import pytest

REPO = Path(__file__).resolve().parents[2]
PACKAGE = REPO / "src" / "repro"


def _bindings(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    """``(line, name)`` of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _annotations(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(node: ast.AST) -> Set[str]:
    return {found.id for found in ast.walk(node) if isinstance(found, ast.Name)}


def read_names(tree: ast.AST) -> Set[str]:
    """Every name the module reads, string annotations included."""
    names = _names(tree)
    for annotation in _annotations(tree):
        for found in ast.walk(annotation):
            if isinstance(found, ast.Constant) and isinstance(found.value, str):
                try:
                    names |= _names(ast.parse(found.value, mode="eval"))
                except SyntaxError:
                    continue
    return names


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """The ``(line, name)`` import bindings ``source`` never reads."""
    tree = ast.parse(source)
    read = read_names(tree)
    return [(line, name) for line, name in _bindings(tree) if name not in read]


def _modules() -> List[Path]:
    return sorted(
        path for path in PACKAGE.rglob("*.py") if path.name != "__init__.py"
    )


def test_every_import_is_read():
    unused = [
        f"{path.relative_to(REPO)}:{line}: {name}"
        for path in _modules()
        for line, name in unused_imports(path.read_text())
    ]
    assert unused == [], "imports nothing reads:\n" + "\n".join(unused)


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import os\n", [(1, "os")]),
        ("import os.path\nos.sep\n", []),
        ("import numpy as np\nnp.zeros\n", []),
        ("from typing import Dict, List\nx: Dict = {}\n", [(1, "List")]),
        ("from a import b as c\nb()\n", [(1, "c")]),
        ("from __future__ import annotations\n", []),
        ("from a import *\n", []),
        ("def f():\n    import json\n", [(2, "json")]),
    ],
)
def test_bindings_and_reads(source, expected):
    assert unused_imports(source) == expected


def test_string_annotations_count_as_reads():
    source = (
        "from typing import Optional\n"
        "from .sink_tree import SinkTree\n"
        "from .bundle import Bundle\n"
        "def f(tree: 'SinkTree') -> Optional['Bundle']:\n"
        "    return None\n"
    )
    assert unused_imports(source) == []


def test_other_strings_do_not():
    assert unused_imports("import json\nprint('json')\n") == [(1, "json")]
