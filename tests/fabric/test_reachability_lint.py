"""Repo lint: every definition under ``src/repro`` is reached from an entry point.

The roots are the programs this repository runs: ``examples/``,
``benchmarks/``, ``bench/`` and every module a Makefile recipe starts
(``python -m tests.alloc_digest``).  The rest of ``tests/`` is not a root:
a function only a test calls is a function nothing uses.

Files are parsed with :mod:`ast`, never imported.  A *reference* is an
``ast.Name``, an attribute's name, an import alias's last part, a keyword
argument's name, a name inside an annotation (a string annotation is
parsed), or a string constant that is exactly an identifier or a dotted
identifier path (``bench/trace.py``'s ``"ComponentSolutionCache.get"``
targets, ``getattr(obj, "name")``).  Docstrings do not count, and neither
do the ``import`` statements and ``__all__`` lists at a ``src/repro``
module's top level: a re-export is not a use.

The closure starts from every reference in a root file and in the other
top-level statements of ``src/repro`` modules.  A definition (a function,
a class, or a method or class inside a class) whose name is reached adds
the references in its decorators, bases, signature and body — for a
class, its body less its methods, which are definitions of their own,
but with its dunder methods, which the language calls — until nothing
changes.  Whatever function, class or method is left over fails the
test, apart from :data:`EXCEPTIONS`.

The rule is by name, not by binding: a reached name keeps every
definition that carries it, so two methods called ``get`` live or die
together.  ``tests/fabric/test_pipeline_lint.py`` keeps a ban list beside
this test for the distinctive names earlier deletions removed, because a
re-added caller would make them "reached" again.  ``make lint-reach`` runs
this file.
"""

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Set, Tuple

REPO = Path(__file__).resolve().parents[2]
PACKAGE = "src/repro/"

#: Paths (directories end in "/") whose files are entry points.
ROOT_DIRECTORIES = ("examples/", "benchmarks/", "bench/")

#: Definitions kept although no reference reaches them, as
#: ``"src/repro/<file>::<Qualified.name>"``, each with a comment naming what
#: calls it by a name this file cannot see.  None today.
EXCEPTIONS: Tuple[str, ...] = ()

_IDENTIFIER_PATH = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
_MAKE_MODULE = re.compile(r"\bpython3?\s+(?:-m\s+([\w.]+)|([\w/]+\.py))")


def makefile_roots(makefile: str) -> List[str]:
    """The repository modules a Makefile recipe runs, as relative paths."""
    found = []
    for module, script in _MAKE_MODULE.findall(makefile):
        path = module.replace(".", "/") + ".py" if module else script
        if (REPO / path).is_file():
            found.append(path)
    return sorted(set(found))


def _string_annotations(node) -> Iterator[ast.AST]:
    """The parsed text of every string inside ``node``'s annotation."""
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        annotation = node.annotation
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        annotation = node.returns
    else:
        return
    for inner in ast.walk(annotation) if annotation else ():
        if isinstance(inner, ast.Constant) and isinstance(inner.value, str):
            try:
                yield ast.parse(inner.value, mode="eval")
            except SyntaxError:
                pass


def references(nodes: Iterable[ast.AST]) -> Set[str]:
    """Every name the given trees reference, by the rules in the module doc."""
    names: Set[str] = set()
    bare_strings = set()  # docstrings and other string statements
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                bare_strings.add(id(node.value))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.keyword) and node.arg is not None:
                names.add(node.arg)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in bare_strings
                and _IDENTIFIER_PATH.fullmatch(node.value)
            ):
                names.update(node.value.split("."))
            for annotation in _string_annotations(node):
                names |= references([annotation])
    return names


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_definition(statement) -> bool:
    """A function or class, but not a dunder method: the language calls
    those, so they belong to their class's body."""
    return isinstance(statement, _DEFINITIONS) and not (
        statement.name.startswith("__") and statement.name.endswith("__")
    )


def _is_export(statement) -> bool:
    if isinstance(statement, (ast.Import, ast.ImportFrom)):
        return True
    targets = getattr(statement, "targets", None) or [getattr(statement, "target", None)]
    return any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets)


def _module_parts(body, path, prefix) -> Iterator[Tuple[str, str, List[ast.AST]]]:
    """Yield ``(label, name, trees)`` per definition and ``("", "", trees)``
    per other statement, walking into top-level ``if`` / ``try`` blocks and
    class bodies."""
    for statement in body:
        if _is_definition(statement):
            label = f"{path}::{prefix}{statement.name}"
            if isinstance(statement, ast.ClassDef):
                outer = statement.decorator_list + statement.bases + statement.keywords
                inner = [item for item in statement.body if not _is_definition(item)]
                yield label, statement.name, outer + inner
                yield from _module_parts(statement.body, path, prefix + statement.name + ".")
            else:
                yield label, statement.name, [statement]
        elif isinstance(statement, (ast.If, ast.Try)) and not prefix:
            blocks = [statement.body, statement.orelse, getattr(statement, "finalbody", [])]
            blocks += [handler.body for handler in getattr(statement, "handlers", [])]
            for block in blocks:
                yield from _module_parts(block, path, prefix)
        elif not prefix and not _is_export(statement):
            yield "", "", [statement]


def unreached_definitions(
    sources: Mapping[str, str], roots: Iterable[str] = ROOT_DIRECTORIES
) -> List[str]:
    """The ``path::Qualified.name`` of every definition under ``src/repro``
    in ``sources`` (relative path -> source text) that no root reaches.

    A path is a root if it equals one of ``roots`` or starts with one that
    ends in "/"; files that are neither roots nor under ``src/repro`` are
    ignored."""
    roots = tuple(roots)
    reached: Set[str] = set()
    definitions: Dict[str, List[Tuple[str, List[ast.AST]]]] = {}
    for path, source in sorted(sources.items()):
        tree = ast.parse(source, path)
        if path.startswith(PACKAGE):
            for label, name, trees in _module_parts(tree.body, path, ""):
                if label:
                    definitions.setdefault(name, []).append((label, trees))
                else:
                    reached |= references(trees)
        elif any(path == root or (root.endswith("/") and path.startswith(root)) for root in roots):
            reached |= references([tree])
    frontier = set(reached)
    while frontier:
        found = set()
        for name in frontier:
            for _, trees in definitions.pop(name, ()):
                found |= references(trees)
        frontier = found - reached
        reached |= found
    return sorted(
        label for entries in definitions.values() for label, _ in entries if label not in EXCEPTIONS
    )


def _repository_sources(extra_roots: Iterable[str]) -> Dict[str, str]:
    files = list((REPO / "src" / "repro").rglob("*.py"))
    for directory in ROOT_DIRECTORIES:
        files += (REPO / directory).rglob("*.py")
    files += [REPO / path for path in extra_roots]
    return {
        path.relative_to(REPO).as_posix(): path.read_text(encoding="utf-8") for path in files
    }


def test_every_definition_is_reached_from_an_entry_point():
    makefile = makefile_roots((REPO / "Makefile").read_text(encoding="utf-8"))
    assert "tests/alloc_digest.py" in makefile, makefile
    unreached = unreached_definitions(
        _repository_sources(makefile), ROOT_DIRECTORIES + tuple(makefile)
    )
    assert not unreached, (
        "definitions no example, benchmark, bench/ script or Makefile recipe "
        "reaches (delete them, or list one in EXCEPTIONS with the reason):\n  %s"
        % "\n  ".join(unreached)
    )


# -- the closure on a tiny tree ----------------------------------------------

_TREE = {
    "src/repro/__init__.py": (
        "from .lib import exported_only\n"
        '__all__ = ["exported_only"]\n'
    ),
    "src/repro/lib.py": '''
class Base:
    pass


def decorate(function):
    return function


class Cache(Base):
    def __init__(self):
        self.table = {}

    @decorate
    def get(self, key):
        return helper(key)


def helper(key):
    """orphan"""
    return key


class Annotated:
    pass


def orphan():
    pass


def tested_only():
    pass


def exported_only():
    pass


def dead_caller():
    return only_from_dead()


def only_from_dead():
    pass


def at_import_time():
    return 1


DEFAULT = at_import_time()


def by_keyword():
    pass


def by_getattr():
    pass


class Unused:
    def __repr__(self):
        return "Unused()"

    def method(self):
        pass
''',
    "bench/trace.py": '''
from repro.lib import Cache

TARGETS = ("Cache.get",)


def main(cache: "Optional[Annotated]") -> None:
    getattr(cache, "by_getattr")()
    dict(by_keyword=1)
''',
    "tests/test_lib.py": "from repro.lib import tested_only\n\ntested_only()\n",
}


def _flagged():
    return {label.split("::")[1] for label in unreached_definitions(_TREE)}


def test_a_definition_only_a_docstring_names_is_flagged():
    assert "orphan" in _flagged()


def test_a_definition_only_tests_reference_is_flagged():
    assert "tested_only" in _flagged()


def test_a_re_export_is_not_a_use():
    assert "exported_only" in _flagged()


def test_a_definition_only_an_unreached_one_references_is_flagged():
    assert {"dead_caller", "only_from_dead"} <= _flagged()


def test_an_annotation_reaches_a_definition():
    assert "Annotated" not in _flagged()


def test_a_dotted_string_target_reaches_a_method():
    assert "Cache.get" not in _flagged()


def test_the_body_of_a_reached_definition_is_reached():
    assert "helper" not in _flagged()


def test_a_decorator_and_a_base_of_a_reached_definition_are_reached():
    assert not {"decorate", "Base"} & _flagged()


def test_a_module_level_statement_reaches_a_definition():
    assert "at_import_time" not in _flagged()


def test_a_keyword_argument_name_reaches_a_definition():
    assert "by_keyword" not in _flagged()


def test_a_getattr_string_reaches_a_definition():
    assert "by_getattr" not in _flagged()


def test_dunder_methods_are_exempt_but_other_methods_are_not():
    flagged = _flagged()
    assert "Unused.method" in flagged
    assert not [name for name in flagged if name.rsplit(".", 1)[-1].startswith("__")]


def test_makefile_roots_are_the_repository_modules_a_recipe_runs():
    makefile = (
        "digest:\n\tPYTHONPATH=src python -m tests.alloc_digest --compare a b\n"
        "trace:\n\tpython3 bench/trace.py\n"
        "gone:\n\tpython -m tests.no_such_module\n"
    )
    assert makefile_roots(makefile) == ["bench/trace.py", "tests/alloc_digest.py"]


def test_exactly_the_unreached_definitions_are_flagged():
    assert _flagged() == {
        "orphan", "tested_only", "exported_only", "dead_caller", "only_from_dead",
        "Unused", "Unused.method",
    }
