"""The package as shipped: its data files against pyproject.toml, and its
modules against dead imports and dead private helpers.

Tests import the package from `src/`, so a data file that no
`[tool.setuptools.package-data]` glob matches passes every other test and is
still missing from an installed package. No linter runs on the tree, so an
import orphaned by a change, or a private helper that a fold left behind, is
caught here, with the standard `ast` module.
"""

import ast
from fnmatch import fnmatch
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DOMAINS = SRC / "divplan" / "domains"

# imported to be patched, not called: bench/spans.py's tracer replaces these
# names on the module (tests/test_tracer_hooks.py checks it finds them)
PATCH_ONLY_IMPORTS = {
    ("divplan/satplan/generators.py", "encode"),
    ("divplan/satplan/generators.py", "solve_task"),
}


def test_package_data_globs_and_data_files_match_one_to_another():
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    globs = config["tool"]["setuptools"]["package-data"]["divplan.domains"]
    files = [
        path.relative_to(DOMAINS).as_posix()
        for path in sorted((DOMAINS / "data").rglob("*"))
        if path.is_file()
    ]
    assert files
    for name in files:
        assert any(fnmatch(name, glob) for glob in globs), f"{name} is not shipped"
    for glob in globs:
        assert any(fnmatch(name, glob) for name in files), f"{glob} matches no file"


def _unused_imports(source: str) -> set:
    """The names a module's imports bind that no name in it reads and its
    `__all__` does not export. `import a.b` binds `a`."""
    imported, used = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_the_unused_import_check_reads_every_import_form():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from typing import Mapping, Optional\n"
        "from .core import Plan as P, Fluent\n"
        "__all__ = ['Fluent']\n"
        "def f(x: Optional[int]) -> P:\n"
        "    return os.sep\n"
    )
    assert _unused_imports(source) == {"js", "Mapping"}


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        (path.relative_to(SRC).as_posix(), name)
        for path in sorted(SRC.rglob("*.py"))
        for name in _unused_imports(path.read_text())
    }
    assert unused == PATCH_ONLY_IMPORTS


def _unreferenced_private_defs(sources: dict) -> set:
    """(module, name) of each private top-level function or class that no
    other top-level statement of any module mentions, by a name, an
    attribute or an import. A helper's calls to itself do not count."""
    defs, mentions = [], []
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            names = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.asname or node.name)
            mentions.append((statement, names))
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and statement.name.startswith("_") and not statement.name.startswith("__"):
                defs.append((module, statement))
    return {
        (module, d.name)
        for module, d in defs
        if not any(d.name in names for statement, names in mentions if statement is not d)
    }


def test_the_unreferenced_private_check_reads_every_reference_form():
    sources = {
        "a.py": (
            "def _walk(node):\n"
            "    return [_walk(c) for c in node]\n"
            "def _called():\n"
            "    pass\n"
            "class _Imported:\n"
            "    pass\n"
            "def _read_as_attribute():\n"
            "    pass\n"
            "def __dunder__():\n"
            "    pass\n"
            "def public():\n"
            "    return _called()\n"
        ),
        "b.py": (
            "from .a import _Imported\n"
            "from . import a\n"
            "x = a._read_as_attribute\n"
        ),
    }
    assert _unreferenced_private_defs(sources) == {("a.py", "_walk")}


def test_every_private_helper_is_referenced():
    sources = {
        path.relative_to(SRC).as_posix(): path.read_text()
        for path in sorted(SRC.rglob("*.py"))
    }
    assert _unreferenced_private_defs(sources) == set()
