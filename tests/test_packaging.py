"""The package data that pyproject.toml ships against the files in the tree.

Tests import the package from `src/`, so a data file that no
`[tool.setuptools.package-data]` glob matches passes every other test and is
still missing from an installed package.
"""

from fnmatch import fnmatch
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
DOMAINS = ROOT / "src" / "divplan" / "domains"


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
