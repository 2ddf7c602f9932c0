"""The package parses on the oldest Python that pyproject.toml allows,
though the tests run on a newer one."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "empa").glob("*.py"))


def _floor():
    """(major, minor) of pyproject.toml's `requires-python = ">=X.Y"`."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"',
                             text).groups()
    return int(major), int(minor)


def test_the_floor_is_read():
    assert MODULES and _floor() == (3, 10)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_parses_on_the_oldest_allowed_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=_floor())
