"""Every module under ``src/repro`` parses with the Python 3.9 grammar.

The package supports Python 3.9 (``requires-python``), but a newer
interpreter accepts syntax 3.9 rejects, such as ``match`` statements and
``except*``.  Parsing each module with ``feature_version=(3, 9)`` finds
that syntax on any interpreter (as far as :func:`ast.parse` checks it), as
``tests/engine/test_compiled_join.py`` does for the generated join source.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SOURCE_ROOT.glob("repro/**/*.py"))


def test_the_package_has_modules():
    assert len(MODULES) > 50


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.relative_to(SOURCE_ROOT).as_posix())
def test_module_parses_as_python_3_9(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 9))
