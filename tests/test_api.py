"""The package's public names: ``csomtex.__all__`` against what ``__init__`` imports."""

from __future__ import annotations

import ast
from pathlib import Path

import csomtex


def _imported_names() -> list[str]:
    """The public names ``csomtex/__init__.py`` imports from its own modules."""
    tree = ast.parse(Path(csomtex.__file__).read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]


def test_every_exported_name_resolves():
    missing = [name for name in csomtex.__all__ if not hasattr(csomtex, name)]
    assert missing == []


def test_no_name_is_exported_twice():
    assert len(csomtex.__all__) == len(set(csomtex.__all__))


def test_exports_are_exactly_the_imported_public_names():
    imported = _imported_names()
    assert len(imported) == len(set(imported))
    assert set(csomtex.__all__) == set(imported)
