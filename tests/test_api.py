"""The package's public names: ``__all__`` matches what ``__init__`` imports."""

import ast
import inspect

import rvblab


def _imported_names():
    tree = ast.parse(inspect.getsource(rvblab))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_export_resolves():
    missing = [name for name in rvblab.__all__ if not hasattr(rvblab, name)]
    assert missing == []


def test_all_lists_exactly_the_imports():
    assert len(rvblab.__all__) == len(set(rvblab.__all__))
    assert set(rvblab.__all__) == _imported_names()
