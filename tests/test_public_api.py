"""Every exported name resolves: each module's __all__ and the package root's imports."""

import ast
import importlib
from pathlib import Path

import pytest

import gibbsmatch

MODULES = sorted(p.stem for p in Path(gibbsmatch.__file__).parent.glob("*.py")
                 if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"gibbsmatch.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_root_imports_resolve():
    tree = ast.parse(Path(gibbsmatch.__file__).read_text())
    imported = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    assert [n for n in imported if not hasattr(gibbsmatch, n)] == []
