"""Every public name of ``gkdv`` resolves where it is exported."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gkdv

MODULES = [importlib.import_module(f"gkdv.{m.name}")
           for m in pkgutil.iter_modules(gkdv.__path__)]


@pytest.mark.parametrize("mod", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_names_resolve(mod):
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_binds_every_reexported_name():
    tree = ast.parse(Path(gkdv.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"gkdv.{node.module}")
        for alias in node.names:
            assert alias.name in mod.__all__, f"{node.module}.{alias.name}"
            assert getattr(gkdv, alias.asname or alias.name) is getattr(mod, alias.name)
