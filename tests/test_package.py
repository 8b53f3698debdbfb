"""Every public name of ``gkdv`` resolves where it is exported, the
derivative oracles stay in the tests, and the spatial layer has one path."""

import ast
import importlib
import pkgutil
import re
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


def test_derivative_oracles_are_not_in_the_package():
    # apply_d1 and apply_d2 live in tests/oracles.py: no module of the package
    # defines, imports or exports them
    assert [mod.__name__ for mod in [gkdv, *MODULES]
            if {"apply_d1", "apply_d2"} & set(vars(mod))] == []


def test_one_path_through_the_spatial_layer():
    # numpy.fft is called only in spectral; spectral.make_grid is imported only
    # by the package's re-export and by scenarios, whose Scenario.make_grid
    # checks that the initial state has decayed at the boundary
    fft, make_grid = set(), set()
    for mod in [gkdv, *MODULES]:
        source = Path(mod.__file__).read_text()
        if re.search(r"\b(np|numpy)\.fft\b|from numpy import .*\bfft\b", source):
            fft.add(mod.__name__)
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.ImportFrom) and node.module == "spectral"
                    and "make_grid" in [alias.name for alias in node.names]):
                make_grid.add(mod.__name__)
    assert fft == {"gkdv.spectral"}
    assert make_grid == {"gkdv", "gkdv.scenarios"}
