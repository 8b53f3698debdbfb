"""Every public name of ``gkdv`` resolves in the module that exports it,
each module imports on its own, the derivative oracles stay in the tests,
and the spatial layer has one path.  The package itself exports nothing:
its names are imported from the modules, as ``gkdv.integrators.evolve``."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gkdv

MODULES = [importlib.import_module(f"gkdv.{m.name}")
           for m in pkgutil.iter_modules(gkdv.__path__)]


@pytest.mark.parametrize("mod", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_names_resolve(mod):
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize("name", [mod.__name__ for mod in MODULES])
def test_module_imports_alone(name):
    # a fresh interpreter per module, so no other module's imports hide one
    # this module lacks
    src = str(Path(gkdv.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", f"import {name}"],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_derivative_oracles_are_not_in_the_package():
    # apply_d1 and apply_d2 live in tests/oracles.py: no module of the package
    # defines, imports or exports them
    assert [mod.__name__ for mod in [gkdv, *MODULES]
            if {"apply_d1", "apply_d2"} & set(vars(mod))] == []


def test_one_path_through_the_spatial_layer():
    # numpy.fft is called only in spectral; spectral.make_grid is imported only
    # by scenarios, whose Scenario.make_grid checks that the initial state has
    # decayed at the boundary
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
    assert make_grid == {"gkdv.scenarios"}
