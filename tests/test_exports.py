"""Every public name resolves: the names in each module's __all__ and the
names the package root imports, so a deleted function cannot stay
exported."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sspectrum

MODULES = sorted(m.name for m in pkgutil.iter_modules(sspectrum.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"sspectrum.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_root_imports_resolve():
    tree = ast.parse(Path(sspectrum.__file__).read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"sspectrum.{module}")
        assert hasattr(source, name) and hasattr(sspectrum, name), (module, name)


def test_kernels_imports_only_the_modules_below_it():
    # the hot-path module sits under slicefn, contour and calculus: the
    # stems and their closed forms are not its business
    tree = ast.parse((Path(sspectrum.__file__).parent / "kernels.py").read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0}
    assert imported <= {"errors", "operators", "qlinalg", "quat"}
