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
