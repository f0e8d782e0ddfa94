"""The package's public surface: every exported name resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import ddlab


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(ddlab.__path__):
        module = importlib.import_module(f"ddlab.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"ddlab.{info.name}.{name}"
    # the package root re-exports only names its modules list in __all__
    tree = ast.parse(Path(ddlab.__file__).read_text())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"ddlab.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert hasattr(ddlab, alias.name), alias.name
