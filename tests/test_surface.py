"""The package's public surface: what each module's ``__all__`` lists, and what stays in the tests."""

import ast
import importlib
import pkgutil
from pathlib import Path

import skewfiber

MODULES = [importlib.import_module(f"skewfiber.{info.name}") for info in pkgutil.iter_modules(skewfiber.__path__)]


def test_package_surface():
    # every name a module's __all__ lists resolves
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
    # no oracle can be imported from the package
    oracles = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    defined = {node.name for node in oracles.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for module in [skewfiber, *MODULES]:
        assert not defined & set(dir(module)), module.__name__
    # every ``from .x import y`` in the package names something in x.__all__
    for path in Path(skewfiber.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                exported = importlib.import_module(f"skewfiber.{node.module}").__all__
                for alias in node.names:
                    assert alias.name in exported, f"{path.name} imports {node.module}.{alias.name}"
