"""The package's public surface: what each module's ``__all__`` lists, and what stays in the tests."""

import ast
import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_readme_library_example_runs(capsys):
    # the documented API: the python block under README's "Library example" heading
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # each print line of the block shows, and the CLT line ends with the verdict
    assert len(lines) == block.count("print(") and lines[-1].endswith("True")


def test_only_the_command_line_fits():
    # the decay layers return their sequences; cli alone turns them into fitted envelopes
    importers = set()
    for path in Path(skewfiber.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "fitting":
                importers.add(path.name)
    assert importers == {"cli.py"}
    assert [f.name for f in dataclasses.fields(skewfiber.limits.CorrelationCurve)] == ["lags", "values", "err_bounds"]


def test_tables_are_built_from_arrays():
    # a word -> measure dict becomes a table only in the tests, through oracles.from_fibers
    assert not hasattr(skewfiber.transfer.Disintegration, "from_fibers")
    assert not hasattr(skewfiber.transfer.Disintegration, "_per_word")


def test_importing_the_package_leaves_the_command_line_unloaded():
    # the demos read their shipped configs through cli.parse_config, which a demo imports when called
    script = ("import sys, skewfiber\n"
              "print('skewfiber.cli' in sys.modules)\n"
              "skewfiber.cantor_demo()\n"
              "print('skewfiber.cli' in sys.modules)\n")
    src = str(Path(skewfiber.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.split() == ["False", "True"]
