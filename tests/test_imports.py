"""Every name a module imports at module level is used in that module, and
every script imports.

Covers the package sources, the scripts, the benchmark and the tests. A name
counts as used when it is loaded anywhere in the module. Importing a script
runs its module level but not its ``main()``, so a name it imports that no
longer exists fails here rather than when someone runs it.
"""

import ast
import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
SOURCES = sorted([*(ROOT / "src" / "brainstem").glob("*.py"), *SCRIPTS,
                  *(ROOT / "perfbench").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def _module_level_imports(body):
    """(bound name, line) for imports outside functions and classes."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            for block in ("body", "orelse", "finalbody"):
                yield from _module_level_imports(getattr(node, block, []))
            for handler in getattr(node, "handlers", []):
                yield from _module_level_imports(handler.body)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(name, line) for name, line in _module_level_imports(tree.body)
            if name not in used]


def test_checker_flags_an_unused_import():
    source = "import json\nfrom collections import deque\nprint(json)\n"
    assert unused_imports(source) == [("deque", 2)]


def test_no_unused_module_level_imports():
    unused = {str(path.relative_to(ROOT)): found for path in SOURCES
              if (found := unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
def test_script_imports_without_running(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # scripts prepend src/
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
