"""Every name a module imports at module level is used in that module.

Covers the package sources and the scripts. A name counts as used when it
is loaded anywhere in the module.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "brainstem").glob("*.py"),
                  *(ROOT / "scripts").glob("*.py")])


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
