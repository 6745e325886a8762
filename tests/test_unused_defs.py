"""Every function, method and class the package defines is referred to.

A definition counts as referred to when its name is loaded, imported or read
as an attribute in the package sources, the scripts, the benchmark or the
tests. Dunder methods are called by the interpreter and are exempt.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "brainstem").glob("*.py"))
READERS = sorted([*PACKAGE, *(ROOT / "scripts").glob("*.py"),
                  *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "perfbench").glob("*.py")])


def definitions(tree):
    """(name, line) of every function, method and class in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and not (
                node.name.startswith("__") and node.name.endswith("__")):
            yield node.name, node.lineno


def references(tree):
    """Every name ``tree`` loads, imports or reads as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.split(".")[-1]


def unreferenced(sources: dict, readers: list) -> dict:
    """{source name: [(name, line), ...]} of definitions nothing refers to."""
    used = set()
    for text in readers:
        used.update(references(ast.parse(text)))
    found = {}
    for name, text in sources.items():
        dead = [d for d in definitions(ast.parse(text)) if d[0] not in used]
        if dead:
            found[name] = dead
    return found


def test_checker_flags_an_unreferenced_definition():
    source = ("class Box:\n    def __init__(self):\n        pass\n"
              "    def used(self):\n        pass\n"
              "    def spare(self):\n        pass\n")
    caller = "from box import Box\nBox().used()\n"
    assert unreferenced({"box.py": source}, [source, caller]) == \
        {"box.py": [("spare", 6)]}


def test_every_package_definition_is_referred_to():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in PACKAGE}
    readers = [path.read_text(encoding="utf-8") for path in READERS]
    assert unreferenced(sources, readers) == {}
