"""Every function, method, class, class-level and module-level name the
package defines is referred to.

Class-level names are the names a class body assigns, such as enum members
and dataclass fields; module-level names are the names a module's top level
assigns, such as constants. A definition counts as referred to when its name
is loaded, imported or read as an attribute in the package sources, the
scripts, the benchmark or the tests; a field that is only passed to a
constructor is not. Dunder names are used by the interpreter and are exempt.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "brainstem").glob("*.py"))
READERS = sorted([*PACKAGE, *(ROOT / "scripts").glob("*.py"),
                  *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "perfbench").glob("*.py")])


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def assigned_names(body: list):
    """(name, line) of every name the statements ``body`` assign."""
    for stmt in body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and not is_dunder(target.id):
                yield target.id, stmt.lineno


def definitions(tree):
    """(name, line) of every function, method, class, class-level and
    module-level name."""
    yield from assigned_names(tree.body)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and not is_dunder(node.name):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            yield from assigned_names(node.body)


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
    source = ("__all__ = ['Box']\nLIMIT = 3\n"
              "class Box:\n    def __init__(self):\n        pass\n"
              "    def used(self):\n        pass\n"
              "    def spare(self):\n        pass\n")
    caller = "from box import Box\nBox().used()\n"
    assert unreferenced({"box.py": source}, [source, caller]) == \
        {"box.py": [("LIMIT", 2), ("spare", 8)]}


def test_checker_flags_an_unread_enum_member_and_field():
    source = ("class Mood(Enum):\n    CALM = 1\n    NEVER = 2\n"
              "@dataclass\nclass Pair:\n    left: int\n    spare: int = 0\n"
              "    __slots__ = ()\n")
    caller = "Mood.CALM\nPair(1, spare=2).left\n"
    assert unreferenced({"pair.py": source}, [source, caller]) == \
        {"pair.py": [("NEVER", 3), ("spare", 7)]}


def test_every_package_definition_is_referred_to():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in PACKAGE}
    readers = [path.read_text(encoding="utf-8") for path in READERS]
    assert unreferenced(sources, readers) == {}
