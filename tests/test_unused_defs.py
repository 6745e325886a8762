"""Every function, method, class, class-level and module-level name the
package defines is referred to.

Class-level names are the names a class body assigns, such as enum members
and dataclass fields, and its methods; module-level names are the names a
module's top level assigns, such as constants. A class-level name counts as
referred to when it is read as an attribute in the package sources, the
scripts, the benchmark or the tests; any other definition counts when its
name is loaded, imported or read as an attribute there. A field that is only
passed to a constructor, or whose name only a local variable shares, is not
referred to. Dunder names are used by the interpreter and are exempt.
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree):
    """(name, line, class-level) of every function, method, class,
    class-level and module-level name."""
    for name, line in assigned_names(tree.body):
        yield name, line, False
    methods = {id(stmt) for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               for stmt in node.body if isinstance(stmt, FUNCTIONS)}
    for node in ast.walk(tree):
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)) \
                and not is_dunder(node.name):
            yield node.name, node.lineno, id(node) in methods
        if isinstance(node, ast.ClassDef):
            for name, line in assigned_names(node.body):
                yield name, line, True


def references(tree) -> tuple:
    """({names ``tree`` loads or imports}, {names it reads as attributes})."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names, attributes


def unreferenced(sources: dict, readers: list) -> dict:
    """{source name: [(name, line), ...]} of definitions nothing refers to."""
    names, attributes = set(), set()
    for text in readers:
        loaded, read = references(ast.parse(text))
        names |= loaded
        attributes |= read
    found = {}
    for source, text in sources.items():
        dead = [(name, line) for name, line, class_level
                in definitions(ast.parse(text))
                if name not in attributes
                and (class_level or name not in names)]
        if dead:
            found[source] = dead
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


def test_checker_flags_a_field_only_a_local_variable_shares():
    source = ("@dataclass\nclass Row:\n    avg: float\n    outcomes: dict\n"
              "    def total(self):\n        pass\n")
    caller = ("outcomes, total = {}, 0\n"
              "print(outcomes, total, Row(1.0, outcomes).avg)\n")
    assert unreferenced({"row.py": source}, [source, caller]) == \
        {"row.py": [("outcomes", 4), ("total", 5)]}


def test_every_package_definition_is_referred_to():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in PACKAGE}
    readers = [path.read_text(encoding="utf-8") for path in READERS]
    assert unreferenced(sources, readers) == {}
