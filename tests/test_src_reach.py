"""Every function and class that `src/roundquery/` defines is reached from
the program: its name is read somewhere in `src/roundquery/` or in
`perfbench/*.py`, so code that only the tests call lives with the tests.

A name counts as read when it appears as a name (`f(...)`), an attribute
(`obj.f`), an import outside the package's `__init__.py` (whose exports
alone keep nothing alive), or a whole string constant (perfbench's tracer
patches its targets by string).  A name that is defined but read nowhere
must be on `ALLOWED`, with the reason it stays."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "roundquery"

ALLOWED = {
    "last_view": "`TestSelectionFullPool` compares sel-full's kept categories with the reference every round",
}


def _parsed(paths):
    return [(path, ast.parse(path.read_text())) for path in paths]


def defined_names():
    """Each non-dunder def or class name in the package, with where it is."""
    names = {}
    for path, tree in _parsed(sorted(PACKAGE.glob("*.py"))):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    names.setdefault(node.name, f"{path.name}:{node.lineno}")
    return names


def read_names():
    """Every name the package and perfbench read, in the four forms."""
    seen = set()
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path, tree in _parsed(paths):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.alias) and path != PACKAGE / "__init__.py":
                seen.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                seen.add(node.value)
    return seen


def test_every_definition_is_reached_or_allowed():
    seen = read_names()
    unreached = {name: where for name, where in defined_names().items() if name not in seen}
    stray = {name: where for name, where in unreached.items() if name not in ALLOWED}
    assert not stray, f"defined in src/ but read only by tests (move them, or allow them with a reason): {stray}"


def test_every_allowed_name_is_defined_and_unreached():
    defined, seen = defined_names(), read_names()
    assert all(name in defined and name not in seen for name in ALLOWED), ALLOWED
    assert all(reason.strip() for reason in ALLOWED.values())
