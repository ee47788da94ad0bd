"""Every public name of the package has a user outside tests/.

A name nothing but tests reaches is dead API: it has to be kept working,
yet no command, script or benchmark depends on it.  Users are found in
the ASTs of ``src/``, ``scripts/`` and ``perfbench/``.  For a top-level
name, a user is a read of the name, an attribute of that name, or an
import of it; for a public method or property of a class, it is an
attribute of that name, unless its receiver is a module name bound by
an ``import`` statement: ``np.zeros`` is numpy's, not a use of a member
named ``zeros``.  (A ``from`` import may bind a class, so its
attributes count.)  The definition itself does not count, and neither
do strings or docstrings.  Otherwise a member is matched by name alone,
so one that shares its name with another type's attribute (``copy``,
say) passes whether or not it is used.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "opinionchain"
USER_DIRS = ("src", "scripts", "perfbench")


def _public_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.startswith("_")]


def _public_members(tree: ast.Module) -> list[str]:
    """``Class.member`` for every public method or property of the
    module's top-level classes."""
    return [
        f"{node.name}.{item.name}"
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    ]


def _module_names(tree: ast.AST) -> set[str]:
    """The names that ``import`` statements (not ``from`` ones) bind in
    ``tree``, each to a module."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }


def _attributes(tree: ast.AST) -> set[str]:
    """Every attribute read in ``tree`` but those of imported modules."""
    modules = _module_names(tree)
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and not (isinstance(node.value, ast.Name) and node.value.id in modules)
    }


def _references(tree: ast.AST) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                found.update(alias.name.split("."))
    return found


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_public_name_has_a_user_outside_tests():
    used: set[str] = set()
    for directory in USER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            used |= _references(_parse(path))
    unused = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in _public_definitions(_parse(path))
        if name not in used
    ]
    assert not unused, "public names with no user outside tests/:\n" + "\n".join(unused)


def test_every_public_member_has_a_user_outside_tests():
    used: set[str] = set()
    for directory in USER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            used |= _attributes(_parse(path))
    unused = [
        f"{path.relative_to(ROOT)}: {member}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for member in _public_members(_parse(path))
        if member.split(".")[1] not in used
    ]
    assert not unused, "public members with no user outside tests/:\n" + "\n".join(unused)


def test_the_member_scan_counts_attributes_only():
    tree = ast.parse(
        "class A:\n"
        "    def size(self):\n        pass\n\n"
        "    @property\n    def width(self):\n        return self.size()\n\n"
        "    def _hidden(self):\n        pass\n\n"
        "width = 3\n"
    )
    assert _public_members(tree) == ["A.size", "A.width"]
    assert _attributes(tree) == {"size"}


def test_the_member_scan_skips_attributes_of_imported_modules():
    tree = ast.parse(
        "import numpy as np\nimport json\nfrom .model import Params\n\n"
        "np.zeros(3)\njson.dumps(1)\nParams.random()\nmodel.fit()\n"
    )
    assert _attributes(tree) == {"random", "fit"}


def test_the_scan_ignores_definitions_and_strings():
    tree = ast.parse(
        'def lonely():\n    """lonely"""\n\nHOOK = "lonely"\n\ndef used():\n    pass\n\nused()\n'
    )
    assert _public_definitions(tree) == ["lonely", "HOOK", "used"]
    assert _references(tree) == {"used"}
