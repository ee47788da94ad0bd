"""Every public top-level name of the package has a user outside tests/.

A name nothing but tests reaches is dead API: it has to be kept working,
yet no command, script or benchmark depends on it.  Users are found in
the ASTs of ``src/``, ``scripts/`` and ``perfbench/``: a read of the
name, an attribute of that name, or an import of it.  The definition
itself does not count, and neither do strings or docstrings.
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


def test_the_scan_ignores_definitions_and_strings():
    tree = ast.parse(
        'def lonely():\n    """lonely"""\n\nHOOK = "lonely"\n\ndef used():\n    pass\n\nused()\n'
    )
    assert _public_definitions(tree) == ["lonely", "HOOK", "used"]
    assert _references(tree) == {"used"}
