"""Every name an import binds is read somewhere in its own module.

An unused import costs load time and misleads the reader about what a
module depends on.  The check walks the ASTs of ``src/``, ``tests/`` and
``scripts/``: a name bound by ``import`` or ``from ... import`` must be
read (as a name, or as the base of an attribute) elsewhere in the same
file.  ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED_DIRS = ("src", "tests", "scripts")


def _imported_names(tree: ast.Module) -> list[tuple[int, str]]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names.append((node.lineno, alias.asname or alias.name))
    return names


def _read_names(tree: ast.Module) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    read = _read_names(tree)
    return [(line, name) for line, name in _imported_names(tree) if name not in read]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for directory in SCANNED_DIRS
        for path in sorted((ROOT / directory).rglob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "imported names never used:\n" + "\n".join(found)


def test_the_scan_sees_reads_attributes_and_aliases():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "import sys\n"
        "x = np.zeros(1)\n"
        "y: loads = os.path.join('a')\n"
        "sys = 1\n"
    )
    assert unused_imports(source) == [(4, "dumps"), (5, "sys")]
