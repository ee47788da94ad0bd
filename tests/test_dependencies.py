"""The package imports nothing but the standard library, numpy and itself.

``pyproject.toml`` lists numpy as the one runtime dependency, and this
check holds the code to it.  It walks the ASTs of ``src/opinionchain``,
imports inside functions included, and takes the top-level module of
every absolute import; a relative import is the package's own.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "opinionchain"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "opinionchain"}


def imported_modules(source: str) -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_the_package_imports_only_the_standard_library_and_numpy():
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {module}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, module in imported_modules(path.read_text(encoding="utf-8"))
        if module not in ALLOWED
    ]
    assert not found, "imports outside the standard library and numpy:\n" + "\n".join(found)


def test_the_scan_sees_lazy_dotted_and_from_imports():
    source = (
        "import os.path\n"
        "from numpy.linalg import norm\n"
        "from . import errors\n"
        "from .model import forward\n"
        "def f():\n"
        "    from scipy.special import expit\n"
        "    import pandas as pd\n"
    )
    assert imported_modules(source) == [
        (1, "os"), (2, "numpy"), (6, "scipy"), (7, "pandas")
    ]
