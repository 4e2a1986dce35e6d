"""Every imported name is read: an ``ast`` scan of src/, tests/ and demos/.

A package ``__init__.py`` imports names to re-export them, and a
``from __future__`` import switches on a language feature, so neither counts.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for top in ("src", "tests", "demos") for path in (ROOT / top).rglob("*.py")
               if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names the source imports and never reads, with their lines."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_the_scan_finds_what_it_should():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom math import pi, tau\n"
              "tau = 1\nprint(os.sep, np.pi)\n")
    assert unused_imports(source) == ["pi (line 4)", "tau (line 4)"]


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []
