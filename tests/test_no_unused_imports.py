"""No library module imports a name it never reads.

Each module of src/substoe except the package's __init__ (whose imports
are its exports) is parsed; every name bound by an import must be read
somewhere in the same module, as a plain name or as the base of an
attribute access.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "substoe"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_scanner_finds_an_unused_import():
    source = "import os\nfrom re import compile, sub\nsub('a', 'b', 'c')\n"
    assert unused_imports(source) == [(1, "os"), (2, "compile")]


def test_scanner_counts_attribute_bases_as_read():
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


def test_modules_found():
    assert {"subst.py", "words.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []
