"""No library module imports a name it never reads, and no private
helper or private method outlives its last caller.

Each module of src/substoe except the package's __init__ (whose imports
are its exports) is parsed; every name bound by an import must be read
somewhere in the same module, as a plain name or as the base of an
attribute access.  Every private module-level function or class, and
every private method of a module-level class, must be read somewhere in
src/substoe outside its own body: as a plain name, as an attribute, or
as a name imported from its module.  Every private attribute stored as
self._x = ... must be read somewhere in src/substoe as an attribute, and
every name assigned at module level must be read somewhere in
src/substoe in one of the ways a private def is.  Attributes of immutable
objects, stored as object.__setattr__(self, "_x", ...), count as stored
too.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "substoe"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


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


def _reads(nodes):
    names = set()
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _is_private(node):
    return (isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__"))


def unread_private_defs(sources):
    """(module, line, name) of private defs nobody reads.

    A private def is a top-level function or class, or a method of a
    top-level class, whose name starts with one underscore.  sources maps
    module names to their text.  Reads outside every private def are the
    roots; a private def is read when a root or the body of a def already
    read names it.  So a def read only by itself (recursion) or only by
    other unread defs is reported too.
    """
    bodies = {}
    defs = []
    roots = set()
    for mod, text in sources.items():
        tree = ast.parse(text)
        found = []
        for node in tree.body:
            if _is_private(node):
                found.append(node)
            if isinstance(node, ast.ClassDef):
                found.extend(n for n in node.body if _is_private(n)
                             and isinstance(n, ast.FunctionDef))
        # a private method's nodes belong to it, not to its class
        owner = {}
        for node in found:
            for n in ast.walk(node):
                owner[id(n)] = node
        for node in found:
            bodies.setdefault(node.name, set()).update(_reads(
                n for n in ast.walk(node) if owner[id(n)] is node))
            defs.append((mod, node.lineno, node.name))
        roots |= _reads(n for n in ast.walk(tree) if id(n) not in owner)
    read = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name not in read:
            read.add(name)
            todo.extend(bodies.get(name, ()))
    return sorted(d for d in defs if d[2] not in read)


def _self_store(node):
    """The attribute name node stores on self, as self._x = ... or as
    object.__setattr__(self, "_x", ...), or None."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
        target, name = node.value, node.attr
    elif (isinstance(node, ast.Call) and len(node.args) == 3
          and isinstance(node.func, ast.Attribute)
          and node.func.attr == "__setattr__"
          and isinstance(node.func.value, ast.Name)
          and node.func.value.id == "object"
          and isinstance(node.args[1], ast.Constant)
          and isinstance(node.args[1].value, str)):
        target, name = node.args[0], node.args[1].value
    else:
        return None
    if isinstance(target, ast.Name) and target.id == "self":
        return name
    return None


def unread_private_attributes(sources):
    """(module, line, name) of private attributes stored on self that no
    module reads as an attribute; sources maps module names to text."""
    stored, read = [], set()
    for mod, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            name = _self_store(node)
            if name and name.startswith("_") and not name.startswith("__"):
                stored.append((mod, node.lineno, name))
    return sorted(s for s in stored if s[2] not in read)


def unread_module_names(sources):
    """(module, line, name) of names assigned at module level, other than
    dunder names, that no module reads; sources maps module names to
    text."""
    assigned, read = [], set()
    for mod, text in sources.items():
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            assigned.extend((mod, node.lineno, t.id) for t in targets
                            if isinstance(t, ast.Name)
                            and not t.id.startswith("__"))
        read |= _reads(ast.walk(tree))
    return sorted(a for a in assigned if a[2] not in read)


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


def test_scanner_finds_unread_private_defs():
    sources = {
        "a": "def _dead(n):\n    return _dead(n - 1)\n"
             "def _used():\n    pass\nclass _Gone:\n    pass\n"
             "def _local():\n    pass\nx = [_local]\n"
             "def _chain():\n    return _gone()\ndef _gone():\n    pass\n",
        "b": "from .a import _used\n",
    }
    assert unread_private_defs(sources) == [
        ("a", 1, "_dead"), ("a", 5, "_Gone"), ("a", 10, "_chain"),
        ("a", 12, "_gone")]


def test_scanner_finds_unread_private_methods():
    sources = {
        "a": "class Field:\n"
             "    def _used(self):\n        return self._helper()\n"
             "    def _helper(self):\n        return self._helper()\n"
             "    def _self_only(self):\n        return self._self_only()\n"
             "    def __eq__(self, other):\n        pass\n"
             "class _Cone:\n"
             "    def _step(self):\n        pass\n"
             "    def fix(self):\n        return self._step()\n",
        "b": "from .a import Field, _Cone\nField()._used()\n_Cone().fix()\n",
    }
    assert unread_private_defs(sources) == [("a", 6, "_self_only")]


def test_scanner_counts_attribute_reads():
    sources = {"a": "def _f():\n    pass\n", "b": "import a\na._f()\n"}
    assert unread_private_defs(sources) == []


def test_every_private_def_is_read():
    sources = {p.name: p.read_text() for p in PACKAGE}
    assert unread_private_defs(sources) == []


def test_scanner_finds_unread_private_attributes():
    sources = {
        "a": "class G:\n"
             "    def __init__(self):\n"
             "        self._cols = 1\n        self._step = 2\n"
             "        self._count = 0\n        self._count += 1\n"
             "        self.public = 3\n        self.__slot = 4\n"
             "        other._far = 5\n",
        "b": "def f(g):\n    return g._cols\n",
    }
    assert unread_private_attributes(sources) == [
        ("a", 4, "_step"), ("a", 5, "_count"), ("a", 6, "_count")]


def test_scanner_counts_object_setattr_stores():
    sources = {
        "a": "class F:\n"
             "    def __init__(self):\n"
             "        object.__setattr__(self, '_chain', [])\n"
             "        object.__setattr__(self, '_dead', 1)\n"
             "        object.__setattr__(self, 'public', 2)\n"
             "        object.__setattr__(other, '_far', 3)\n"
             "        object.__setattr__(self, '__slot', 4)\n"
             "        setattr(self, '_loose', 5)\n"
             "    def walk(self):\n"
             "        return self._chain\n",
    }
    assert unread_private_attributes(sources) == [("a", 4, "_dead")]


def test_every_private_attribute_is_read():
    sources = {p.name: p.read_text() for p in PACKAGE}
    assert unread_private_attributes(sources) == []


def test_scanner_finds_unread_module_names():
    sources = {
        "a": "CAP = 3\nX = 1\n_POOL: str = 'ab'\n__all__ = ['f']\n"
             "LOCAL = 2\ndef f():\n    return LOCAL\n"
             "class C:\n    INNER = 4\n",
        "b": "from .a import CAP\nimport a\na._POOL\n",
    }
    assert unread_module_names(sources) == [("a", 2, "X")]


def test_every_module_name_is_read():
    sources = {p.name: p.read_text() for p in PACKAGE}
    assert unread_module_names(sources) == []
