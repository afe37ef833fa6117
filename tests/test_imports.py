"""Every module-level import of a ``borno`` module is used in that module,
and every module-level UPPER_CASE constant is read somewhere in ``borno``.

A refactor that moves code between modules tends to leave its imports and
constants behind.  A name counts as used when the module loads it anywhere
or lists it in ``__all__``; ``__init__.py`` only re-exports and is exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "borno"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names that ``source``'s module-level imports bind and it never
    uses, in the order of the imports."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_unused_and_exported_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport math as m\n"
              "from .algebra import vec, unvec, BoundedSet\n"
              "__all__ = ['BoundedSet']\n"
              "def f(x):\n    return unvec(x) + os.sep\n")
    assert unused_imports(source) == ["m", "vec"]


def unread_constants(sources):
    """The ``(module, name)`` of each module-level UPPER_CASE assignment in
    ``sources`` (module name -> source) that no source loads, as a name or
    as an attribute."""
    assigned, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            assigned += [(module, t.id) for t in targets
                         if isinstance(t, ast.Name) and t.id.isupper()]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [(module, name) for module, name in assigned if name not in read]


def test_every_constant_is_read():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_constants(sources) == []


def test_guard_sees_unread_constants():
    sources = {"a": "TOL = 1e-9\nCAP: int = 4\nUNUSED = 2\n_PRIVATE = 3\n"
                    "def f(x):\n    return x < TOL\n",
               "b": "from . import a\nLIMIT = a.CAP + a._PRIVATE\n"}
    assert unread_constants(sources) == [("a", "UNUSED"), ("b", "LIMIT")]
