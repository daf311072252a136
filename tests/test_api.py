"""The package namespace assembled from the submodules' ``__all__`` lists, the
module-level imports of the package and its tests, and the module-level
definitions of the package and of the test oracles."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import roughstep

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [*ROOT.glob("src/roughstep/*.py"), *ROOT.glob("tests/*.py")]


def test_every_exported_name_resolves():
    missing = [name for name in roughstep.__all__ if not hasattr(roughstep, name)]
    assert missing == []


def test_every_exported_name_appears_once():
    names = roughstep.__all__
    assert sorted(set(names)) == sorted(names)


def _unused_imports(source: str) -> list[str]:
    """Module-level imported names that the module never reads.

    A name counts as read if it appears as a name anywhere in the module (an
    attribute base such as ``np`` in ``np.zeros`` included) or as a string in
    a literal ``__all__``; ``from __future__`` and star imports bind nothing.
    """
    tree = ast.parse(source)
    bound, used = [], {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [a.asname or a.name.split(".")[0] for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return sorted(set(bound) - used)


@pytest.mark.parametrize("path", sorted(SOURCES), ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_level_import(path):
    assert _unused_imports(path.read_text()) == []


def test_the_import_scan_sees_an_unused_name():
    source = "from __future__ import annotations\nimport os, sys as system\nfrom a import b\n"
    assert _unused_imports(source + "__all__ = ['b']\nsystem.exit\n") == ["os"]


def _definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """Module-level functions, classes and assigned names of a module, and the
    private methods of its classes, as ``(label, name)`` pairs.

    A method is labelled ``Class._name``.  Dunder names and handlers
    registered by ``@_subcommand``, which are called through the registry and
    never by name, are left out.
    """
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_subcommand"
                       for d in node.decorator_list):
                names.append((node.name, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(t.id, t.id) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            names += [(f"{node.name}.{m.name}", m.name) for m in node.body
                      if isinstance(m, ast.FunctionDef) and m.name.startswith("_")]
    return [(label, name) for label, name in names if not name.startswith("__")]


def _named(trees) -> set[str]:
    """Every name read, every attribute taken and every literal ``__all__`` entry in ``trees``."""
    named = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                named |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return named


def _dead(trees: dict) -> list[str]:
    """Module-level definitions and private methods of the package that the
    package neither reads nor exports, then oracles of ``tests/oracles.py``
    that no other test module reads.  A read from a test does not keep a
    package name alive, nor a read from the oracle module an oracle."""
    library = {path: tree for path, tree in trees.items() if path.parent.name == "roughstep"}
    oracles = {path: tree for path, tree in trees.items() if path.name == "oracles.py"}
    tests = {path: tree for path, tree in trees.items()
             if path.parent.name == "tests" and path.name != "oracles.py"}
    dead = []
    for modules, readers in ((library, library), (oracles, tests)):
        named = _named(readers.values())
        dead += [f"{path.name}:{label}" for path, tree in sorted(modules.items())
                 for label, name in _definitions(tree) if name not in named]
    return dead


def test_no_dead_module_level_definition():
    assert _dead({path: ast.parse(path.read_text()) for path in SOURCES}) == []


def test_the_definition_scan_sees_a_dead_name():
    source = ("def f(): pass\ndef g(): f()\nX = 1\nY: int = 2\nprint(Y)\nclass C: pass\n"
              "@_subcommand('run', {})\ndef handler(): pass\n__all__ = ['E']\ndef E(): pass\n"
              "obj.attr = X\nT = 3\n"
              "class K:\n    def __init__(self): self._used()\n    def _used(self): pass\n"
              "    def _unused(self): pass\n    def _test_only(self): pass\n"
              "    def public(self): pass\nK()\n")
    oracle_source = "def read(): pass\ndef helper(): pass\ndef chained(): helper()\n"
    trees = {Path("roughstep/m.py"): ast.parse(source),
             Path("tests/oracles.py"): ast.parse(oracle_source),
             Path("tests/test_m.py"): ast.parse("import oracles\nfrom roughstep.m import K, T\n"
                                                "print(T, K()._test_only(), oracles.read())\n")}
    assert _dead(trees) == ["m.py:g", "m.py:C", "m.py:T", "m.py:K._unused", "m.py:K._test_only",
                            "oracles.py:helper", "oracles.py:chained"]
