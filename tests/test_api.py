"""The package namespace assembled from the submodules' ``__all__`` lists, and
the module-level imports of the package and its tests."""
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
