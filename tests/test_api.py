"""The package namespace assembled from the submodules' ``__all__`` lists."""
from __future__ import annotations

import roughstep


def test_every_exported_name_resolves():
    missing = [name for name in roughstep.__all__ if not hasattr(roughstep, name)]
    assert missing == []


def test_every_exported_name_appears_once():
    names = roughstep.__all__
    assert sorted(set(names)) == sorted(names)
