"""Every public name resolves: each entry of ``fellerkit.__all__`` and of a
submodule's ``__all__`` is an attribute of its module, so a deletion that
leaves its export behind fails here rather than on ``import *``.
"""

import importlib
import pkgutil

import pytest

import fellerkit

MODULES = ["fellerkit"] + [
    f"fellerkit.{info.name}" for info in pkgutil.iter_modules(fellerkit.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)] == []
