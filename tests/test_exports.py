"""Every name a wernerkit module lists in `__all__` is an attribute of that
module.  A stale export left behind by a deletion would break
`from wernerkit import *` and every tool that walks `__all__` with getattr."""

import importlib
import pkgutil

import pytest

import wernerkit

# __main__ runs the CLI on import, so it is not imported here.
MODULES = ["wernerkit"] + [
    f"wernerkit.{info.name}"
    for info in pkgutil.iter_modules(wernerkit.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert len(exports) == len(set(exports))
    missing = [entry for entry in exports if not hasattr(module, entry)]
    assert missing == []

