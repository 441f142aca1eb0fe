"""Every name a wernerkit module lists in `__all__` is an attribute of that
module.  A stale export left behind by a deletion would break
`from wernerkit import *` and every tool that walks `__all__` with getattr.
The package re-exports each library module's `__all__`, so a name made
public there is public in `wernerkit` too."""

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



LIBRARY = ["decomposition", "hiddenvar", "linalg", "separability", "states"]


@pytest.mark.parametrize("name", LIBRARY)
def test_the_package_reexports_every_library_name(name):
    module = importlib.import_module(f"wernerkit.{name}")
    wrong = [
        entry for entry in module.__all__
        if getattr(wernerkit, entry, None) is not getattr(module, entry)
    ]
    assert wrong == []


def test_star_import_binds_exactly_the_package_all():
    namespace = {}
    exec("from wernerkit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(wernerkit.__all__)
