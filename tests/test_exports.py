"""The package's public names resolve.

Tools that walk the API (tracers, docs) call getattr on every name in a
module's __all__, so a stale entry breaks them even when no test imports
the name.
"""

import importlib
import pkgutil

import pytest

import tangentia

MODULES = sorted(m.name for m in pkgutil.iter_modules(tangentia.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(f"tangentia.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


def test_package_init_runs():
    # re-run __init__ itself: its imports must name existing objects
    importlib.reload(tangentia)
