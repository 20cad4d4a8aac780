"""Every module's export list names what the module defines."""

import importlib
import pkgutil

import pytest

import glfm

# __main__ runs the CLI on import, so it has nothing to export
MODULES = sorted(m.name for m in pkgutil.iter_modules(glfm.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_star_import_of_each_module(name):
    module = importlib.import_module(f"glfm.{name}")
    assert hasattr(module, "__all__"), f"glfm.{name} declares no __all__"
    # a star import raises AttributeError on a name that __all__ lists but
    # the module does not define
    exec(f"from glfm.{name} import *", {})


def test_package_exports_resolve():
    assert [n for n in glfm.__all__ if not hasattr(glfm, n)] == []
    exec("from glfm import *", {})
