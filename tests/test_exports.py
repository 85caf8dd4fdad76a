import importlib
import pkgutil

import pytest

import vxsim

MODULES = sorted(m.name for m in pkgutil.iter_modules(vxsim.__path__))


@pytest.mark.parametrize("name", ["vxsim"] + [f"vxsim.{m}" for m in MODULES])
def test_export_lists_resolve(name):
    # a name deleted from a module but left in an export list fails here
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
