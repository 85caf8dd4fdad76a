import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import vxsim

MODULES = sorted(m.name for m in pkgutil.iter_modules(vxsim.__path__))


@pytest.mark.parametrize("name", ["vxsim"] + [f"vxsim.{m}" for m in MODULES])
def test_export_lists_resolve(name):
    # a name deleted from a module but left in an export list fails here
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_are_listed_where_they_come_from():
    # a public name vxsim re-exports must be in its submodule's export list
    tree = ast.parse(Path(vxsim.__file__).read_text())
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"vxsim.{node.module}")
            listed = getattr(module, "__all__", ())
            unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in listed]
    assert unlisted == []
