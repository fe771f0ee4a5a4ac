"""The hand-written export lists name only what their modules define."""

import importlib
import pkgutil

import pytest

import copsurv

MODULES = ["copsurv"] + [f"copsurv.{info.name}"
                         for info in pkgutil.iter_modules(copsurv.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    exec(f"from {name} import *", {})
