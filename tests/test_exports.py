"""Every name a module exports resolves, as `from defexp.<module> import *` needs."""

import importlib
import pkgutil

import pytest

import defexp

MODULES = [
    m.name for m in pkgutil.iter_modules(defexp.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_export(name):
    module = importlib.import_module(f"defexp.{name}")
    exported = getattr(module, "__all__", [])
    namespace = {}
    exec(f"from defexp.{name} import *", namespace)
    assert [n for n in exported if n not in namespace] == []
