import importlib
import pkgutil

import pytest

import cep

MODULES = sorted(m.name for m in pkgutil.iter_modules(cep.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(f"cep.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
