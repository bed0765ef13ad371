import importlib
import pkgutil

import pytest

import changeplane

MODULES = ["changeplane"] + [f"changeplane.{m.name}"
                             for m in pkgutil.iter_modules(changeplane.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    # A deleted function must not linger in an __all__ list.
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(mod, name)] == []
