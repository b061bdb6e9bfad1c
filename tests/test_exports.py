"""Every name that the package and each of its modules export resolves."""

import importlib
import pkgutil

import pytest

import etdac

MODULES = ["etdac"] + [f"etdac.{info.name}" for info in pkgutil.iter_modules(etdac.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
