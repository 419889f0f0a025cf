"""Every name a ``cbo`` module exports in ``__all__`` resolves to one of its
attributes: tools that walk the public API, like the bench tracer, look each
one up with ``getattr``."""

import importlib
import pkgutil

import pytest

import cbo

MODULES = ["cbo", *(info.name for info in pkgutil.iter_modules(cbo.__path__, "cbo."))]


def test_every_module_is_listed():
    assert {"cbo.cli", "cbo.engine", "cbo.metrics", "cbo.mfa", "cbo._parallel"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
