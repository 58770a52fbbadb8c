"""The public names: every export resolves, and every error class is exported."""

import importlib
import inspect
import pkgutil

import pytest

import kvmflow
from kvmflow import errors

MODULES = sorted(m.name for m in pkgutil.iter_modules(kvmflow.__path__, "kvmflow."))


def test_package_exports_resolve():
    missing = [name for name in kvmflow.__all__ if not hasattr(kvmflow, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []


def test_every_error_class_is_exported():
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__]
    assert classes
    for cls in classes:
        assert cls.__name__ in kvmflow.__all__
        assert getattr(kvmflow, cls.__name__) is cls
