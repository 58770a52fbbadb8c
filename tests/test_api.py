"""The public names: every export resolves, and every error class is exported
and raised."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import kvmflow
from kvmflow import errors

MODULES = sorted(m.name for m in pkgutil.iter_modules(kvmflow.__path__, "kvmflow."))
ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if cls.__module__ == errors.__name__]


def test_package_exports_resolve():
    missing = [name for name in kvmflow.__all__ if not hasattr(kvmflow, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []


def test_every_error_class_is_exported():
    assert ERROR_CLASSES
    for cls in ERROR_CLASSES:
        assert cls.__name__ in kvmflow.__all__
        assert getattr(kvmflow, cls.__name__) is cls


def test_every_error_class_is_raised_by_name():
    # a class that no module raises is an error callers can catch but never see
    raised = set()
    for path in Path(kvmflow.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert sorted(cls.__name__ for cls in ERROR_CLASSES if cls.__name__ not in raised) == []
