"""The public names: every export resolves, and every error class is exported
and raised."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import kvmflow
from kvmflow import errors, spectral

from conftest import EX1

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


@pytest.mark.parametrize("call, cls, message", [
    (lambda: kvmflow.commutator(np.eye(2), np.eye(3)), errors.ValidationFailure,
     "incompatible shapes (2, 2) and (3, 3)"),
    (lambda: kvmflow.rhs_matrix(np.ones((2, 3))), errors.ValidationFailure,
     "expected a square matrix, got shape (2, 3)"),
    (lambda: kvmflow.eigenvalues_tridiagonal([1.0, 2.0], [1.0, 2.0]),
     errors.ValidationFailure, "offdiag length 2 does not match diag length 2"),
    (lambda: kvmflow.eigenvalues_tridiagonal([], []), errors.ValidationFailure,
     "matrix dimension must be at least 1"),
    (lambda: kvmflow.predict_limit([1.0, 1.0], spectral.make_spectrum([1.0, 2.0, 3.0])),
     errors.ValidationFailure, "spectrum is not (+/-)-paired"),
    (lambda: kvmflow.predict_limit(EX1, kvmflow.spectrum_zero_diag([1.0, 2.0])),
     errors.ValidationFailure, "spectrum has 3 values, state implies 4"),
    (lambda: kvmflow.integrate(EX1, kvmflow.IntegratorConfig(tol=1e-300, t_max=1.0)),
     errors.NonConvergence, "adaptive step fell below 1e-14"),
], ids=["commutator", "rhs_matrix", "diag_length", "empty_matrix", "unpaired",
        "spectrum_size", "step_floor"])
@pytest.mark.filterwarnings("ignore:overflow")
def test_shape_pairing_and_step_failures_raise_their_kind(call, cls, message):
    # a bad input is a ValidationFailure and a failed run a NonConvergence,
    # each with its own message
    with pytest.raises(cls, match=re.escape(message)):
        call()
