"""The docstring examples of every hochschild module run as tests."""

import doctest
import importlib
import pkgutil

import pytest

import hochschild

MODULES = sorted(m.name for m in pkgutil.iter_modules(hochschild.__path__,
                                                      "hochschild."))


@pytest.mark.parametrize("name", ["hochschild"] + MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0

