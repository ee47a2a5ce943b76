"""Each module's __all__ names exactly the functions and classes it defines."""

import importlib
import inspect
import pkgutil

import pytest

import starflow

MODULES = sorted(info.name for info in pkgutil.iter_modules(starflow.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_functions_and_classes(name):
    module = importlib.import_module(f"starflow.{name}")
    defined = {
        attr
        for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    listed = set(module.__all__)
    assert len(module.__all__) == len(listed), "duplicate names in __all__"
    assert {attr for attr in listed if not hasattr(module, attr)} == set()
    listed_callables = {
        attr for attr in listed
        if inspect.isfunction(getattr(module, attr)) or inspect.isclass(getattr(module, attr))
    }
    assert listed_callables == defined
