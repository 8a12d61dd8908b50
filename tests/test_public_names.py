import importlib
import inspect
import types

import pytest

LAYERS = ("linalg", "extensions", "discretize", "special", "spectra", "analysis")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_public_name_resolves(layer):
    # a stale __all__ entry breaks `from kreinspec.<layer> import *` and
    # any tool that walks the public names
    module = importlib.import_module(f"kreinspec.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("layer", LAYERS)
def test_every_public_callable_is_a_plain_function(layer):
    # bench/tracer.py times only plain functions; a cache or other decorator
    # object in place of one would vanish from its spans and layer metrics
    module = importlib.import_module(f"kreinspec.{layer}")
    wrapped = [name for name in module.__all__
               if callable(obj := getattr(module, name)) and not isinstance(obj, type)
               and not isinstance(obj, types.FunctionType)]
    assert wrapped == []


def test_only_krein_takes_a_tolerance_profile():
    # every check reads its threshold from tolerances.DEFAULT; krein keeps
    # its profile for its own two thresholds only
    takers = []
    for layer in LAYERS:
        module = importlib.import_module(f"kreinspec.{layer}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and "profile" in inspect.signature(obj).parameters:
                takers.append(f"{layer}.{name}")
    assert takers == ["extensions.krein"]
