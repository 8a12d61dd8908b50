import importlib

import pytest

LAYERS = ("linalg", "extensions", "discretize", "special", "spectra", "analysis")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_public_name_resolves(layer):
    # a stale __all__ entry breaks `from kreinspec.<layer> import *` and
    # any tool that walks the public names
    module = importlib.import_module(f"kreinspec.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
