import dataclasses
import importlib
import inspect
import types

import pytest

from kreinspec import tolerances

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
    # every check reads its threshold from a tolerances constant; krein
    # keeps its profile, which sets its construction_rel only
    takers = []
    for layer in LAYERS:
        module = importlib.import_module(f"kreinspec.{layer}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and "profile" in inspect.signature(obj).parameters:
                takers.append(f"{layer}.{name}")
    assert takers == ["extensions.krein"]


def test_the_tolerance_profile_has_one_field():
    # the other thresholds are module constants, read at their check sites
    assert [f.name for f in dataclasses.fields(tolerances.ToleranceProfile)] == [
        "construction_rel"]
    assert tolerances.DEFAULT.construction_rel == tolerances.CONSTRUCTION_REL == 1e-9
    assert (tolerances.CHOLESKY_PIVOT_REL, tolerances.PSD_CLAMP_REL, tolerances.ORTHONORMAL_REL,
            tolerances.ADJOINT_KERNEL_REL, tolerances.RANK_REL, tolerances.MERGE_REL) == (
        1e-14, 1e-12, 1e-12, 1e-11, 1e-12, 1e-11)
