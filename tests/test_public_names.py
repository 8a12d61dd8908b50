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


PUBLIC_NAMES = {
    "linalg": ["SymMatrix", "EigenDecomposition", "cholesky", "sym_eigen", "spd_sqrt",
               "sturm_count", "max_norm"],
    "extensions": ["ExtensionModel", "ExtensionResult", "BucklingReport", "new_model", "friedrichs",
                   "adjoint_kernel", "krein", "parametrized_extension", "buckling_analysis",
                   "pencil_values", "order_compare", "SplitMix64", "random_model"],
    "discretize": ["Grid1D", "PotentialSpec", "RadialChannelSpec", "RadialPencil",
                   "ConvergenceReport", "interval_model", "discrete_krein_spectrum",
                   "radial_pencil", "radial_eigenvalues", "convergence_order"],
    "special": ["BesselOrder", "bessel_j", "bessel_zero", "tan_fixed_point"],
    "spectra": ["IntervalSpec", "BallSpec", "Spectrum", "ChannelInterlaceReport", "INFINITE",
                "interval_dirichlet", "interval_krein", "ball_multiplicity", "ball_spectrum",
                "channel_interlace_report"],
    "analysis": ["CountingFunction", "WeylFit", "InequalityReport", "counting_from_spectrum",
                 "counting_domination", "unit_ball_volume", "weyl_leading",
                 "two_term_ball_coefficients", "weyl_fit", "sandwich_check",
                 "universal_inequalities", "interval_counting", "ball_counting"],
}

# name -> the names of its bases; NotPSD is an alias of NotPositiveSemidefinite
EXCEPTION_CLASSES = {
    "KreinspecError": ["Exception"],
    "NotPositiveDefinite": ["KreinspecError"],
    "NotPositiveSemidefinite": ["KreinspecError"],
    "NotPSD": ["KreinspecError"],
    "NoConvergence": ["KreinspecError"],
    "RankDeficientBasis": ["KreinspecError"],
    "NoDeficiency": ["KreinspecError"],
    "NotOrthogonal": ["KreinspecError"],
    "ConstructionMismatch": ["KreinspecError"],
    "SingularDecomposition": ["KreinspecError"],
    "DomainError": ["KreinspecError", "ValueError"],
    "BracketFailure": ["KreinspecError"],
    "NonMonotoneError": ["KreinspecError"],
    "InsufficientData": ["KreinspecError"],
    "InsufficientEigenvalues": ["KreinspecError"],
}


@pytest.mark.parametrize("layer", LAYERS)
def test_public_names_are_pinned(layer):
    # a public name changes only with an edit here, so that a change that
    # adds, drops or reorders one shows in its diff
    assert importlib.import_module(f"kreinspec.{layer}").__all__ == PUBLIC_NAMES[layer]


def test_exception_classes_are_pinned():
    from kreinspec import errors

    found = {name: [base.__name__ for base in obj.__bases__] for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, BaseException)}
    assert found == EXCEPTION_CLASSES
    assert errors.NotPSD is errors.NotPositiveSemidefinite
