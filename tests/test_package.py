"""The package namespace: each public name is declared once, in the __all__
of the module that defines it, and the package exports exactly those names."""

import importlib
import pkgutil

import pytest

import preqscore

PUBLIC = {
    "NEGBIN", "POISSON", "TIE", "ExperimentConfig", "ExperimentResult", "FitResult",
    "FrequencyTable", "GeneratorSpec", "NegBinBetaState", "PoissonGammaState", "PredictiveRatio",
    "PrequentialTrace", "PriorSpec", "RuleParams", "ScoreDomainError", "empirical_total_score",
    "export_csv", "fit_minimum_score", "generator_deriv", "generator_value",
    "poisson_empirical_score", "predictive_ratio", "prequential_step", "ratio_from_weights",
    "render_svg", "run_experiment", "run_prequential", "sample_negbin", "sample_poisson",
    "score_point", "select_model", "substream_seed", "sufficient_score",
}

# The command line is not part of the library namespace.
LIBRARY_MODULES = sorted(
    info.name for info in pkgutil.iter_modules(preqscore.__path__) if info.name not in ("cli", "__main__")
)


def test_package_exports_the_public_names_once():
    assert set(preqscore.__all__) == PUBLIC
    assert len(preqscore.__all__) == len(PUBLIC)


def test_public_attributes_are_the_exported_names_and_modules():
    """Beside the exports, only the submodules: cli too once something imports it."""
    public = {name for name in dir(preqscore) if not name.startswith("_")} - {"cli"}
    assert public == PUBLIC | set(LIBRARY_MODULES)


@pytest.mark.parametrize("module_name", LIBRARY_MODULES)
def test_module_exports_are_package_attributes(module_name):
    module = importlib.import_module(f"preqscore.{module_name}")
    for name in module.__all__:
        assert getattr(preqscore, name, None) is getattr(module, name), name
