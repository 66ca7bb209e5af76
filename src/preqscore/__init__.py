"""Prequential model selection for count data via homogeneous local scoring rules.

The package evaluates proper local scoring rules on the non-negative
integers that consume a predictive distribution only through its
successive-probability ratios, making them invariant to the arbitrary
constants of improper priors.  On top of the rule family it provides
conjugate Poisson-Gamma and Negative-Binomial-Beta predictives with
prequential and sufficient-statistic scoring, a sequential model-selection
engine, minimum-score estimation, and a seeded simulation harness with CSV
and SVG outputs.
"""

from .chart import render_svg
from .conjugate import (
    NegBinBetaState,
    PoissonGammaState,
    PriorSpec,
    predictive_ratio,
    prequential_step,
    sufficient_score,
)
from .engine import TIE, PrequentialTrace, run_prequential, select_model
from .estimation import FitResult, fit_minimum_score, poisson_empirical_score
from .scoring import (
    FrequencyTable,
    PredictiveRatio,
    RuleParams,
    ScoreDomainError,
    empirical_total_score,
    generator_deriv,
    generator_value,
    ratio_from_weights,
    score_point,
)
from .simulation import (
    NEGBIN,
    POISSON,
    ExperimentConfig,
    ExperimentResult,
    GeneratorSpec,
    export_csv,
    run_experiment,
    sample_negbin,
    sample_poisson,
    substream_seed,
)

__version__ = "0.1.0"

__all__ = [
    "NEGBIN",
    "POISSON",
    "TIE",
    "ExperimentConfig",
    "ExperimentResult",
    "FitResult",
    "FrequencyTable",
    "GeneratorSpec",
    "NegBinBetaState",
    "PoissonGammaState",
    "PredictiveRatio",
    "PrequentialTrace",
    "PriorSpec",
    "RuleParams",
    "ScoreDomainError",
    "empirical_total_score",
    "export_csv",
    "fit_minimum_score",
    "generator_deriv",
    "generator_value",
    "poisson_empirical_score",
    "predictive_ratio",
    "prequential_step",
    "ratio_from_weights",
    "render_svg",
    "run_experiment",
    "run_prequential",
    "sample_negbin",
    "sample_poisson",
    "score_point",
    "select_model",
    "substream_seed",
    "sufficient_score",
]
