"""Conjugate predictive machinery for Poisson and Negative Binomial models.

Gamma mixing for the Poisson and Beta mixing for the Negative Binomial
yield predictive distributions whose successive-probability ratios are
simple rational functions of the hyperparameters:

    Poisson  (exposure k, Gamma(alpha, beta)):
        r(x) = phi * (x + alpha) / (x + 1),    phi = k / (beta + k)
    NegBin   (size s, Beta(p, q)):
        r(x) = (x + s)(x + p) / ((x + 1)(x + p + q + s))

Posterior updating after a history with running total t over n
observations shifts the hyperparameters (alpha -> alpha + t,
beta -> beta + n k; p -> p + t, q -> q + n s), so one ratio function per
family covers proper priors, the usual improper limits (both
hyperparameters 0) and the Jeffreys-type priors, which are reached by
substituting hyperparameter values rather than through separate formulas.
Every score is the general rule, scoring.point_scores, on those ratios.

Increments are evaluated by one numpy kernel over a block of
observations: the (t, n) before each entry are exact int64 prefix sums,
and only score evaluation touches floating point.  The per-step and
sufficient-statistic functions are one-row calls of the same kernel.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .scoring import PredictiveRatio, RuleParams, ScoreDomainError, _check_count, point_scores

__all__ = [
    "NegBinBetaState",
    "PoissonGammaState",
    "PriorSpec",
    "negbin_increments",
    "negbin_predictive_ratio",
    "negbin_prequential_step",
    "negbin_sufficient_score",
    "poisson_increments",
    "poisson_predictive_ratio",
    "poisson_prequential_step",
    "poisson_sufficient_score",
]

PROPER = "proper"
USUAL_IMPROPER = "usual-improper"
JEFFREYS = "jeffreys"

# The Jeffreys-type priors used here, as (hyper1, hyper2): Gamma shape 1/2
# with rate 0 for the Poisson model, Beta(0, 1/2) for the Negative Binomial.
_JEFFREYS_PAIRS = ((0.5, 0.0), (0.0, 0.5))


@dataclass(frozen=True)
class PriorSpec:
    """Conjugate-prior hyperparameters, possibly an improper limit.

    hyper1/hyper2 are the Gamma shape/rate for the Poisson model and the
    two Beta parameters for the Negative Binomial one.  Proper priors
    require both strictly positive; the usual improper prior is the
    formal limit with both at 0.
    """

    kind: str
    hyper1: float
    hyper2: float

    def __post_init__(self) -> None:
        for name in ("hyper1", "hyper2"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a number, got {value!r}")
            object.__setattr__(self, name, float(value))
        h1, h2 = self.hyper1, self.hyper2
        if not (math.isfinite(h1) and math.isfinite(h2)):
            raise ValueError(f"hyperparameters must be finite, got ({h1}, {h2})")
        if self.kind == PROPER:
            if h1 <= 0.0 or h2 <= 0.0:
                raise ValueError(f"a proper prior requires positive hyperparameters, got ({h1}, {h2})")
        elif self.kind == USUAL_IMPROPER:
            if h1 != 0.0 or h2 != 0.0:
                raise ValueError("the usual improper prior fixes both hyperparameters at 0")
        elif self.kind == JEFFREYS:
            if (h1, h2) not in _JEFFREYS_PAIRS:
                raise ValueError(
                    f"Jeffreys-type priors are (0.5, 0) for the Poisson model and "
                    f"(0, 0.5) for the Negative Binomial one, got ({h1}, {h2})"
                )
        else:
            raise ValueError(f"unknown prior kind {self.kind!r}")

    @classmethod
    def proper(cls, hyper1: float, hyper2: float) -> "PriorSpec":
        return cls(PROPER, hyper1, hyper2)

    @classmethod
    def usual_improper(cls) -> "PriorSpec":
        return cls(USUAL_IMPROPER, 0.0, 0.0)

    @classmethod
    def jeffreys_poisson(cls) -> "PriorSpec":
        return cls(JEFFREYS, 0.5, 0.0)

    @classmethod
    def jeffreys_negbin(cls) -> "PriorSpec":
        return cls(JEFFREYS, 0.0, 0.5)

    @property
    def is_proper(self) -> bool:
        return self.kind == PROPER


def _check_positive(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{what} must be a positive finite number, got {value}")
    return value


@dataclass(frozen=True)
class PoissonGammaState:
    """Sequential state of the Gamma-mixed Poisson model.

    k is the fixed, known exposure multiplier; t and n are the running
    total and the number of observations consumed so far.
    """

    k: float
    prior: PriorSpec
    t: int = 0
    n: int = 0

    def __post_init__(self) -> None:
        _check_positive(self.k, "exposure k")
        _check_count(self.t, "running total t")
        _check_count(self.n, "observation count n")


@dataclass(frozen=True)
class NegBinBetaState:
    """Sequential state of the Beta-mixed Negative Binomial model.

    s is the fixed, known size parameter; t and n as for the Poisson state.
    """

    s: float
    prior: PriorSpec
    t: int = 0
    n: int = 0

    def __post_init__(self) -> None:
        _check_positive(self.s, "size s")
        _check_count(self.t, "running total t")
        _check_count(self.n, "observation count n")


# Running totals and counts are int64 inside the kernels; this bound keeps
# every prefix sum of a block clear of wrap-around.
_TOTAL_LIMIT = 2.0**62


class _NonFiniteIncrement(ScoreDomainError):
    """A kernel increment is not finite; row is its index in the block."""

    def __init__(self, row: int, value: float):
        super().__init__(
            f"score increment is not finite ({value!r}): zero predictive mass under a "
            "negative power (improper prior with m < 1) or a power beyond the float range"
        )
        self.row = row


def _int64(values) -> np.ndarray:
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise ValueError("counts must be below 2**63") from None


def _history(xs: np.ndarray, t0: int, n0: int) -> tuple[np.ndarray, np.ndarray]:
    """Running total and observation count before each entry of a block."""
    if t0 + float(xs.sum(dtype=np.float64)) >= _TOTAL_LIMIT or n0 + xs.size >= _TOTAL_LIMIT:
        raise ValueError("running total or observation count beyond the int64 range")
    t_prev = np.cumsum(xs)
    t_prev -= xs
    t_prev += t0
    return t_prev, np.arange(n0, n0 + xs.size)


def _poisson_ratio(x, t, n, k: float, prior: PriorSpec):
    """r(x) = phi (x + alpha + t) / (x + 1), phi = k / (beta + n k + k)."""
    shape = prior.hyper1 + t
    phi = k / (prior.hyper2 + n * k + k)
    return phi * (x + shape) / (x + 1.0)


def _negbin_ratio(x, t, n, s: float, prior: PriorSpec):
    """r(x) = (x + s)(x + p) / ((x + 1)(x + p + q + s)), p = p0 + t, q = q0 + n s."""
    p_eff = prior.hyper1 + t
    q_eff = prior.hyper2 + n * s
    return (x + s) * (x + p_eff) / ((x + 1.0) * (x + p_eff + q_eff + s))


def _increments(
    ratio, xs: np.ndarray, t0: int, n0: int, size: float, prior: PriorSpec, rule: RuleParams
) -> np.ndarray:
    """Score each entry of a block by the general rule on its predictive's ratios."""
    t_prev, n_prev = _history(xs, t0, n0)
    # r(x-1) is not read at x = 0; clamping keeps x + 1 = 0 out of the ratio.
    r_down = ratio(np.maximum(xs - 1, 0), t_prev, n_prev, size, prior)
    inc = point_scores(xs, ratio(xs, t_prev, n_prev, size, prior), r_down, rule)
    bad = ~np.isfinite(inc)
    if bad.any():
        row = int(bad.argmax())
        raise _NonFiniteIncrement(row, float(inc[row]))
    return inc


def poisson_increments(
    xs: np.ndarray, t0: int, n0: int, k: float, prior: PriorSpec, rule: RuleParams
) -> np.ndarray:
    """Prequential increments of a block of counts under the Poisson model.

    xs is an int64 array; (t0, n0) are the running total and count before
    its first entry.  Entry i is scored by point_scores on the ratios of
    the predictive after the (t, n) preceding it, so its zero-mass policy
    applies: an improper prior gives the m > 1 limit where score_point
    raises, and a non-finite increment is reported as a domain error.
    """
    return _increments(_poisson_ratio, xs, t0, n0, k, prior, rule)


def negbin_increments(
    xs: np.ndarray, t0: int, n0: int, s: float, prior: PriorSpec, rule: RuleParams
) -> np.ndarray:
    """Negative Binomial analogue of poisson_increments."""
    return _increments(_negbin_ratio, xs, t0, n0, s, prior, rule)


def _one_row(
    kernel, x: int, t: int, n: int, size: float, prior: PriorSpec, rule: RuleParams
) -> float:
    return float(kernel(_int64([x]), t, n, size, prior, rule)[0])


def poisson_predictive_ratio(state: PoissonGammaState) -> PredictiveRatio:
    """Successive-probability ratio of the next-observation predictive.

    r(x) = phi * (x + alpha + t) / (x + 1) with phi = k / (beta + n k + k).
    Under the usual improper prior with no history, r(0) = 0: the formal
    predictive puts all relative mass at 0.
    """

    def ratio(x: int) -> float:
        _check_count(x)
        return _poisson_ratio(x, state.t, state.n, state.k, state.prior)

    return ratio


def negbin_predictive_ratio(state: NegBinBetaState) -> PredictiveRatio:
    """r(x) = (x + s)(x + p + t) / ((x + 1)(x + p + q + t + n s + s))."""

    def ratio(x: int) -> float:
        _check_count(x)
        return _negbin_ratio(x, state.t, state.n, state.s, state.prior)

    return ratio


def poisson_prequential_step(
    state: PoissonGammaState, x: int, rule: RuleParams
) -> tuple[float, PoissonGammaState]:
    """Score the next observation under the Poisson model and update state.

    The increment equals score_point(x, poisson_predictive_ratio(state))
    wherever that is defined; it additionally covers improper-prior states
    whose predictive puts zero relative mass below the observation (for
    m > 1 the offending term vanishes in the limit, keeping the cumulative
    score well-defined from the first step).
    """
    _check_count(x)
    increment = _one_row(poisson_increments, x, state.t, state.n, state.k, state.prior, rule)
    return increment, replace(state, t=state.t + x, n=state.n + 1)


def negbin_prequential_step(
    state: NegBinBetaState, x: int, rule: RuleParams
) -> tuple[float, NegBinBetaState]:
    """Negative Binomial analogue of poisson_prequential_step."""
    _check_count(x)
    increment = _one_row(negbin_increments, x, state.t, state.n, state.s, state.prior, rule)
    return increment, replace(state, t=state.t + x, n=state.n + 1)


def poisson_sufficient_score(
    t_total: int, n_obs: int, k: float, prior: PriorSpec, rule: RuleParams
) -> float:
    """Score the sufficient statistic t_total of n_obs observations.

    The sum of n_obs observations is Poisson with exposure n_obs * k, so
    it is scored as one observation with
    phi = n_obs k / (beta + n_obs k).  Under the usual improper prior the
    score at t_total = 0 is exactly 0.
    """
    _check_count(t_total, "t_total")
    if isinstance(n_obs, bool) or not isinstance(n_obs, int) or n_obs < 1:
        raise ValueError(f"n_obs must be a positive integer, got {n_obs!r}")
    _check_positive(k, "exposure k")
    return _one_row(poisson_increments, t_total, 0, 0, n_obs * k, prior, rule)


def negbin_sufficient_score(
    t_total: int, n_obs: int, s: float, prior: PriorSpec, rule: RuleParams
) -> float:
    """Negative Binomial analogue of poisson_sufficient_score.

    The sum of n_obs observations is Negative Binomial with size n_obs * s.
    Under the usual improper prior both sufficient-statistic scores reduce
    to the same function of t_total (the two predictive ratios collapse to
    t/(t+1)), so this route cannot separate the models in that case.
    """
    _check_count(t_total, "t_total")
    if isinstance(n_obs, bool) or not isinstance(n_obs, int) or n_obs < 1:
        raise ValueError(f"n_obs must be a positive integer, got {n_obs!r}")
    _check_positive(s, "size s")
    return _one_row(negbin_increments, t_total, 0, 0, n_obs * s, prior, rule)
