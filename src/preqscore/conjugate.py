"""Conjugate predictive machinery for Poisson and Negative Binomial models.

Gamma mixing for the Poisson and Beta mixing for the Negative Binomial
yield predictive distributions whose successive-probability ratios are
simple rational functions of the hyperparameters:

    Poisson  (exposure k, Gamma(alpha, beta)):
        r(x) = phi * (x + alpha) / (x + 1),    phi = k / (beta + k) = 1 / (beta / k + 1)
    NegBin   (size s, Beta(p, q)):
        r(x) = (x + s)(x + p) / ((x + 1)(x + p + q + s))

Posterior updating after a history with running total t over n
observations shifts the hyperparameters (alpha -> alpha + t,
beta -> beta + n k; p -> p + t, q -> q + n s), so one ratio function per
family covers proper priors, the usual improper limits (both
hyperparameters 0) and the Jeffreys-type priors, which are reached by
substituting hyperparameter values rather than through separate formulas.
Every score is the general rule, scoring.point_scores, on those ratios.

Each state carries its family's ratio, and one numpy kernel,
block_increments, scores a block of observations from any state: the
(t, n) before each entry are exact int64 prefix sums, and only score
evaluation touches floating point.  The kernel returns the raw
increments, non-finite ones included; the engine checks a whole run at
once through its cumulative scores.  prequential_step and sufficient_score
are one-row calls of the same kernel that check their one value; each state
says how its model pools n_obs observations (its size times n_obs), so one
sufficient_score serves both families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import _np as np
from .scoring import PredictiveRatio, RuleParams, ScoreDomainError, point_scores
from .scoring import _check_count, _counts, _integer, _positive, _real

__all__ = [
    "NegBinBetaState",
    "PoissonGammaState",
    "PriorSpec",
    "predictive_ratio",
    "prequential_step",
    "sufficient_score",
]


@dataclass(frozen=True)
class PriorSpec:
    """Conjugate-prior hyperparameters, possibly an improper limit.

    hyper1/hyper2 are the Gamma shape/rate for the Poisson model and the
    two Beta parameters for the Negative Binomial one.  A proper prior has
    both strictly positive; the only improper pairs admitted are the usual
    improper prior (0, 0) and the Jeffreys-type priors (0.5, 0) for the
    Poisson model and (0, 0.5) for the Negative Binomial one.
    """

    hyper1: float
    hyper2: float

    def __post_init__(self) -> None:
        h1, h2 = _real(self.hyper1, "hyper1"), _real(self.hyper2, "hyper2")
        object.__setattr__(self, "hyper1", h1)
        object.__setattr__(self, "hyper2", h2)
        if (h1 <= 0.0 or h2 <= 0.0) and (h1, h2) not in ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5)):
            raise ValueError(
                f"hyperparameters must both be positive, or (0, 0), (0.5, 0) or (0, 0.5), got ({h1}, {h2})"
            )

    @classmethod
    def proper(cls, hyper1: float, hyper2: float) -> "PriorSpec":
        h1, h2 = _real(hyper1, "hyper1"), _real(hyper2, "hyper2")
        if h1 <= 0.0 or h2 <= 0.0:
            raise ValueError(f"a proper prior requires positive hyperparameters, got ({h1}, {h2})")
        return cls(h1, h2)

    @classmethod
    def usual_improper(cls) -> "PriorSpec":
        return cls(0.0, 0.0)

    @classmethod
    def jeffreys_poisson(cls) -> "PriorSpec":
        return cls(0.5, 0.0)

    @classmethod
    def jeffreys_negbin(cls) -> "PriorSpec":
        return cls(0.0, 0.5)


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
        object.__setattr__(self, "k", _positive(self.k, "exposure k"))
        object.__setattr__(self, "t", _check_count(self.t, "running total t"))
        object.__setattr__(self, "n", _check_count(self.n, "observation count n"))

    def _ratio(self, x, t, n):
        """r(x) = phi (x + alpha + t) / (x + 1), phi = 1 / (beta / k + n + 1).

        phi is k / (beta + n k + k) with k divided out, so no exposure
        overflows it.
        """
        shape = self.prior.hyper1 + t
        phi = 1.0 / (self.prior.hyper2 / self.k + n + 1.0)
        return phi * (x + shape) / (x + 1.0)

    def _pooled(self, n_obs: int) -> PoissonGammaState:
        """The model of a sum of n_obs observations: Poisson with exposure n_obs * k."""
        return PoissonGammaState(_pooled_size(n_obs, self.k, "exposure k"), self.prior)


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
        object.__setattr__(self, "s", _positive(self.s, "size s"))
        object.__setattr__(self, "t", _check_count(self.t, "running total t"))
        object.__setattr__(self, "n", _check_count(self.n, "observation count n"))

    def _ratio(self, x, t, n):
        """r(x) = (x + s)(x + p) / ((x + 1)(x + p + q + s)), p = p0 + t, q = q0 + n s.

        The terms that carry s are divided by c, the largest power of two
        not above max(s, 1), so no size overflows n s + s and no small one
        overflows x / c.  Then x + p and each term of the denominator's sum
        are divided by d, the same power for the larger of p0 and q0 / c,
        so that no huge p0 or q0 overflows that sum or a product.  Dividing
        by a power of two is exact short of underflow, so wherever the
        undivided sums and products stay in the float range the ratio keeps
        their bits.
        """
        c = _pow2_floor(self.s)
        s_c, x_c = self.s / c, x / c
        p_eff = self.prior.hyper1 + t
        q_c = self.prior.hyper2 / c + n * s_c
        d = _pow2_floor(max(self.prior.hyper1, self.prior.hyper2 / c))
        num, den = (x + p_eff) / d, x_c / d + p_eff / c / d + q_c / d + s_c / d
        return (x_c + s_c) * num / ((x + 1.0) * den)

    def _pooled(self, n_obs: int) -> NegBinBetaState:
        """The model of a sum of n_obs observations: Negative Binomial with size n_obs * s."""
        return NegBinBetaState(_pooled_size(n_obs, self.s, "size s"), self.prior)


ConjugateState = PoissonGammaState | NegBinBetaState


def _pow2_floor(v: float) -> float:
    """The largest power of two not above max(v, 1)."""
    return math.ldexp(1.0, max(math.frexp(v)[1] - 1, 0))


# Running totals and counts are int64 inside the kernel; this bound keeps
# every prefix sum of a block clear of wrap-around.
_TOTAL_LIMIT = 2.0**62


def _check_history(xs: np.ndarray, t0: int, n0: int) -> None:
    """ValueError unless a block after (t0, n0) keeps every prefix sum below _TOTAL_LIMIT."""
    if t0 + float(xs.sum(dtype=np.float64)) >= _TOTAL_LIMIT or n0 + xs.size >= _TOTAL_LIMIT:
        raise ValueError("running total or observation count beyond the int64 range")


def _history(xs: np.ndarray, t0: int, n0: int) -> tuple[np.ndarray, np.ndarray]:
    """Running total and observation count before each entry of a block."""
    _check_history(xs, t0, n0)
    t_prev = np.cumsum(xs)
    t_prev -= xs
    t_prev += t0
    return t_prev, np.arange(n0, n0 + xs.size)


def block_increments(
    state: ConjugateState, xs: np.ndarray, t0: int, n0: int, rule: RuleParams
) -> np.ndarray:
    """Prequential increments of a block of counts under a state's model.

    xs is an int64 array; (t0, n0) are the running total and count before
    its first entry.  Entry i is scored by point_scores on the ratios of
    the predictive after the (t, n) preceding it, so its zero-mass policy
    applies: an improper prior gives the m > 1 limit where score_point
    raises.  Non-finite increments are returned as they are.
    """
    t_prev, n_prev = _history(xs, t0, n0)
    # r(x-1) is not read at x = 0; clamping keeps x + 1 = 0 out of the ratio.
    r_down = state._ratio(np.maximum(xs - 1, 0), t_prev, n_prev)
    return point_scores(xs, state._ratio(xs, t_prev, n_prev), r_down, rule)


def _not_finite_reason(increment: float) -> str:
    """Why a non-finite increment cannot be scored."""
    return (
        f"score increment is not finite ({increment!r}): zero predictive mass under a "
        "negative power (improper prior with m < 1) or a power beyond the float range"
    )


def _one_row(state: ConjugateState, xs: np.ndarray, rule: RuleParams) -> float:
    """The increment of the one count in xs after the state's history, which must be finite."""
    increment = float(block_increments(state, xs, state.t, state.n, rule)[0])
    if not math.isfinite(increment):
        raise ScoreDomainError(_not_finite_reason(increment))
    return increment


def predictive_ratio(state: ConjugateState) -> PredictiveRatio:
    """Successive-probability ratio x -> p(x+1)/p(x) of any state's next-observation predictive.

        Poisson:  r(x) = phi (x + alpha + t) / (x + 1),   phi = 1 / (beta / k + n + 1)
        NegBin:   r(x) = (x + s)(x + p + t) / ((x + 1)(x + p + q + t + n s + s))

    Under the usual improper prior with no history, r(0) = 0: the formal
    predictive puts all relative mass at 0.
    """

    def ratio(x: int) -> float:
        _check_count(x)
        return state._ratio(x, state.t, state.n)

    return ratio


def prequential_step(state: ConjugateState, x: int, rule: RuleParams) -> tuple[float, ConjugateState]:
    """Score the next observation under any state's model and update the state.

    The increment equals score_point(x, predictive_ratio(state)) wherever
    that is defined; it additionally covers improper-prior states whose
    predictive puts zero relative mass below the observation (for m > 1
    the offending term vanishes in the limit, keeping the cumulative score
    well-defined from the first step).
    """
    xs = _counts([x], "x")
    return _one_row(state, xs, rule), replace(state, t=state.t + int(xs[0]), n=state.n + 1)


def _pooled_size(n_obs: int, size: float, what: str) -> float:
    """n_obs * size, the size of a sum of n_obs observations, inside the float range."""
    pooled = n_obs * size
    if pooled == math.inf:
        raise ScoreDomainError(f"n_obs * {what} is beyond the float range")
    return pooled


def sufficient_score(state: ConjugateState, t_total: int, n_obs: int, rule: RuleParams) -> float:
    """Score the sufficient statistic t_total of n_obs observations under a fresh state's model.

    The sum of n_obs observations follows the state's model with its size
    (exposure k or size s) multiplied by n_obs, so t_total is scored as one
    observation of that pooled model.  A state with history raises ValueError.
    Under the usual improper prior the score at t_total = 0 is exactly 0, and
    both models' pooled ratios collapse to x/(x+1): this route gives them the
    same score and so cannot separate them.
    """
    if state.t or state.n:
        raise ValueError(f"sufficient_score needs a state without history, got t={state.t}, n={state.n}")
    xs = _counts([t_total], "t_total")
    n_obs = _integer(n_obs, "n_obs")
    if n_obs < 1:
        raise ValueError(f"n_obs must be a positive integer, got {n_obs}")
    return _one_row(state._pooled(n_obs), xs, rule)
