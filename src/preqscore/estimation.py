"""Minimum-score fitting of a Poisson mean from a frequency table.

The Poisson model with weights theta^x / x! has successive ratio
r(y) = theta / (y + 1), so the empirical score of a sample separates in
theta.  With c = a - m,

    sum_y f_y S(y) = theta^m A / m - theta^(m-1) B / (m - 1),
    A = sum_y f_y (y + 1)^c,    B = sum_{y>0} f_y y^(c+1),

whose derivative theta^(m-2) (theta A - B) vanishes only at

    theta_hat = B / A

for every admissible m (m > 0, m != 1); the objective decreases before
that point and increases after it.  The estimator depends on the rule
only through a - m; at a = m it is the sample mean t / n, returned
as the exact integer quotient.  A sample of zeros has B = 0 and
theta_hat = 0.  A and B are summed in log space, relative to their
largest term, so no power overflows whatever c is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scoring import FrequencyTable, RuleParams, ScoreDomainError, _real, point_scores
# Unused here, but perfbench/tracer.py looks the generator functions up on this module.
from .scoring import generator_deriv, generator_value  # noqa: F401

__all__ = ["FitResult", "fit_minimum_score", "poisson_empirical_score"]


@dataclass(frozen=True)
class FitResult:
    """Outcome of a minimum-score fit.

    achieved_score is the empirical score evaluated at theta_hat.  Every
    rule is fitted in closed form: method is "closed-form" and
    iterations (objective evaluations spent searching) is 0.
    """

    theta_hat: float
    achieved_score: float
    iterations: int
    method: str


def _table_arrays(freq: FrequencyTable) -> tuple[np.ndarray, np.ndarray]:
    """The table's values y and frequencies f as float64 arrays."""
    if freq.n == 0:
        raise ValueError("cannot fit an empty sample")
    ys, fs = np.array(list(freq.items()), dtype=np.float64).T
    return ys, fs


def poisson_empirical_score(theta: float, freq: FrequencyTable, rule: RuleParams) -> float:
    """Empirical score of the Poisson model with mean theta on a sample.

    Defined for every theta >= 0.  At theta = 0 the value is 0 for m > 1;
    for m < 1 it is +infinity whenever the sample contains a positive
    count (the boundary model is infinitely penalised, never selected),
    and 0 otherwise.  Any other non-finite total (a power beyond the
    float range) raises ScoreDomainError.
    """
    theta = _real(theta, "theta")
    if theta < 0.0:
        raise ValueError(f"theta must be non-negative, got {theta}")
    ys, fs = _table_arrays(freq)
    if theta == 0.0:
        return 0.0 if rule.m > 1.0 or freq.t == 0 else math.inf
    # r(y-1) = theta / y is not read at y = 0; the clamp avoids dividing by 0.
    scores = point_scores(ys, theta / (ys + 1.0), theta / np.maximum(ys, 1.0), rule)
    total = float(fs @ scores)
    if not math.isfinite(total):
        raise ScoreDomainError(f"empirical score at theta={theta} is not finite ({total!r})")
    return total


def _log_sum_exp(v: np.ndarray) -> float:
    """log(sum(exp(v))) with the largest term factored out and an exact fsum."""
    terms = v.tolist()
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def fit_minimum_score(freq: FrequencyTable, rule: RuleParams) -> FitResult:
    """Fit the Poisson mean by minimising the empirical score.

    Returns theta_hat = B / A (see the module docstring) with the score
    there.  A minimiser outside the float range (B/A overflowing, or
    underflowing to 0 although B > 0) raises ScoreDomainError.
    """
    ys, fs = _table_arrays(freq)
    c = rule.a - rule.m
    if freq.t == 0:
        theta_hat = 0.0
    elif c == 0.0:
        theta_hat = freq.t / freq.n
    else:
        log_f = np.log(fs)
        log_a = _log_sum_exp(log_f + c * np.log(ys + 1.0))
        k = int(ys[0] == 0.0)  # B skips y = 0, which can only be the first entry
        log_b = _log_sum_exp(log_f[k:] + (c + 1.0) * np.log(ys[k:]))
        try:
            theta_hat = math.exp(log_b - log_a)
        except OverflowError:
            theta_hat = math.inf
    if theta_hat == math.inf or (theta_hat == 0.0 and freq.t):
        raise ScoreDomainError(f"the minimum-score mean for a - m = {c} is outside the float range")
    return FitResult(theta_hat, poisson_empirical_score(theta_hat, freq, rule), 0, "closed-form")
