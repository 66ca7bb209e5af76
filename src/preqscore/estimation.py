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
largest term, so no power overflows.  Only a log term c log(y + 1) can
leave the float range, at |c| near the float maximum; B / A is then far
outside it too, and the fit raises ScoreDomainError.

The table's values and frequencies are read as the ints it holds; each
is below 2**63, and mixed arithmetic turns it into the double float()
gives.  The objective is summed as empirical_total_score's total is, by
one checked math.fsum, so the two agree to the bit.
"""

from __future__ import annotations

import math

from .scoring import FrequencyTable, RuleParams, ScoreDomainError, _Value, _checked_fsum, _real, point_score
# Unused here, but perfbench/tracer.py looks the generator functions up on this module.
from .scoring import generator_deriv, generator_value  # noqa: F401

__all__ = ["FitResult", "fit_minimum_score", "poisson_empirical_score"]


class FitResult(_Value):
    """Outcome of a minimum-score fit: theta_hat and the empirical score there.

    Every rule is fitted in closed form, so method ("closed-form") and
    iterations (objective evaluations spent searching, 0) are class
    constants, not fields.
    """

    __slots__ = ("theta_hat", "achieved_score")
    iterations = 0
    method = "closed-form"

    def __init__(self, theta_hat: float, achieved_score: float) -> None:
        self._set(theta_hat, achieved_score)


def poisson_empirical_score(theta: float, freq: FrequencyTable, rule: RuleParams) -> float:
    """Empirical score of the Poisson model with mean theta on a sample.

    Defined for every theta >= 0.  At theta = 0 the value is 0 for m > 1;
    for m < 1 it is +infinity whenever the sample contains a positive
    count (the boundary model is infinitely penalised, never selected),
    and 0 otherwise.  Any other non-finite total (a power beyond the
    float range) raises ScoreDomainError.  The total is the same fsum as
    empirical_total_score's with the ratio theta / (y + 1), to the bit.
    """
    theta = _real(theta, "theta")
    if theta < 0.0:
        raise ValueError(f"theta must be non-negative, got {theta}")
    if freq.n == 0:
        raise ValueError("cannot fit an empty sample")
    if theta == 0.0:
        return 0.0 if rule.m > 1.0 or freq.t == 0 else math.inf
    # r(y-1) = theta / y is not read at y = 0; the clamp avoids dividing by 0.
    products = [f * point_score(y, theta / (y + 1.0), theta / max(y, 1), rule) for y, f in freq.items()]
    return _checked_fsum(products, f"empirical score at theta={theta}")


def _log_sum_exp(terms: list[float]) -> float:
    """log(sum(exp(terms))) with the largest term factored out and an exact fsum."""
    top = max(terms)
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def fit_minimum_score(freq: FrequencyTable, rule: RuleParams) -> FitResult:
    """Fit the Poisson mean by minimising the empirical score.

    Returns theta_hat = B / A (see the module docstring) with the score
    there.  A minimiser outside the float range (B/A overflowing, or
    underflowing to 0 although B > 0) raises ScoreDomainError.
    """
    c = rule.a - rule.m
    if freq.t == 0:  # an empty table too, which poisson_empirical_score rejects below
        theta_hat = 0.0
    elif c == 0.0:
        theta_hat = freq.t / freq.n
    else:
        # A log term beyond the float range is infinite: see the docstring.
        log_a = _log_sum_exp([math.log(f) + c * math.log(y + 1.0) for y, f in freq.items()])
        log_b = _log_sum_exp([math.log(f) + (c + 1.0) * math.log(y) for y, f in freq.items() if y])
        finite = math.isfinite(log_a) and math.isfinite(log_b)
        try:
            theta_hat = math.exp(log_b - log_a) if finite else math.inf
        except OverflowError:
            theta_hat = math.inf
    if theta_hat == math.inf or (theta_hat == 0.0 and freq.t):
        raise ScoreDomainError(f"the minimum-score mean for a - m = {c} is outside the float range")
    return FitResult(theta_hat, poisson_empirical_score(theta_hat, freq, rule))
