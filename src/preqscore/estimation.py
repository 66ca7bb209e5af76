"""Minimum-score fitting of a Poisson mean from a frequency table.

The Poisson model with weights theta^x / x! has successive ratio
r(y) = theta / (y + 1), so the empirical score of a sample is

    sum_y  f_y S(y)

with S the point score on those ratios, and the fitted theta is its
minimiser over [0, theta_max].  At a = m = 2 the objective reduces to
n theta^2 / 2 - t theta, whose exact minimiser is the sample mean; for
other rules a derivative-free bracketing search (coarse scan plus
golden-section refinement) is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .scoring import FrequencyTable, RuleParams, ScoreDomainError, point_scores
# Unused here, but perfbench/tracer.py looks the generator functions up on this module.
from .scoring import generator_deriv, generator_value  # noqa: F401

__all__ = ["FitResult", "fit_minimum_score", "poisson_empirical_score"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

CLOSED_FORM = "closed-form"
BRACKET_SEARCH = "bracket-search"


@dataclass(frozen=True)
class FitResult:
    """Outcome of a minimum-score fit.

    achieved_score is the empirical score evaluated at theta_hat;
    iterations counts objective evaluations (0 for the closed form).
    """

    theta_hat: float
    achieved_score: float
    iterations: int
    method: str


def poisson_empirical_score(theta: float, freq: FrequencyTable, rule: RuleParams) -> float:
    """Empirical score of the Poisson model with mean theta on a sample.

    Defined for every theta >= 0.  At theta = 0 the value is 0 for m > 1;
    for m < 1 it is +infinity whenever the sample contains a positive
    count (the boundary model is infinitely penalised, never selected).
    Any other non-finite total (a power beyond the float range) raises
    ScoreDomainError.
    """
    theta = float(theta)
    if not math.isfinite(theta) or theta < 0.0:
        raise ValueError(f"theta must be finite and non-negative, got {theta}")
    if freq.n == 0:
        raise ValueError("cannot fit an empty sample")
    ys, fs = np.array(list(freq.items()), dtype=np.float64).T
    # r(y-1) = theta / y is not read at y = 0; the clamp avoids dividing by 0.
    scores = point_scores(ys, theta / (ys + 1.0), theta / np.maximum(ys, 1.0), rule)
    total = float(fs @ scores)
    if not math.isfinite(total) and not (theta == 0.0 and total == math.inf):
        raise ScoreDomainError(f"empirical score at theta={theta} is not finite ({total!r})")
    return total


def _golden_section(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, int]:
    """Golden-section minimum of a unimodal f on [lo, hi] to width tol."""
    evaluations = 2
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)
        evaluations += 1
    return 0.5 * (lo + hi), evaluations


def _bracket_minimize(
    f: Callable[[float], float], lo: float, hi: float, tol: float, coarse: int = 512
) -> tuple[float, int]:
    """Coarse scan to bracket the minimum, then golden-section refinement.

    Endpoints stay in contention, so a boundary minimum is returned
    exactly (the all-zero sample yields theta = 0, not a near-zero
    interior point).
    """
    xs = [lo + i * (hi - lo) / coarse for i in range(coarse + 1)]
    fs = [f(x) for x in xs]
    best = min(range(len(xs)), key=lambda i: (fs[i], xs[i]))
    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, coarse)]
    x_star, golden_evals = _golden_section(f, a, b, tol)
    candidates = [(f(x_star), x_star), (fs[best], xs[best]), (fs[0], xs[0]), (fs[-1], xs[-1])]
    _, x_hat = min(candidates)
    return x_hat, len(xs) + golden_evals + 1


def fit_minimum_score(
    freq: FrequencyTable,
    rule: RuleParams,
    theta_max: float | None = None,
    tol: float = 1e-8,
) -> FitResult:
    """Fit the Poisson mean by minimising the empirical score.

    The search interval is [0, theta_max] with theta_max defaulting to
    max(10 * sample mean, 1).  At a = m = 2 the exact minimiser t/n is
    returned directly.
    """
    if freq.n == 0:
        raise ValueError("cannot fit an empty sample")
    mean = freq.t / freq.n
    if rule.a == 2.0 and rule.m == 2.0:
        theta_hat = mean
        return FitResult(theta_hat, poisson_empirical_score(theta_hat, freq, rule), 0, CLOSED_FORM)
    upper = float(theta_max) if theta_max is not None else max(10.0 * mean, 1.0)
    if not math.isfinite(upper) or upper <= 0.0:
        raise ValueError(f"theta_max must be positive and finite, got {upper}")
    theta_hat, evaluations = _bracket_minimize(
        lambda th: poisson_empirical_score(th, freq, rule), 0.0, upper, tol
    )
    return FitResult(
        theta_hat, poisson_empirical_score(theta_hat, freq, rule), evaluations, BRACKET_SEARCH
    )
