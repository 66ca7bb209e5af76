"""High-precision oracle for the conjugate prequential increments.

The reference evaluates the point score of the README,

    S(x) = (x+1)^a r(x)^m / m - x^a r(x-1)^(m-1) / (m-1),

on the conjugate predictive ratios with 40-digit mpmath arithmetic, step by
step, and the engine's float increments must match it to 1e-9 relative
plus 1e-12 times the magnitude of the two terms, the room float64
cancellation in the difference needs.
"""

import mpmath
import numpy as np
import pytest

from preqscore import (
    NegBinBetaState,
    PoissonGammaState,
    PriorSpec,
    RuleParams,
    run_prequential,
)

ORACLE_RULES = [RuleParams(2, 2), RuleParams(2, 1.5), RuleParams(3, 2), RuleParams(1, 0.5)]

REL = 1e-9
CANCEL = 1e-12

PRIORS = {
    "proper": (PriorSpec.proper(0.3, 2.5), PriorSpec.proper(0.3, 2.5)),
    "improper": (PriorSpec.usual_improper(), PriorSpec.usual_improper()),
    "jeffreys": (PriorSpec.jeffreys_poisson(), PriorSpec.jeffreys_negbin()),
}


def mp_ratio(family, x, t, n, size, prior):
    """r(x) of the predictive after n observations totalling t."""
    h1, h2, size = mpmath.mpf(prior.hyper1), mpmath.mpf(prior.hyper2), mpmath.mpf(size)
    if family == "poisson":
        phi = size / (h2 + n * size + size)
        return phi * (x + h1 + t) / (x + 1)
    return (x + size) * (x + h1 + t) / ((x + 1) * (x + h1 + t + h2 + n * size + size))


def mp_increments(family, xs, t, n, size, prior, rule):
    """(increments, term magnitudes) of a stream scored from the state (t, n)."""
    a, m = mpmath.mpf(rule.a), mpmath.mpf(rule.m)
    values, magnitudes = [], []
    with mpmath.workdps(40):
        for x in xs:
            first = mpmath.mpf(x + 1) ** a * mp_ratio(family, x, t, n, size, prior) ** m / m
            second = mpmath.mpf(0)
            if x:
                r_down = mp_ratio(family, x - 1, t, n, size, prior)
                second = mpmath.mpf(x) ** a * r_down ** (m - 1) / (m - 1)
            values.append(float(first - second))
            magnitudes.append(abs(float(first)) + abs(float(second)))
            t, n = t + x, n + 1
    return np.array(values), np.array(magnitudes)


def assert_matches_oracle(xs, k, s, priors, rule, t=0, n=0):
    poisson_prior, negbin_prior = priors
    bank = {
        "poisson": PoissonGammaState(k, poisson_prior, t=t, n=n),
        "negbin": NegBinBetaState(s, negbin_prior, t=t, n=n),
    }
    trace = run_prequential(xs, bank, rule)
    for column, (family, size, prior) in enumerate(
        [("poisson", k, poisson_prior), ("negbin", s, negbin_prior)]
    ):
        expected, magnitude = mp_increments(family, xs, t, n, size, prior, rule)
        got = trace.increments[:, column]
        bound = REL * np.abs(expected) + CANCEL * magnitude
        worst = int(np.argmax(np.abs(got - expected) - bound))
        assert abs(got[worst] - expected[worst]) <= bound[worst], (
            f"{family} step {worst}: {got[worst]!r} vs {expected[worst]!r}"
        )


@pytest.mark.parametrize("rule", ORACLE_RULES, ids=lambda r: f"a{r.a}-m{r.m}")
@pytest.mark.parametrize("prior_kind", sorted(PRIORS))
def test_increments_match_oracle(rule, prior_kind):
    """A fresh stream; it opens with 0 then 2, so the improper priors meet
    r(0) = 0 at x = 0 and never the m < 1 divergence at x = 1."""
    xs = [0, 2] + np.random.default_rng(53).negative_binomial(81, 0.9, 150).tolist()
    assert_matches_oracle(xs, 1.3, 81.0, PRIORS[prior_kind], rule)


@pytest.mark.parametrize("rule", ORACLE_RULES, ids=lambda r: f"a{r.a}-m{r.m}")
def test_long_horizon_increments_match_oracle(rule):
    """Running total near 1e6 after 1e5 steps, where first and second terms
    nearly cancel."""
    xs = np.random.default_rng(59).negative_binomial(81, 0.9, 100).tolist()
    assert_matches_oracle(xs, 1.0, 81.0, PRIORS["improper"], rule, t=1_000_003, n=100_000)
