"""High-precision oracle for the conjugate prequential increments.

The increment reference is the benchmark's own, ``perfbench/reference.py``,
loaded here by path: ``reference.prequential`` evaluates the point score of
the README,

    S(x) = (x+1)^a r(x)^m / m - x^a r(x-1)^(m-1) / (m-1),

on the conjugate predictive ratios with 40-digit mpmath arithmetic, step by
step.  A state's history (t, n) enters it as the prior (h1 + t, h2 + n size),
summed exactly in the reference's own context.  The engine's float
increments must match it to 1e-9 relative plus 1e-12 times the magnitude of
the two terms, the room float64 cancellation in the difference needs, and
its cumulative scores to 1e-9 relative plus 1e-12 times the running sum of
those magnitudes.  So a defect in the benchmark's reference fails here too.

The ratios themselves are checked against the predictives' conjugate
integrals: each log-mass log p(x) comes from the Gamma/Beta-function closed
form of likelihood times prior, and r(x) = exp(log p(x+1) - log p(x)).  An
improper prior's missing constant cancels in the ratio.
"""

import functools
import importlib.util
from pathlib import Path

import mpmath
import numpy as np
import pytest

from preqscore import (
    NegBinBetaState,
    PoissonGammaState,
    PriorSpec,
    RuleParams,
    predictive_ratio,
    run_prequential,
)

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_reference", Path(__file__).resolve().parents[1] / "perfbench" / "reference.py")
reference = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reference)

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


def mp_log_mass(family, x, t, n, size, prior):
    """log p(x), up to a constant free of x, of the predictive after n
    observations totalling t, from the conjugate integral; every sum in mpf.

        Poisson-Gamma:  x log k - log G(x+1) + log G(A) - A log B,
                        A = x + t + h1,  B = n k + k + h2
        NegBin-Beta:    log G(x+s) - log G(s) - log G(x+1) + log G(A) + log G(B) - log G(A+B),
                        A = x + t + h1,  B = s + n s + h2

    At A = 0 (x = t = h1 = 0, an improper shape) the integral diverges: +inf.
    """
    h1, h2, size = mpmath.mpf(prior.hyper1), mpmath.mpf(prior.hyper2), mpmath.mpf(size)
    a = x + t + h1
    if a == 0:
        return mpmath.inf
    if family == "poisson":
        b = n * size + size + h2
        return x * mpmath.log(size) - mpmath.loggamma(x + 1) + mpmath.loggamma(a) - a * mpmath.log(b)
    b = size + n * size + h2
    return (mpmath.loggamma(x + size) - mpmath.loggamma(size) - mpmath.loggamma(x + 1)
            + mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b))


def integral_ratio(family, size, prior, t=0, n=0):
    """x -> r(x) = exp(log p(x+1) - log p(x)) at 40 digits, as a float.

    Each log-mass is computed once, so r(x) and r(x-1) share log p(x).
    """
    @functools.lru_cache(maxsize=None)
    def log_mass(x):
        return mp_log_mass(family, x, t, n, size, prior)

    def ratio(x):
        with mpmath.workdps(40):
            return float(mpmath.exp(log_mass(x + 1) - log_mass(x)))

    return ratio


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
        h1, h2 = reference.MP.mpf(prior.hyper1) + t, reference.MP.mpf(prior.hyper2) + n * reference.MP.mpf(size)
        _, increments, cumulative, magnitude = reference.prequential(xs, family, size, h1, h2, rule.a, rule.m)
        for what, got, expected, bound in (
            ("increment", trace.increments[:, column], increments, REL * np.abs(increments) + CANCEL * magnitude),
            ("cumulative", trace.cumulative[:, column], cumulative,
             REL * np.abs(cumulative) + CANCEL * np.cumsum(magnitude)),
        ):
            worst = int(np.argmax(np.abs(got - expected) - bound))
            assert abs(got[worst] - expected[worst]) <= bound[worst], f"{family} {what} at step {worst}"


@pytest.mark.parametrize("rule", ORACLE_RULES, ids=lambda r: f"a{r.a:g}-m{r.m:g}")
@pytest.mark.parametrize("prior_kind", sorted(PRIORS))
def test_increments_match_oracle(rule, prior_kind):
    """A fresh stream; it opens with 0 then 2, so the improper priors meet
    r(0) = 0 at x = 0 and never the m < 1 divergence at x = 1."""
    xs = [0, 2] + np.random.default_rng(53).negative_binomial(81, 0.9, 150).tolist()
    assert_matches_oracle(xs, 1.3, 81.0, PRIORS[prior_kind], rule)


@pytest.mark.parametrize("rule", ORACLE_RULES, ids=lambda r: f"a{r.a:g}-m{r.m:g}")
def test_long_horizon_increments_match_oracle(rule):
    """Running total near 1e6 after 1e5 steps, and near 1e7 after 1e6,
    where first and second terms nearly cancel."""
    xs = np.random.default_rng(59).negative_binomial(81, 0.9, 100).tolist()
    for t, n in ((1_000_003, 100_000), (10_000_019, 1_000_000)):
        assert_matches_oracle(xs, 1.0, 81.0, PRIORS["improper"], rule, t=t, n=n)


@pytest.mark.parametrize("rule", ORACLE_RULES, ids=lambda r: f"a{r.a:g}-m{r.m:g}")
def test_huge_negbin_prior_shape_matches_oracle(rule):
    """At p0 = 1.7e308 the product (x + s)(x + p) overflows, and at q0 = 1.7e308
    with s = 0.5 the product (x + 1)(x + p + q + s); the ratio forms neither."""
    priors = (PriorSpec.proper(1.0, 1.0), PriorSpec.proper(1.7e308, 1.0))
    assert_matches_oracle([5, 3], 1.0, 81.0, priors, rule)
    for p0 in (1.0, 1.7e308):
        priors = (PriorSpec.proper(1.0, 1.0), PriorSpec.proper(p0, 1.7e308))
        assert_matches_oracle([5, 3], 1.0, 0.5, priors, rule)


def random_state(rng, family, kind):
    """(size, prior, t, n): t < 1e6 and n < 1e5, or a short history with t = 0."""
    t = int(rng.integers(0, 10**6)) if rng.random() < 0.8 else 0
    n = int(rng.integers(0, 10**5)) if t else int(rng.integers(0, 3))
    size = float(np.exp(rng.uniform(np.log(0.01), np.log(1000))))
    if kind == "proper":
        h1, h2 = np.exp(rng.uniform(np.log(0.01), np.log(100), 2)).tolist()
        prior = PriorSpec.proper(h1, h2)
    else:
        prior = PRIORS[kind][family == "negbin"]
    return size, prior, t, n


def test_predictive_ratios_match_conjugate_integrals():
    """3000 random states of both families under proper, improper and Jeffreys
    priors, at counts near 0 and near the running mean: the float ratio and the
    oracle's ratio formula both agree with the integral's ratio."""
    rng = np.random.default_rng(7)
    for i in range(3000):
        family, kind = ("poisson", "negbin")[i % 2], sorted(PRIORS)[i // 2 % 3]
        size, prior, t, n = random_state(rng, family, kind)
        x = int(rng.integers(0, 50 if rng.random() < 0.5 else 1 + 3 * t // max(n, 1)))
        state = (PoissonGammaState if family == "poisson" else NegBinBetaState)(size, prior, t=t, n=n)
        expected = integral_ratio(family, size, prior, t, n)(x)
        with mpmath.workdps(40):
            formula = float(mp_ratio(family, x, t, n, size, prior))
        case = (family, kind, size, prior, t, n, x)
        assert formula == expected, case
        assert abs(predictive_ratio(state)(x) - expected) <= 1e-15 * expected, case
