"""Conjugate-model tests: predictive ratios, prequential steps,
sufficient-statistic scores, and their agreement with the general rule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_oracle import ORACLE_RULES

from preqscore import (
    NegBinBetaState,
    PoissonGammaState,
    PriorSpec,
    RuleParams,
    ScoreDomainError,
    predictive_ratio,
    prequential_step,
    run_prequential,
    score_point,
    sufficient_score,
)

QUAD = RuleParams()
IMPROPER = PriorSpec.usual_improper()

ALL_PRIOR_KINDS = [
    PriorSpec.proper(1.0, 1.0),
    PriorSpec.proper(0.3, 2.5),
    PriorSpec.usual_improper(),
]


class TestPriorSpec:
    def test_proper_requires_positive(self):
        with pytest.raises(ValueError):
            PriorSpec.proper(0.0, 1.0)
        with pytest.raises(ValueError):
            PriorSpec.proper(1.0, -2.0)

    def test_usual_improper_is_zero_zero(self):
        prior = PriorSpec.usual_improper()
        assert (prior.hyper1, prior.hyper2) == (0.0, 0.0)

    def test_jeffreys_pairs(self):
        assert (PriorSpec.jeffreys_poisson().hyper1, PriorSpec.jeffreys_poisson().hyper2) == (0.5, 0.0)
        assert (PriorSpec.jeffreys_negbin().hyper1, PriorSpec.jeffreys_negbin().hyper2) == (0.0, 0.5)

    def test_invalid_pairs_rejected(self):
        # Accepted: both positive (proper), or one of the improper limits
        # (0, 0), (0.5, 0) and (0, 0.5); -0.0 counts as 0.
        grid = (-1.0, -0.0, 0.0, 0.3, 0.5, 2.0)
        for h1 in grid:
            for h2 in grid:
                valid = (h1 > 0 and h2 > 0) or (h1, h2) in ((0, 0), (0.5, 0), (0, 0.5))
                if valid:
                    prior = PriorSpec(h1, h2)
                    assert (prior.hyper1, prior.hyper2) == (h1, h2)
                else:
                    with pytest.raises(ValueError, match="must both be positive"):
                        PriorSpec(h1, h2)


class TestStates:
    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonGammaState(0.0, IMPROPER)
        with pytest.raises(ValueError):
            NegBinBetaState(-1.0, IMPROPER)
        with pytest.raises(ValueError):
            PoissonGammaState(1.0, IMPROPER, t=-1)

    def test_updates_are_exact_integers(self):
        state = PoissonGammaState(1.0, IMPROPER)
        for x in (3, 0, 7):
            _, state = prequential_step(state, x, QUAD)
        assert (state.t, state.n) == (10, 3)
        assert isinstance(state.t, int) and isinstance(state.n, int)

    @pytest.mark.parametrize("make, what", [
        (PoissonGammaState, "exposure k"), (NegBinBetaState, "size s"),
    ])
    @pytest.mark.parametrize("size", ["2", True, np.True_, None])
    def test_non_number_size_is_type_error(self, make, what, size):
        with pytest.raises(TypeError, match=f"^{what} must be a number"):
            make(size, IMPROPER)

    @pytest.mark.parametrize("make", [PoissonGammaState, NegBinBetaState])
    @pytest.mark.parametrize("prior, text", [(None, "None"), ((0.0, 0.0), r"\(0\.0, 0\.0\)"),
                                             ("improper", "'improper'")], ids=["None", "tuple", "str"])
    def test_prior_that_is_not_a_prior_spec_is_type_error(self, make, prior, text):
        """Rejected where the state is built, not at its first ratio."""
        with pytest.raises(TypeError, match=f"^prior must be a PriorSpec, got {text}$"):
            make(1.0, prior)

    @pytest.mark.parametrize("field", ["t", "n"])
    def test_non_integer_history_is_type_error(self, field):
        with pytest.raises(TypeError, match="must be an integer"):
            PoissonGammaState(1.0, IMPROPER, **{field: 2.0})

    def test_numpy_values_are_stored_as_python_numbers(self):
        state = PoissonGammaState(np.int64(2), IMPROPER, t=np.int64(5), n=np.uint8(3))
        assert (state.k, state.t, state.n) == (2.0, 5, 3)
        assert [type(v) for v in (state.k, state.t, state.n)] == [float, int, int]
        assert repr(NegBinBetaState(81, IMPROPER)).startswith("NegBinBetaState(s=81.0,")
        assert PriorSpec.proper(np.int64(1), np.float32(2)) == PriorSpec.proper(1.0, 2.0)

    def test_numpy_integer_step_updates_python_integers(self):
        state = PoissonGammaState(1.0, IMPROPER, t=3, n=1)
        score, after = prequential_step(state, np.int64(4), QUAD)
        assert (score, after) == prequential_step(state, 4, QUAD)
        assert isinstance(after.t, int)


class TestPredictiveRatios:
    def test_poisson_proper_fresh(self):
        state = PoissonGammaState(1.0, PriorSpec.proper(1.0, 1.0))
        assert predictive_ratio(state)(0) == pytest.approx(0.5, rel=1e-12)

    def test_poisson_improper_fresh_is_zero_at_origin(self):
        state = PoissonGammaState(1.0, IMPROPER)
        assert predictive_ratio(state)(0) == 0.0

    def test_poisson_improper_with_history(self):
        state = PoissonGammaState(1.0, IMPROPER, t=5, n=3)
        assert predictive_ratio(state)(2) == pytest.approx(7.0 / 12.0, rel=1e-12)

    def test_negbin_proper_fresh(self):
        state = NegBinBetaState(1.0, PriorSpec.proper(1.0, 1.0))
        assert predictive_ratio(state)(0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_negbin_improper_fresh_is_zero_at_origin(self):
        state = NegBinBetaState(81.0, IMPROPER)
        assert predictive_ratio(state)(0) == 0.0

    def test_negbin_improper_with_history(self):
        state = NegBinBetaState(81.0, IMPROPER, t=1, n=1)
        assert predictive_ratio(state)(0) == pytest.approx(81.0 / 163.0, rel=1e-12)

    def test_negbin_ratio_has_the_bits_of_the_undivided_formula(self):
        """The size terms are divided by a power of two, which is exact, so
        wherever (x + s)(x + p) / ((x + 1)(x + p + q + s)) does not overflow
        the ratio equals it bit for bit, for small and large s alike."""
        rng = np.random.default_rng(29)
        for _ in range(300):
            s = float(10 ** rng.uniform(-300, 300))
            prior = PriorSpec.proper(rng.uniform(0.01, 10), rng.uniform(0.01, 10))
            t, n, x = int(rng.integers(0, 10**9)), int(rng.integers(0, 10**6)), int(rng.integers(0, 10**4))
            p, q = prior.hyper1 + t, prior.hyper2 + n * s
            denominator = (x + 1.0) * (x + p + q + s)
            if math.isfinite(denominator):
                state = NegBinBetaState(s, prior, t=t, n=n)
                assert predictive_ratio(state)(x) == (x + s) * (x + p) / denominator

    @settings(max_examples=200, deadline=None)
    @given(family=st.sampled_from([PoissonGammaState, NegBinBetaState]), size=st.floats(0.01, 1000),
           history=st.one_of(
               st.tuples(st.builds(PriorSpec.proper, st.floats(0.01, 100), st.floats(0.01, 100)),
                         st.integers(0, 10**6), st.integers(0, 10**5)),
               st.tuples(st.sampled_from([IMPROPER, PriorSpec.jeffreys_poisson(), PriorSpec.jeffreys_negbin()]),
                         st.integers(1, 10**6), st.integers(1, 10**5))),
           x=st.integers(0, 10**4))
    def test_history_is_the_updated_prior(self, family, size, history, x):
        """The conjugate update of the module docstring: a state with history
        (t, n) predicts as a fresh one with prior (h1 + t, h2 + n size)."""
        prior, t, n = history
        updated = PriorSpec(prior.hyper1 + t, prior.hyper2 + n * size)
        got = predictive_ratio(family(size, prior, t=t, n=n))(x)
        assert math.isclose(got, predictive_ratio(family(size, updated))(x), rel_tol=1e-12)

    def test_ratios_are_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            prior = PriorSpec.proper(rng.uniform(0.1, 5), rng.uniform(0.1, 5))
            t, n = int(rng.integers(0, 50)), int(rng.integers(0, 20))
            pr = predictive_ratio(PoissonGammaState(1.0, prior, t=t, n=n))
            nr = predictive_ratio(NegBinBetaState(81.0, prior, t=t, n=n))
            for x in range(20):
                assert pr(x) >= 0.0 and math.isfinite(pr(x))
                assert nr(x) >= 0.0 and math.isfinite(nr(x))


class TestPrequentialSteps:
    def test_poisson_improper_first_steps(self):
        state = PoissonGammaState(1.0, IMPROPER)
        inc1, state = prequential_step(state, 1, QUAD)
        assert inc1 == pytest.approx(0.5, rel=1e-12)
        inc2, state = prequential_step(state, 0, QUAD)
        assert inc2 == pytest.approx(0.125, rel=1e-12)
        assert (state.t, state.n) == (1, 2)

    def test_poisson_proper_first_zero(self):
        state = PoissonGammaState(1.0, PriorSpec.proper(1.0, 1.0))
        inc, _ = prequential_step(state, 0, QUAD)
        assert inc == pytest.approx(0.125, rel=1e-12)

    def test_negbin_improper_first_positive(self):
        inc, _ = prequential_step(NegBinBetaState(81.0, IMPROPER), 1, QUAD)
        assert inc == pytest.approx(0.5, rel=1e-12)

    def test_negbin_improper_first_zero(self):
        inc, _ = prequential_step(NegBinBetaState(81.0, IMPROPER), 0, QUAD)
        assert inc == 0.0

    def test_negbin_proper_first_zero(self):
        inc, _ = prequential_step(NegBinBetaState(1.0, PriorSpec.proper(1.0, 1.0)), 0, QUAD)
        assert inc == pytest.approx(1.0 / 18.0, rel=1e-12)

    def test_improper_first_step_total_even_where_ratio_path_fails(self):
        """The fresh improper predictive has r(0) = 0, so the generic rule
        rejects a first positive observation; the closed form carries the
        finite limit instead (for m > 1)."""
        state = PoissonGammaState(1.0, IMPROPER)
        with pytest.raises(ScoreDomainError):
            score_point(1, predictive_ratio(state), QUAD)
        inc, _ = prequential_step(state, 1, QUAD)
        assert math.isfinite(inc)

    def test_improper_first_step_diverges_for_small_m(self):
        """For m < 1 the same limit is infinite and is reported as an error."""
        with pytest.raises(ScoreDomainError):
            prequential_step(PoissonGammaState(1.0, IMPROPER), 1, RuleParams(1, 0.5))

    @pytest.mark.parametrize("k", [1.0, 1e300, 1e308])
    def test_huge_exposure_scores_like_unit_exposure(self, k):
        """Under the usual improper prior phi = 1 / (n + 1) whatever k, so
        the total over 1..10 is the same at every exposure; n k + k
        overflows at k = 1e308, which the ratio never forms."""
        obs = list(range(1, 11))
        state, total = PoissonGammaState(k, IMPROPER), 0.0
        for x in obs:
            increment, state = prequential_step(state, x, QUAD)
            total += increment
        trace = run_prequential(obs, {"poisson": PoissonGammaState(k, IMPROPER)}, QUAD)
        assert total == pytest.approx(-146.875, rel=1e-12)
        assert trace.final_score("poisson") == pytest.approx(-146.875, rel=1e-12)
        assert predictive_ratio(state)(3) == pytest.approx(58 / 44, rel=1e-12)

    @pytest.mark.parametrize("s", [1e300, 1e308])
    def test_huge_size_scores_like_poisson(self, s):
        """Under the usual improper prior the NegBin ratio tends, as s grows,
        to the unit-exposure Poisson one, (x + t) / ((x + 1)(n + 1)), and
        reaches it in float64 by s = 1e300; n s + s overflows at s = 1e308,
        which the ratio never forms."""
        obs = list(range(1, 11))
        state, total = NegBinBetaState(s, IMPROPER), 0.0
        for x in obs:
            increment, state = prequential_step(state, x, QUAD)
            total += increment
        trace = run_prequential(obs, {"negbin": NegBinBetaState(s, IMPROPER)}, QUAD)
        assert total == pytest.approx(-146.875, rel=1e-12)
        assert trace.final_score("negbin") == pytest.approx(-146.875, rel=1e-12)
        assert predictive_ratio(state)(3) == pytest.approx(58 / 44, rel=1e-12)

    def test_increment_depends_only_on_summary(self):
        """Replaying any permutation of the history (same t, n) gives the
        same next increment, bit for bit."""
        rng = np.random.default_rng(17)
        for _ in range(30):
            history = rng.integers(0, 12, size=8).tolist()
            x_next = int(rng.integers(0, 12))
            permuted = [history[i] for i in rng.permutation(8)]
            for fresh in (
                PoissonGammaState(1.0, IMPROPER),
                NegBinBetaState(81.0, IMPROPER),
                PoissonGammaState(2.0, PriorSpec.proper(0.7, 1.3)),
                NegBinBetaState(5.0, PriorSpec.proper(0.7, 1.3)),
            ):
                def replay(seq):
                    state = fresh
                    for x in seq:
                        _, state = prequential_step(state, x, QUAD)
                    return prequential_step(state, x_next, QUAD)[0]

                assert replay(history) == replay(permuted)


class TestSufficientScores:
    def test_improper_zero_total_scores_zero(self):
        for n_obs in (1, 3, 10):
            assert sufficient_score(PoissonGammaState(1.0, IMPROPER), 0, n_obs, QUAD) == 0.0
            assert sufficient_score(NegBinBetaState(81.0, IMPROPER), 0, n_obs, QUAD) == 0.0

    def test_improper_hand_value(self):
        assert sufficient_score(PoissonGammaState(1.0, IMPROPER), 5, 4, QUAD) == pytest.approx(-7.5, rel=1e-12)
        assert sufficient_score(NegBinBetaState(81.0, IMPROPER), 5, 4, QUAD) == pytest.approx(-7.5, rel=1e-10)

    def test_proper_single_observation_matches_prequential(self):
        prior = PriorSpec.proper(1.0, 1.0)
        suff = sufficient_score(PoissonGammaState(1.0, prior), 0, 1, QUAD)
        preq, _ = prequential_step(PoissonGammaState(1.0, prior), 0, QUAD)
        assert suff == pytest.approx(preq, rel=1e-12)
        assert suff == pytest.approx(0.125, rel=1e-12)
        suff_nb = sufficient_score(NegBinBetaState(1.0, prior), 0, 1, QUAD)
        assert suff_nb == pytest.approx(1.0 / 18.0, rel=1e-12)

    def test_degeneracy_under_improper_priors(self):
        """Both sufficient-statistic routes collapse to the same function of
        the total; they cannot separate the models under improper priors."""
        for rule in (RuleParams(2, 2), RuleParams(2, 1.5), RuleParams(3, 2)):
            for t_total in (0, 1, 2, 5, 17, 100, 1234):
                a = sufficient_score(PoissonGammaState(1.3, IMPROPER), t_total, 7, rule)
                b = sufficient_score(NegBinBetaState(81.0, IMPROPER), t_total, 7, rule)
                assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_overflowing_sum_size_is_domain_error(self):
        """The sum of n_obs observations has size n_obs * k (or n_obs * s),
        which must stay inside the float range."""
        with pytest.raises(ScoreDomainError, match=r"^n_obs \* exposure k is beyond the float range$"):
            sufficient_score(PoissonGammaState(1e308, IMPROPER), 55, 10, QUAD)
        with pytest.raises(ScoreDomainError, match=r"^n_obs \* size s is beyond the float range$"):
            sufficient_score(NegBinBetaState(1e308, IMPROPER), 55, 10, QUAD)
        assert math.isfinite(sufficient_score(PoissonGammaState(1e307, IMPROPER), 55, 10, QUAD))

    def test_requires_positive_count(self):
        with pytest.raises(ValueError):
            sufficient_score(PoissonGammaState(1.0, IMPROPER), 3, 0, QUAD)

    def test_non_integer_count_is_type_error(self):
        for n_obs in (2.0, True, "2"):
            with pytest.raises(TypeError, match=r"^n_obs must be an integer"):
                sufficient_score(PoissonGammaState(1.0, IMPROPER), 3, n_obs, QUAD)

    def test_count_beyond_int64_names_the_count(self):
        """A count beyond int64 is named, wherever it enters; a running total
        or count that would leave the kernel's int64 prefix sums is caught by
        the one-row entries."""
        history = "^running total or observation count beyond the int64 range$"
        for call, message in (
            (lambda: sufficient_score(PoissonGammaState(1.0, IMPROPER), 2**63, 2, QUAD),
             rf"^t_total must be below 2\*\*63, got {2**63}$"),
            (lambda: prequential_step(NegBinBetaState(81.0, IMPROPER), 2**63, QUAD),
             rf"^x must be below 2\*\*63, got {2**63}$"),
            (lambda: predictive_ratio(PoissonGammaState(1.0, IMPROPER))(10**400),
             rf"^x must be below 2\*\*63, got {10**400}$"),
            (lambda: score_point(10**400, predictive_ratio(NegBinBetaState(81.0, IMPROPER)), QUAD),
             rf"^x must be below 2\*\*63, got {10**400}$"),
            (lambda: PoissonGammaState(1.0, IMPROPER, t=2**70),
             rf"^running total t must be below 2\*\*63, got {2**70}$"),
            (lambda: NegBinBetaState(81.0, IMPROPER, n=2**63),
             rf"^observation count n must be below 2\*\*63, got {2**63}$"),
            (lambda: prequential_step(PoissonGammaState(1.0, IMPROPER, t=2**62 - 3), 5, QUAD), history),
            (lambda: prequential_step(NegBinBetaState(81.0, IMPROPER, n=2**62 - 1), 0, QUAD), history),
            (lambda: sufficient_score(NegBinBetaState(81.0, IMPROPER), 2**62, 2, QUAD), history),
        ):
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize("history", [{"t": 3}, {"n": 1}, {"t": 3, "n": 2}])
    def test_state_with_history_is_rejected(self, history):
        for make, size in ((PoissonGammaState, 1.0), (NegBinBetaState, 81.0)):
            state = make(size, IMPROPER, **history)
            with pytest.raises(ValueError, match="without history"):
                sufficient_score(state, 7, 3, QUAD)

    def test_numpy_arguments_score_like_python_ones(self):
        expected = sufficient_score(NegBinBetaState(81.0, IMPROPER), 7, 3, QUAD)
        state = NegBinBetaState(np.float64(81), IMPROPER)
        assert sufficient_score(state, np.int64(7), np.uint8(3), QUAD) == expected


class TestClosedFormOracle:
    """Every specialised formula agrees with the general rule applied to the
    model's predictive ratio."""

    @pytest.mark.parametrize("rule", ORACLE_RULES, ids=lambda r: f"a{r.a:g}-m{r.m:g}")
    def test_prequential_increments(self, rule):
        rng = np.random.default_rng(41)
        for _ in range(120):
            prior = PriorSpec.proper(
                float(np.exp(rng.uniform(np.log(0.1), np.log(10)))),
                float(np.exp(rng.uniform(np.log(0.1), np.log(10)))),
            )
            k = float(np.exp(rng.uniform(np.log(0.2), np.log(5))))
            s = float(np.exp(rng.uniform(np.log(0.5), np.log(100))))
            t, n = int(rng.integers(0, 200)), int(rng.integers(0, 50))
            x = int(rng.integers(0, 31))

            state = PoissonGammaState(k, prior, t=t, n=n)
            inc, _ = prequential_step(state, x, rule)
            oracle = score_point(x, predictive_ratio(state), rule)
            assert inc == pytest.approx(oracle, rel=1e-10)

            nb_state = NegBinBetaState(s, prior, t=t, n=n)
            inc, _ = prequential_step(nb_state, x, rule)
            oracle = score_point(x, predictive_ratio(nb_state), rule)
            assert inc == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("rule", ORACLE_RULES, ids=lambda r: f"a{r.a:g}-m{r.m:g}")
    def test_sufficient_scores(self, rule):
        """The pooled predictive is the fresh-state predictive with exposure
        (or size) multiplied by the number of observations."""
        rng = np.random.default_rng(42)
        for _ in range(120):
            prior = PriorSpec.proper(rng.uniform(0.1, 10), rng.uniform(0.1, 10))
            k = float(rng.uniform(0.2, 5))
            s = float(rng.uniform(0.5, 100))
            n_obs = int(rng.integers(1, 30))
            t_total = int(rng.integers(0, 300))

            value = sufficient_score(PoissonGammaState(k, prior), t_total, n_obs, rule)
            pooled = PoissonGammaState(n_obs * k, prior)
            assert value == pytest.approx(
                score_point(t_total, predictive_ratio(pooled), rule), rel=1e-10
            )

            value = sufficient_score(NegBinBetaState(s, prior), t_total, n_obs, rule)
            pooled_nb = NegBinBetaState(n_obs * s, prior)
            assert value == pytest.approx(
                score_point(t_total, predictive_ratio(pooled_nb), rule), rel=1e-10
            )

    def test_jeffreys_paths_match_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            t, n = int(rng.integers(1, 80)), int(rng.integers(1, 30))
            x = int(rng.integers(0, 25))
            state = PoissonGammaState(1.0, PriorSpec.jeffreys_poisson(), t=t, n=n)
            inc, _ = prequential_step(state, x, QUAD)
            assert inc == pytest.approx(score_point(x, predictive_ratio(state), QUAD), rel=1e-10)
            nb = NegBinBetaState(81.0, PriorSpec.jeffreys_negbin(), t=t, n=n)
            inc, _ = prequential_step(nb, x, QUAD)
            assert inc == pytest.approx(score_point(x, predictive_ratio(nb), QUAD), rel=1e-10)


# Three blocks of the engine and a partial fourth; it opens with 0 then 2, so
# the improper priors meet r(0) = 0 at x = 0 and never the m < 1 divergence at x = 1.
TELESCOPE_STREAM = [0, 2] + np.random.default_rng(67).negative_binomial(81, 0.9, 3 * 4096 + 75).tolist()
TELESCOPE_PRIORS = [(prior, prior) for prior in ALL_PRIOR_KINDS] + [
    (PriorSpec.jeffreys_poisson(), PriorSpec.jeffreys_negbin()),
]


class TestTelescoping:
    """Scoring a stream, or its prefix and then its suffix from the updated
    state, gives the same suffix increments: the state after k observations
    is the state before them with t + sum(prefix) and n + k."""

    @settings(max_examples=60, deadline=None)
    @given(
        split=st.one_of(
            st.sampled_from([1, 4095, 4096, 5000, len(TELESCOPE_STREAM) - 1]),
            st.integers(1, len(TELESCOPE_STREAM) - 1),
        ),
        rule=st.sampled_from(ORACLE_RULES),
        priors=st.sampled_from(TELESCOPE_PRIORS),
        t0=st.integers(0, 10**6),
        n0=st.integers(0, 10**5),
    )
    def test_suffix_increments_from_updated_state(self, split, rule, priors, t0, n0):
        xs = TELESCOPE_STREAM
        poisson_prior, negbin_prior = priors

        def bank(t, n):
            return {
                "poisson": PoissonGammaState(1.3, poisson_prior, t=t, n=n),
                "negbin": NegBinBetaState(81.0, negbin_prior, t=t, n=n),
            }

        full = run_prequential(xs, bank(t0, n0), rule)
        suffix = run_prequential(xs[split:], bank(t0 + sum(xs[:split]), n0 + split), rule)
        assert np.array_equal(full.increments[split:], suffix.increments)


class TestImproperLimit:
    """Proper scores with both hyperparameters at eps approach the improper
    closed forms as eps decreases."""

    DATA = [2, 0, 1, 3, 0, 1, 5, 2]
    EPS = (1e-2, 1e-4, 1e-6)

    @pytest.mark.parametrize("rule", [RuleParams(2, 2), RuleParams(2, 1.5), RuleParams(3, 2)],
                             ids=lambda r: f"a{r.a:g}-m{r.m:g}")
    @pytest.mark.parametrize("family", ["poisson", "negbin"])
    def test_prequential_totals_converge(self, rule, family):
        def total(prior):
            state = PoissonGammaState(1.0, prior) if family == "poisson" else NegBinBetaState(81.0, prior)
            out = 0.0
            for x in self.DATA:
                inc, state = prequential_step(state, x, rule)
                out += inc
            return out

        limit = total(PriorSpec.usual_improper())
        gaps = [abs(total(PriorSpec.proper(e, e)) - limit) for e in self.EPS]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-4

    def test_sufficient_scores_converge(self):
        for rule in (RuleParams(2, 2), RuleParams(2, 1.5)):
            for t_total, n_obs in ((17, 5), (0, 5), (8, 2)):
                def score(prior):
                    return sufficient_score(PoissonGammaState(1.0, prior), t_total, n_obs, rule)

                limit = score(PriorSpec.usual_improper())
                gaps = [abs(score(PriorSpec.proper(e, e)) - limit) for e in self.EPS]
                assert gaps[0] >= gaps[1] >= gaps[2]
                assert gaps[2] < 1e-4


class TestAllZeroData:
    """Cumulative and sufficient-statistic scores stay finite on all-zero
    samples under every prior, including the improper limits."""

    PRIORS_POISSON = ALL_PRIOR_KINDS + [PriorSpec.jeffreys_poisson()]
    PRIORS_NEGBIN = ALL_PRIOR_KINDS + [PriorSpec.jeffreys_negbin()]

    def test_poisson(self):
        for prior in self.PRIORS_POISSON:
            state = PoissonGammaState(1.0, prior)
            total = 0.0
            for _ in range(50):
                inc, state = prequential_step(state, 0, QUAD)
                total += inc
            assert math.isfinite(total)
            assert math.isfinite(sufficient_score(PoissonGammaState(1.0, prior), 0, 50, QUAD))

    def test_negbin(self):
        for prior in self.PRIORS_NEGBIN:
            state = NegBinBetaState(81.0, prior)
            total = 0.0
            for _ in range(50):
                inc, state = prequential_step(state, 0, QUAD)
                total += inc
            assert math.isfinite(total)
            assert math.isfinite(sufficient_score(NegBinBetaState(81.0, prior), 0, 50, QUAD))
