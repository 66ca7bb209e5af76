"""Core scoring-rule tests: hand-computed values, algebraic identities,
homogeneity, concavity and the propriety grid check."""

import math

import numpy as np
import pytest

from preqscore import (
    FrequencyTable,
    RuleParams,
    ScoreDomainError,
    empirical_total_score,
    generator_deriv,
    generator_value,
    ratio_from_weights,
    score_point,
)

RULE_GRID = [RuleParams(2, 2), RuleParams(2, 1.5), RuleParams(3, 2), RuleParams(1, 0.5)]

QUAD = RuleParams()  # a = m = 2


def truncated_poisson_weights(lam, hi=40):
    """Unnormalised Poisson weights lam^x / x! on {0, ..., hi}."""
    w = [1.0]
    for x in range(hi):
        w.append(w[-1] * lam / (x + 1))
    return w


class TestRuleParams:
    def test_defaults(self):
        rule = RuleParams()
        assert rule.a == 2.0 and rule.m == 2.0

    @pytest.mark.parametrize("m", [0.0, -1.0, 1.0, math.inf, math.nan])
    def test_invalid_order_rejected(self, m):
        with pytest.raises(ValueError):
            RuleParams(a=2.0, m=m)

    def test_invalid_exponent_rejected(self):
        with pytest.raises(ValueError):
            RuleParams(a=math.inf, m=2.0)

    def test_any_finite_a_accepted(self):
        for a in (-3.0, 0.0, 0.5, 7.0):
            RuleParams(a=a, m=2.0)

    @pytest.mark.parametrize("field, fields", [("a", dict(a=True, m=2.0)), ("m", dict(a=2.0, m=False))])
    def test_boolean_exponent_rejected(self, field, fields):
        with pytest.raises(TypeError, match=f"^{field} must be a number"):
            RuleParams(**fields)


class TestGenerator:
    def test_vanishes_at_zero(self):
        assert generator_value(0, 0.0, QUAD) == 0.0

    def test_hand_values(self):
        assert generator_value(0, 1.0, QUAD) == pytest.approx(-0.5, rel=1e-12)
        assert generator_value(2, 0.5, QUAD) == pytest.approx(-1.125, rel=1e-12)

    def test_deriv_hand_values(self):
        assert generator_deriv(0, 1.0, QUAD) == pytest.approx(-1.0, rel=1e-12)
        assert generator_deriv(1, 0.5, QUAD) == pytest.approx(-2.0, rel=1e-12)

    def test_deriv_vanishes_at_zero_for_m_above_one(self):
        assert generator_deriv(0, 0.0, QUAD) == 0.0

    def test_deriv_diverges_at_zero_for_m_below_one(self):
        assert generator_deriv(0, 0.0, RuleParams(1, 0.5)) == math.inf

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            generator_value(0, -0.1, QUAD)

    @pytest.mark.parametrize("rule", RULE_GRID, ids=lambda r: f"a{r.a}-m{r.m}")
    def test_concavity_on_grid(self, rule):
        """Second differences of v -> G_y(v) are non-positive on a v-grid."""
        vs = [0.1 * i for i in range(1, 51)]
        for y in range(5):
            gs = [generator_value(y, v, rule) for v in vs]
            for i in range(1, len(gs) - 1):
                second = gs[i + 1] - 2 * gs[i] + gs[i - 1]
                assert second <= 1e-12, f"convexity at y={y}, v={vs[i]}: {second}"

    def test_deriv_matches_finite_differences(self):
        h = 1e-7
        for rule in RULE_GRID:
            for y in (0, 3):
                for v in (0.3, 1.0, 2.7):
                    numeric = (
                        generator_value(y, v + h, rule) - generator_value(y, v - h, rule)
                    ) / (2 * h)
                    assert generator_deriv(y, v, rule) == pytest.approx(numeric, rel=1e-5)


class TestScorePoint:
    def test_at_zero(self):
        assert score_point(0, lambda x: 0.5, QUAD) == pytest.approx(0.125, rel=1e-12)

    def test_at_zero_with_zero_ratio(self):
        assert score_point(0, lambda x: 0.0, QUAD) == 0.0

    def test_positive_observation(self):
        ratio = {1: 0.5, 2: 0.4}.get
        assert score_point(2, ratio, QUAD) == pytest.approx(-1.28, rel=1e-12)

    def test_left_neighbour_not_queried_at_zero(self):
        def ratio(x):
            assert x == 0
            return 0.7

        score_point(0, ratio, QUAD)

    def test_zero_mass_below_observation_rejected(self):
        ratio = {0: 0.0, 1: 0.5}.get
        with pytest.raises(ScoreDomainError, match="x=1"):
            score_point(1, ratio, QUAD)

    @pytest.mark.parametrize("bad", [-0.2, math.inf, math.nan])
    def test_invalid_ratio_rejected(self, bad):
        with pytest.raises(ScoreDomainError):
            score_point(0, lambda x: bad, QUAD)

    def test_negative_observation_rejected(self):
        with pytest.raises(ValueError):
            score_point(-1, lambda x: 0.5, QUAD)


class TestFrequencyTable:
    def test_from_observations(self):
        table = FrequencyTable.from_observations([2, 0, 1, 1, 2, 5])
        assert dict(table.items()) == {0: 1, 1: 2, 2: 2, 5: 1}
        assert table.n == 6
        assert table.t == 11
        assert table.max_value() == 5

    def test_zero_frequencies_dropped(self):
        table = FrequencyTable({0: 2, 3: 0})
        assert dict(table.items()) == {0: 2}

    def test_ascending_iteration(self):
        table = FrequencyTable({7: 1, 0: 1, 3: 2})
        assert [y for y, _ in table.items()] == [0, 3, 7]

    @pytest.mark.parametrize("counts", [{-1: 2}, {0: -1}, {0.5: 1}, {0: 1.5}, {True: 1}])
    def test_invalid_entries_rejected(self, counts):
        with pytest.raises((ValueError, TypeError)):
            FrequencyTable(counts)

    def test_immutable(self):
        table = FrequencyTable({0: 1})
        with pytest.raises(AttributeError):
            table.n = 5

    def test_consistency_recomputable(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            xs = rng.integers(0, 20, size=rng.integers(1, 40)).tolist()
            table = FrequencyTable.from_observations(xs)
            assert table.n == len(xs)
            assert table.t == sum(xs)


class TestEmpiricalTotalScore:
    def test_single_point_equals_score_point(self):
        table = FrequencyTable({0: 1})
        assert empirical_total_score(table, lambda x: 0.5, QUAD) == pytest.approx(0.125, rel=1e-12)

    def test_additivity_over_identical_points(self):
        table = FrequencyTable({0: 2})
        assert empirical_total_score(table, lambda x: 0.5, QUAD) == pytest.approx(0.25, rel=1e-12)

    def test_support_gap(self):
        ratio = {0: 0.5, 1: 0.5, 2: 0.4}.get
        table = FrequencyTable({0: 1, 2: 1})
        assert empirical_total_score(table, ratio, QUAD) == pytest.approx(-1.155, rel=1e-12)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            empirical_total_score(FrequencyTable({}), lambda x: 0.5, QUAD)

    def test_zero_ratio_below_observed_value_rejected(self):
        ratio = {0: 0.0, 1: 0.5}.get
        with pytest.raises(ScoreDomainError):
            empirical_total_score(FrequencyTable({1: 1}), ratio, QUAD)

    @pytest.mark.parametrize("rule", RULE_GRID, ids=lambda r: f"a{r.a}-m{r.m}")
    def test_telescoping_identity(self, rule):
        """The frequency-table total equals the per-observation sum to 1e-12."""
        rng = np.random.default_rng(23)
        for _ in range(60):
            xs = rng.integers(0, 15, size=rng.integers(1, 30)).tolist()
            weights = rng.uniform(0.05, 3.0, size=max(xs) + 2).tolist()
            ratio = ratio_from_weights(weights)
            table = FrequencyTable.from_observations(xs)
            total = empirical_total_score(table, ratio, rule)
            per_point = sum(score_point(x, ratio, rule) for x in xs)
            assert total == pytest.approx(per_point, rel=1e-12, abs=1e-12)


class TestHomogeneity:
    """Scores depend on unnormalised weights only through neighbour ratios."""

    @pytest.mark.parametrize("rule", RULE_GRID, ids=lambda r: f"a{r.a}-m{r.m}")
    def test_score_point_scale_invariant(self, rule):
        base = truncated_poisson_weights(2.7, hi=30)
        reference = [score_point(x, ratio_from_weights(base), rule) for x in range(25)]
        for c in (1e-6, 1.0, 1e6):
            scaled = ratio_from_weights([c * w for w in base])
            for x in range(25):
                got = score_point(x, scaled, rule)
                assert math.isclose(got, reference[x], rel_tol=1e-12, abs_tol=1e-12)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            ratio_from_weights([1.0, -0.5])

    def test_zero_weight_then_mass_rejected_when_scored(self):
        ratio = ratio_from_weights([1.0, 0.0, 2.0])
        with pytest.raises(ScoreDomainError):
            score_point(2, ratio, QUAD)


class TestPropriety:
    def test_expected_score_minimised_at_truth(self):
        """Expected score against truncated-Poisson candidates bottoms at the truth."""
        truth = truncated_poisson_weights(2.0)
        z = sum(truth)
        p = [w / z for w in truth]
        scores = {}
        for i in range(46):
            lam = round(0.5 + 0.1 * i, 1)
            candidate = ratio_from_weights(truncated_poisson_weights(lam))
            scores[lam] = sum(p[x] * score_point(x, candidate, QUAD) for x in range(41))
        best = min(scores, key=scores.get)
        assert best == 2.0, f"expected minimiser 2.0, got {best}"
