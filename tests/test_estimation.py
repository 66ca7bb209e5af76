"""Minimum-score estimation tests: objective values, the closed form
B/A against grid and 40-digit oracles, and boundary handling."""

import math

import mpmath
import numpy as np
import pytest

from preqscore import (
    FrequencyTable,
    RuleParams,
    ScoreDomainError,
    estimation,
    fit_minimum_score,
    poisson_empirical_score,
)
from preqscore.scoring import point_scores

QUAD = RuleParams()


def mp_b_over_a(freq, c):
    """B/A = sum_{y>0} f y^(c+1) / sum_y f (y+1)^c at 40 digits."""
    with mpmath.workdps(40):
        c = mpmath.mpf(c)
        a = mpmath.fsum(f * mpmath.mpf(y + 1) ** c for y, f in freq.items())
        b = mpmath.fsum(f * mpmath.mpf(y) ** (c + 1) for y, f in freq.items() if y)
        return b / a


def wide_table(draws):
    sample = np.random.default_rng(4242).negative_binomial(2, 0.01, draws)
    return FrequencyTable.from_observations(sample.tolist())


class TestEmpiricalScore:
    def test_zero_theta_vanishes_for_m_above_one(self):
        table = FrequencyTable({0: 1, 1: 2, 2: 1})
        for rule in (QUAD, RuleParams(2, 1.5), RuleParams(3, 2)):
            assert poisson_empirical_score(0.0, table, rule) == 0.0

    def test_quadratic_reduction(self):
        """At a = m = 2 the objective collapses to n theta^2 / 2 - t theta."""
        table = FrequencyTable({0: 1, 1: 2, 2: 1})
        assert poisson_empirical_score(1.0, table, QUAD) == pytest.approx(-2.0, rel=1e-12)
        rng = np.random.default_rng(31)
        for _ in range(40):
            xs = rng.integers(0, 12, size=rng.integers(1, 25)).tolist()
            t = FrequencyTable.from_observations(xs)
            theta = float(rng.uniform(0, 8))
            expected = t.n * theta**2 / 2 - t.t * theta
            assert poisson_empirical_score(theta, t, QUAD) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_single_zero_count(self):
        assert poisson_empirical_score(2.0, FrequencyTable({0: 1}), QUAD) == pytest.approx(2.0, rel=1e-12)

    def test_zero_theta_infinite_for_m_below_one_with_positive_counts(self):
        table = FrequencyTable({0: 1, 2: 1})
        assert poisson_empirical_score(0.0, table, RuleParams(1, 0.5)) == math.inf

    def test_zero_theta_limit_without_powers(self):
        """(x+1)^a overflows at a = 400, but the theta = 0 limit needs no power."""
        table = FrequencyTable({0: 3, 5: 2, 1000: 1})
        assert poisson_empirical_score(0.0, table, RuleParams(400, 2)) == 0.0
        assert poisson_empirical_score(0.0, table, RuleParams(400, 0.5)) == math.inf
        assert poisson_empirical_score(0.0, FrequencyTable({0: 3}), RuleParams(400, 0.5)) == 0.0

    def test_invalid_arguments(self):
        table = FrequencyTable({0: 1})
        with pytest.raises(ValueError):
            poisson_empirical_score(-0.5, table, QUAD)
        with pytest.raises(ValueError):
            poisson_empirical_score(1.0, FrequencyTable({}), QUAD)

    def test_non_number_theta_is_type_error(self):
        table = FrequencyTable({0: 1, 2: 1})
        for theta in (True, "1", None):
            with pytest.raises(TypeError, match=r"^theta must be a number"):
                poisson_empirical_score(theta, table, QUAD)
        assert poisson_empirical_score(np.float64(1.5), table, QUAD) == poisson_empirical_score(1.5, table, QUAD)


class TestFitQuadratic:
    def test_sample_mean_example(self):
        result = fit_minimum_score(FrequencyTable({0: 1, 1: 2, 2: 1}), QUAD)
        assert result.theta_hat == pytest.approx(1.0, abs=1e-12)
        assert result.method == "closed-form"
        assert result.iterations == 0

    def test_all_zero_boundary(self):
        result = fit_minimum_score(FrequencyTable({0: 5}), QUAD)
        assert result.theta_hat == 0.0

    def test_closed_form_equals_sample_mean(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            xs = rng.integers(0, 25, size=rng.integers(1, 50)).tolist()
            table = FrequencyTable.from_observations(xs)
            result = fit_minimum_score(table, QUAD)
            assert result.theta_hat == pytest.approx(table.t / table.n, rel=1e-12, abs=1e-12)

    def test_achieved_score_is_objective_at_theta_hat(self):
        table = FrequencyTable({0: 2, 1: 3, 4: 1})
        result = fit_minimum_score(table, QUAD)
        assert result.achieved_score == poisson_empirical_score(result.theta_hat, table, QUAD)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            fit_minimum_score(FrequencyTable({}), QUAD)


class TestFitGeneralRule:
    def test_matches_grid_oracle(self):
        """For a = 2, m = 1.5 the fitted value sits within 1e-4 of a
        brute-force argmin over a 1e-4-step grid on [0, 5]."""
        table = FrequencyTable({0: 1, 1: 2, 2: 1})
        rule = RuleParams(2, 1.5)
        result = fit_minimum_score(table, rule)
        assert result.method == "closed-form"
        grid = np.arange(0.0, 5.0 + 1e-9, 1e-4)
        values = [poisson_empirical_score(th, table, rule) for th in grid]
        oracle = float(grid[int(np.argmin(values))])
        assert abs(result.theta_hat - oracle) <= 1e-4

    @pytest.mark.parametrize("rule", [RuleParams(2, 1.5), RuleParams(3, 2), RuleParams(1, 0.5)],
                             ids=lambda r: f"a{r.a:g}-m{r.m:g}")
    def test_never_beaten_by_grid(self, rule):
        """The fit scores no worse than any point of a 1e-3 grid."""
        rng = np.random.default_rng(47)
        for _ in range(3):
            xs = rng.integers(0, 9, size=rng.integers(3, 25)).tolist()
            table = FrequencyTable.from_observations(xs)
            result = fit_minimum_score(table, rule)
            upper = max(10.0 * table.t / table.n, 1.0)
            grid = np.arange(0.0, upper + 1e-9, 1e-3)
            # Every grid point but theta = 0 (scored below) in one array, theta down the rows.
            ys, fs = np.array(list(table.items()), dtype=np.float64).T
            theta = grid[1:, None]
            scores = point_scores(ys, theta / (ys + 1.0), theta / np.maximum(ys, 1.0), rule) @ fs
            assert np.isfinite(scores).all()
            for i in (0, len(scores) // 2, len(scores) - 1):
                assert scores[i] == pytest.approx(
                    poisson_empirical_score(grid[i + 1], table, rule), rel=1e-12, abs=1e-12)
            best_on_grid = min(poisson_empirical_score(0.0, table, rule), float(scores.min()))
            assert result.achieved_score <= best_on_grid + 1e-9 * max(abs(best_on_grid), 1.0)

    def test_all_zero_boundary_exact(self):
        result = fit_minimum_score(FrequencyTable({0: 4}), RuleParams(1, 0.5))
        assert result.theta_hat == 0.0
        assert result.method == "closed-form"

    def test_skewed_sample_minimiser_not_cut_off(self):
        """The minimiser lies far beyond ten times the sample mean (100)."""
        table = FrequencyTable({0: 99, 1000: 1})
        rule = RuleParams(4, 2)
        result = fit_minimum_score(table, rule)
        # c = 2: A = 99 + 1001^2, B = 1000^3.
        assert result.theta_hat == pytest.approx(1e9 / 1002100, rel=1e-14)
        assert result.achieved_score < poisson_empirical_score(100.0, table, rule)
        assert result.achieved_score == pytest.approx(-4.99e11, rel=1e-2)

    @pytest.mark.parametrize("rule", [RuleParams(1, 1.5), RuleParams(2, 3), RuleParams(0, 0.5),
                                      RuleParams(3, 0.2), RuleParams(-1, 4), RuleParams(4, 2)],
                             ids=lambda r: f"a{r.a:g}-m{r.m:g}")
    def test_score_derivative_vanishes(self, rule):
        """The 40-digit derivative of the empirical score at theta_hat is zero
        to 1e-12 of the magnitude of its two terms, and theta_hat is B/A to
        1e-12 relative."""
        table = wide_table(400)
        theta = fit_minimum_score(table, rule).theta_hat
        with mpmath.workdps(40):
            a, m, th = mpmath.mpf(rule.a), mpmath.mpf(rule.m), mpmath.mpf(theta)
            # d/dtheta of (y+1)^a (theta/(y+1))^m / m and of y^a (theta/y)^(m-1) / (m-1)
            first = mpmath.fsum(f * (y + 1) ** a * (th / (y + 1)) ** m / th
                                for y, f in table.items())
            second = mpmath.fsum(f * mpmath.mpf(y) ** a * (th / y) ** (m - 1) / th
                                 for y, f in table.items() if y)
            assert abs(first - second) <= 1e-12 * (abs(first) + abs(second))
            reference = mp_b_over_a(table, rule.a - rule.m)
            assert abs(theta - reference) <= 1e-12 * reference

    def test_equal_a_minus_m_gives_equal_theta(self):
        table = wide_table(300)
        shifted = {fit_minimum_score(table, RuleParams(a, m)).theta_hat
                   for a, m in [(3, 2), (2.5, 1.5), (1.5, 0.5), (4.25, 3.25)]}
        assert len(shifted) == 1
        for a in (0.5, 2, 3, 7.5):
            assert fit_minimum_score(table, RuleParams(a, a)).theta_hat == table.t / table.n

    def test_extreme_exponent_does_not_overflow(self):
        """At c = -303, (y+1)^c and y^(c+1) underflow to 0 for every y here."""
        table = FrequencyTable({1000: 2, 2000: 1, 5000: 3})
        result = fit_minimum_score(table, RuleParams(-300, 3))
        assert math.isfinite(result.theta_hat) and math.isfinite(result.achieved_score)
        reference = mp_b_over_a(table, -303)
        assert abs(result.theta_hat - reference) <= 1e-12 * reference

    def test_minimiser_outside_float_range(self):
        """B/A = 2^2000 at c = -2000 overflows; B/A = 1 / (1 + 2^1100) at
        c = 1100 underflows to 0, where the score would be +inf for m < 1."""
        table = FrequencyTable({1: 1})
        rule = RuleParams(-1998, 2)
        with pytest.raises(ScoreDomainError, match="outside the float range"):
            fit_minimum_score(table, rule)
        with pytest.raises(ScoreDomainError, match="outside the float range"):
            fit_minimum_score(FrequencyTable({0: 1, 1: 1}), RuleParams(1100.5, 0.5))

    def test_one_objective_evaluation(self, monkeypatch):
        calls = []

        def counting(theta, freq, rule):
            calls.append(theta)
            return poisson_empirical_score(theta, freq, rule)

        monkeypatch.setattr(estimation, "poisson_empirical_score", counting)
        result = fit_minimum_score(wide_table(200), RuleParams(1, 1.5))
        assert calls == [result.theta_hat]
        assert (result.method, result.iterations) == ("closed-form", 0)
