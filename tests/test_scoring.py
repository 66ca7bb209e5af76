"""Core scoring-rule tests: hand-computed values, algebraic identities,
homogeneity, concavity and the propriety grid check."""

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from preqscore.scoring import point_score, point_scores

RULE_GRID = [RuleParams(2, 2), RuleParams(2, 1.5), RuleParams(3, 2), RuleParams(1, 0.5)]

QUAD = RuleParams()  # a = m = 2


# Random rules, weight vectors and samples for the property tests.  Weights
# stay within 1e-3..1e3 and exponents within a few units, so every score is
# finite; m keeps clear of 1, where the rule is undefined.
rules = st.builds(
    RuleParams,
    a=st.floats(-3.0, 3.0),
    m=st.floats(0.1, 4.0).filter(lambda m: abs(m - 1.0) > 1e-3),
)
weight_vectors = st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=12)


def term_magnitude(x, ratio, rule):
    """|first| + |second| of S(x): the scale rounding errors are relative to,
    since the two terms may cancel."""
    first = (x + 1.0) ** rule.a * ratio(x) ** rule.m / rule.m
    second = x**rule.a * ratio(x - 1) ** (rule.m - 1.0) / (rule.m - 1.0) if x else 0.0
    return abs(first) + abs(second)


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

    def test_exponents_stored_as_floats(self):
        rule = RuleParams(a=np.int64(2), m=np.float32(1.5))
        assert (rule.a, rule.m) == (2.0, 1.5) and {type(rule.a), type(rule.m)} == {float}
        assert repr(RuleParams(1, 3)) == "RuleParams(a=1.0, m=3.0)"

    @pytest.mark.parametrize("field, fields", [("a", dict(a=True, m=2.0)), ("m", dict(a=2.0, m=False)),
                                               ("a", dict(a=np.True_, m=2.0)), ("m", dict(a=2.0, m="2"))])
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

    @pytest.mark.parametrize("generator", [generator_value, generator_deriv])
    def test_non_finite_or_non_number_argument_rejected(self, generator):
        for v in (math.nan, math.inf):
            with pytest.raises(ValueError, match=r"^v must be finite"):
                generator(1, v, QUAD)
        for v in (True, "0.5"):
            with pytest.raises(TypeError, match=r"^v must be a number"):
                generator(1, v, QUAD)
        assert generator(np.int64(1), np.float64(0.5), QUAD) == generator(1, 0.5, QUAD)

    @pytest.mark.parametrize("rule", RULE_GRID, ids=lambda r: f"a{r.a:g}-m{r.m:g}")
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


def ordered_bits(v):
    """The float's bits as an integer that increases with the float, so the
    difference of two values counts the ulps between them."""
    bits = struct.unpack("<q", struct.pack("<d", v))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


class TestScalarPointScore:
    """point_score, on Python floats, is point_scores, on arrays, for one x."""

    XS = [0, 1, 2, 3, 7, 10, 99, 1000, 12345, 10**5, 10**6]
    RATIOS = [0.0, 5e-324, 1e-10, 0.37, 1.0, 2.5, 1e10, 1.7e308]

    @pytest.mark.parametrize("a, m", [
        (2, 2), (1, 1.5), (0, 0.5), (-1e-3, 0.5), (-3, 0.3), (1, 0.999999), (5, 5.5), (-50, 3),
        (300, 2), (2, 1e-300), (0.5, 1.7e308), (1.7e308, 2), (-1.7e308, 2), (1.7e308, 0.5),
        (-1.7e308, 0.5),
    ])
    def test_agrees_with_the_array_formula(self, a, m):
        """Non-finite values agree (+inf, -inf or nan), finite ones within 4 ulps."""
        rule = RuleParams(a, m)
        x, up, down = (np.array(column, dtype=np.float64)
                       for column in zip(*itertools.product(self.XS, self.RATIOS, self.RATIOS)))
        for args, expected in zip(zip(x.tolist(), up.tolist(), down.tolist()),
                                  point_scores(x, up, down, rule).tolist()):
            got = point_score(*args, rule)
            if math.isfinite(expected):
                assert math.isfinite(got) and abs(ordered_bits(got) - ordered_bits(expected)) <= 4, args
            else:
                assert got == expected or math.isnan(got) and math.isnan(expected), args


class TestFrequencyTable:
    def test_from_observations(self):
        table = FrequencyTable.from_observations([2, 0, 1, 1, 2, 5])
        assert dict(table.items()) == {0: 1, 1: 2, 2: 2, 5: 1}
        assert table.n == 6
        assert table.t == 11
        big = r"^observation must be below 2\*\*63, got 9223372036854775808$"
        with pytest.raises(ValueError, match=big):
            FrequencyTable.from_observations([1, 2**63])

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

    @pytest.mark.parametrize("counts, message", [
        ({5: 1, 2**63: 1}, f"value must be below 2\\*\\*63, got {2**63}"),
        ({10**400: 1}, f"value must be below 2\\*\\*63, got {10**400}"),
        ({10**400: 0}, f"value must be below 2\\*\\*63, got {10**400}"),
        ({5: 10**400}, f"frequency of 5 must be below 2\\*\\*63, got {10**400}"),
    ], ids=["value-2**63", "value-400-digits", "value-of-frequency-0", "frequency-400-digits"])
    def test_entries_beyond_int64_rejected(self, counts, message):
        """Every value and frequency converts to a float for fitting."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            FrequencyTable(counts)
        table = FrequencyTable({2**63 - 1: 2**63 - 1})
        assert (table.n, table.t) == (2**63 - 1, (2**63 - 1) ** 2)

    def test_immutable(self):
        table = FrequencyTable({0: 1})
        with pytest.raises(AttributeError):
            table.n = 5
        with pytest.raises(AttributeError):
            table.foo = 1
        for name in ("n", "t", "_entries"):
            with pytest.raises(AttributeError):
                delattr(table, name)
        assert (table.n, table.t, list(table.items())) == (1, 0, [(0, 1)])

    def test_numpy_integers_accepted_and_stored_as_python_ints(self):
        from_array = FrequencyTable.from_observations(np.array([0, 1, 2, 2]))
        from_mapping = FrequencyTable({np.int64(0): np.uint8(1), np.int32(1): 1, 2: np.int64(2)})
        assert from_array == from_mapping == FrequencyTable({0: 1, 1: 1, 2: 2})
        for table in (from_array, from_mapping):
            assert {type(v) for pair in table.items() for v in pair} == {int}
            assert type(table.n) is int and type(table.t) is int

    @pytest.mark.parametrize("counts", [{1: 2.0}, {1: True}, {1: "2"}, {np.float64(1): 2}])
    def test_non_integer_entry_is_type_error(self, counts):
        with pytest.raises(TypeError, match="must be an integer"):
            FrequencyTable(counts)

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

    @pytest.mark.parametrize("rule", RULE_GRID, ids=lambda r: f"a{r.a:g}-m{r.m:g}")
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

    @settings(max_examples=300, deadline=None)
    @given(weights=weight_vectors, rule=rules, data=st.data())
    def test_regrouping_identity(self, weights, rule, data):
        """Σ_y f_y S(y) over the table equals Σ_i S(x_i) over the sample it
        summarises, to 1e-12 of the summed term magnitudes."""
        xs = data.draw(st.lists(st.integers(0, len(weights) - 1), min_size=1, max_size=60), label="xs")
        ratio = ratio_from_weights(weights)
        total = empirical_total_score(FrequencyTable.from_observations(xs), ratio, rule)
        per_point = math.fsum(score_point(x, ratio, rule) for x in xs)
        scale = math.fsum(term_magnitude(x, ratio, rule) for x in xs)
        assert abs(total - per_point) <= 1e-12 * scale


class TestHomogeneity:
    """Scores depend on unnormalised weights only through neighbour ratios."""

    @settings(max_examples=300, deadline=None)
    @given(weights=weight_vectors, c=st.floats(1e-6, 1e6), rule=rules, data=st.data())
    def test_rescaled_weights_score_alike(self, weights, c, rule, data):
        """S(x) under c·w equals S(x) under w to 1e-12 of its term magnitude."""
        x = data.draw(st.integers(0, len(weights) - 1), label="x")
        ratio = ratio_from_weights(weights)
        got = score_point(x, ratio_from_weights([c * w for w in weights]), rule)
        expected = score_point(x, ratio, rule)
        assert abs(got - expected) <= 1e-12 * term_magnitude(x, ratio, rule)

    @pytest.mark.parametrize("rule", RULE_GRID, ids=lambda r: f"a{r.a:g}-m{r.m:g}")
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

    def test_non_number_or_non_finite_weight_rejected(self):
        for weights in ([True, 2], [1.0, "2"]):
            with pytest.raises(TypeError, match=r"^weight at \d must be a number"):
                ratio_from_weights(weights)
        with pytest.raises(ValueError, match=r"^weight at 1 must be finite"):
            ratio_from_weights([1.0, math.inf])
        assert ratio_from_weights(np.array([1, 2, 4]))(0) == 2.0

    def test_zero_weight_then_mass_rejected_when_scored(self):
        ratio = ratio_from_weights([1.0, 0.0, 2.0])
        with pytest.raises(ScoreDomainError):
            score_point(2, ratio, QUAD)


class TestPropriety:
    @settings(max_examples=300, deadline=None)
    @given(freqs=st.lists(st.integers(1, 50), min_size=1, max_size=12), rule=rules, data=st.data())
    def test_sample_frequencies_minimise_the_empirical_score(self, freqs, rule, data):
        """Σ_y f_y S_q(y) over a table f on {0..K} is smallest at q = f.

        Per y, the terms in r(y) add to (y+1)^a [f_y r^m / m - f_(y+1) r^(m-1) / (m-1)],
        minimised at r = f_(y+1) / f_y.  Checked to 1e-12 of the summed term magnitudes."""
        q = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=len(freqs), max_size=len(freqs)), label="q")
        table = FrequencyTable(dict(enumerate(freqs)))
        own, other = ratio_from_weights(freqs), ratio_from_weights(q)
        scale = math.fsum(f * (term_magnitude(y, own, rule) + term_magnitude(y, other, rule))
                          for y, f in table.items())
        best = empirical_total_score(table, own, rule)
        assert empirical_total_score(table, other, rule) >= best - 1e-12 * scale

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
