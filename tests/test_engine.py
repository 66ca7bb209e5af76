"""Prequential engine tests: traces, selection, streaming and error context."""

import math
import warnings

import numpy as np
import pytest

from preqscore import (
    TIE,
    NegBinBetaState,
    PoissonGammaState,
    PriorSpec,
    RuleParams,
    ScoreDomainError,
    prequential_blocks,
    prequential_step,
    run_prequential,
    select_model,
)
from preqscore.conjugate import block_increments
from preqscore.engine import _BLOCK

QUAD = RuleParams()
IMPROPER = PriorSpec.usual_improper()


def poisson_state(prior=IMPROPER, k=1.0):
    return PoissonGammaState(k, prior)


def negbin_state(prior=IMPROPER, s=81.0):
    return NegBinBetaState(s, prior)


def both(poisson_prior=IMPROPER, negbin_prior=IMPROPER, k=1.0, s=81.0):
    """The usual two-model bank."""
    return {"poisson": poisson_state(poisson_prior, k), "negbin": negbin_state(negbin_prior, s)}


def selections(trace):
    """The model selected after every step."""
    return tuple(select_model(trace, i) for i in range(trace.n_steps))


class TestRunPrequential:
    def test_poisson_improper_example(self):
        trace = run_prequential([1, 0], {"poisson": poisson_state()})
        assert trace.cumulative[:, 0] == pytest.approx([0.5, 0.625], rel=1e-12)
        assert trace.increments[:, 0] == pytest.approx([0.5, 0.125], rel=1e-12)

    def test_negbin_improper_zero(self):
        trace = run_prequential([0], {"negbin": negbin_state()})
        assert trace.cumulative[:, 0] == pytest.approx([0.0], abs=0.0)

    def test_identical_evaluators_tie_everywhere(self):
        bank = {"m1": poisson_state(), "m2": poisson_state()}
        trace = run_prequential([3, 1, 0, 2, 4], bank)
        assert np.array_equal(trace.difference("m1", "m2"), np.zeros(5))
        assert selections(trace) == (TIE,) * 5

    def test_cumulative_is_running_sum_in_step_order(self):
        bank = both()
        obs = [3, 1, 0, 2, 7, 4, 0, 1]
        trace = run_prequential(obs, bank)
        running = np.zeros(2)
        for i in range(len(obs)):
            running = running + trace.increments[i]
            assert np.array_equal(trace.cumulative[i], running)

    def test_prefix_property(self):
        bank = both()
        obs = [3, 1, 0, 2, 7, 4]
        full = run_prequential(obs, bank)
        for cut in (1, 3, 5):
            prefix = run_prequential(obs[:cut], both())
            assert np.array_equal(prefix.increments, full.increments[:cut])
            assert np.array_equal(prefix.cumulative, full.cumulative[:cut])
            assert selections(prefix) == selections(full)[:cut]

    def test_difference_orientation(self):
        bank = both()
        trace = run_prequential([3, 1, 0, 2], bank)
        diff = trace.difference("negbin", "poisson")
        assert diff == pytest.approx(trace.cumulative[:, 1] - trace.cumulative[:, 0])

    def test_error_context_attached(self):
        bank = {"poisson": poisson_state()}
        with pytest.raises(ScoreDomainError, match=r"'poisson'.*step 0"):
            run_prequential([1, 2], bank, RuleParams(1, 0.5))

    def test_validation(self):
        with pytest.raises(ValueError):
            run_prequential([], {"poisson": poisson_state()})
        with pytest.raises(ValueError):
            run_prequential([1], {})
        with pytest.raises(ValueError):
            run_prequential([1, -2], {"poisson": poisson_state()})

    def test_trace_arrays_read_only(self):
        trace = run_prequential([1, 0], {"poisson": poisson_state()})
        with pytest.raises(ValueError):
            trace.cumulative[0, 0] = 99.0

    def test_non_state_in_bank_is_type_error(self):
        with pytest.raises(TypeError, match=r"^unsupported evaluator state str$"):
            run_prequential([1], {"poisson": poisson_state(), "other": "poisson"})

    def test_identifier_validation(self):
        with pytest.raises(ValueError):
            run_prequential([1], {TIE: PoissonGammaState(1.0, IMPROPER)}, QUAD)
        with pytest.raises(ValueError):
            run_prequential([1], {"": PoissonGammaState(1.0, IMPROPER)}, QUAD)

    def test_list_of_numpy_integers_scores_like_the_array(self):
        xs = np.array([1, 2, 3])
        from_array = run_prequential(xs, both())
        from_list = run_prequential(list(xs), both())
        assert np.array_equal(from_list.cumulative, from_array.cumulative)
        assert from_list.final_score("poisson") == pytest.approx(-3.375, rel=1e-12)
        # A generator is converted to one array first, and scores like the same counts in a list.
        counts = np.random.default_rng(3).negative_binomial(81, 0.9, 2 * _BLOCK + 5).tolist()
        from_list = list(prequential_blocks(counts, both()))
        from_generator = list(prequential_blocks((x for x in counts), both()))
        assert [start for start, *_ in from_generator] == [0, _BLOCK, 2 * _BLOCK]
        for got, expected in zip(from_generator, from_list, strict=True):
            assert got[0] == expected[0]
            for got_array, expected_array in zip(got[1:], expected[1:], strict=True):
                assert np.array_equal(got_array, expected_array)
        from_list = run_prequential(counts, both())
        from_generator = run_prequential((x for x in counts), both())
        assert np.array_equal(from_generator.increments, from_list.increments)
        assert np.array_equal(from_generator.cumulative, from_list.cumulative)

    @pytest.mark.parametrize("observations", [[1, True], [1, 2.0], [np.True_], np.array([True, False])])
    def test_non_integer_observation_is_type_error(self, observations):
        with pytest.raises(TypeError, match=r"^observation must be an integer"):
            run_prequential(observations, both())


@pytest.mark.parametrize("bad, dtype, message", [
    (-1, np.int64, "observation must be a non-negative integer, got -1"),
    (2**63, np.uint64, r"observation must be below 2\*\*63, got 9223372036854775808"),
], ids=["negative", "beyond-int64"])
def test_count_fault_has_one_text_for_list_and_array(bad, dtype, message):
    for observations in ([4, 1, bad, 2], np.array([4, 1, bad, 2], dtype=dtype)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_prequential(observations, both())


def replay(observations, bank, rule=QUAD):
    """Reference: step every model through the stream one row at a time.

    Returns the increments and the selections, or the (identifier, step)
    of the first failure in step-then-bank order.
    """
    identifiers, states = list(bank), list(bank.values())
    rows, selected, running = [], [], np.zeros(len(bank))
    for i, x in enumerate(observations):
        row = []
        for j, identifier in enumerate(identifiers):
            try:
                inc, states[j] = prequential_step(states[j], x, rule)
            except ScoreDomainError:
                return identifier, i
            row.append(inc)
        rows.append(row)
        running = running + np.array(row)
        best = running.min()
        hits = [identifier for identifier, value in zip(identifiers, running) if value == best]
        selected.append(hits[0] if len(hits) == 1 else TIE)
    return np.array(rows), tuple(selected)


class TestBlocks:
    """Streams longer than the engine's block size."""

    LENGTH = 2 * _BLOCK + 123

    @pytest.mark.parametrize("rule, poisson_prior, negbin_prior", [
        (QUAD, IMPROPER, IMPROPER),
        (RuleParams(2, 1.5), PriorSpec.jeffreys_poisson(), PriorSpec.jeffreys_negbin()),
        (RuleParams(1, 0.5), PriorSpec.proper(0.3, 2.5), PriorSpec.proper(0.3, 2.5)),
    ], ids=["quad-improper", "a2-m1.5-jeffreys", "a1-m0.5-proper"])
    def test_matches_step_replay_bit_for_bit(self, rule, poisson_prior, negbin_prior):
        obs = np.random.default_rng(5).negative_binomial(81, 0.9, self.LENGTH).tolist()
        bank = both(poisson_prior, negbin_prior, k=1.3)
        trace = run_prequential(obs, bank, rule)
        increments, selected = replay(obs, bank, rule)
        assert np.array_equal(trace.increments, increments)
        assert np.array_equal(trace.cumulative, np.cumsum(increments, axis=0))
        assert selections(trace) == selected

    def test_long_stream_total_matches_fsum(self):
        """After 10^5 steps of a NegBin(81, 0.1) stream (totals near 10^6),
        and after 10^6 steps (totals near 10^7), each model's last cumulative
        score equals math.fsum of its increments to 1e-12 of
        fsum(|increments|); the running float sum is off by about 8e-15 and
        2.4e-14 of that magnitude, respectively."""
        bank = both(PriorSpec.jeffreys_poisson(), PriorSpec.jeffreys_negbin())
        for steps in (100_000, 1_000_000):
            obs = np.random.default_rng(97).negative_binomial(81, 0.9, steps)
            trace = run_prequential(obs, bank)
            for j in range(len(bank)):
                column = trace.increments[:, j].tolist()
                exact = math.fsum(column)
                scale = math.fsum(abs(v) for v in column)
                assert abs(trace.cumulative[-1, j] - exact) <= 1e-12 * scale

    def test_history_carried_from_initial_state(self):
        obs = [3, 0, 5] * (_BLOCK // 3 + 10)
        bank = {
            "poisson": PoissonGammaState(2.0, PriorSpec.proper(1.0, 1.0), t=40, n=7),
            "negbin": NegBinBetaState(5.0, IMPROPER, t=9, n=2),
        }
        assert np.array_equal(run_prequential(obs, bank).increments, replay(obs, bank)[0])

    def test_integer_array_input(self):
        obs = np.random.default_rng(6).poisson(10, self.LENGTH)
        bank = both()
        from_array = run_prequential(obs, bank)
        from_list = run_prequential(obs.tolist(), bank)
        assert np.array_equal(from_array.increments, from_list.increments)
        assert selections(from_array) == selections(from_list)
        obs[-1] = -1
        with pytest.raises(ValueError):
            run_prequential(obs, bank)

    def test_late_failure_reports_earliest_step(self):
        """With a = 395.35 and m = 0.1, (x+1)^a r(x)^m / m at x = 5 passes the
        float range once r(5) exceeds about 1.4e-4.  After the zeros, r(5) is
        1.0e-4 under Poisson and 2.0e-4 under NegBin(s = 5) at the first five,
        and 2.0e-4 under Poisson at the second: both fail in the last block,
        and the earlier failure, of the second model, is reported."""
        obs = [0] * (2 * _BLOCK + 12) + [5] * 300
        rule = RuleParams(395.35, 0.1)
        bank = both(s=5.0)
        identifier, step = replay(obs, bank, rule)
        assert (identifier, step) == ("negbin", 2 * _BLOCK + 12)
        with pytest.raises(ScoreDomainError, match=rf"^model 'negbin' failed at step {step} \(x=5\): "):
            run_prequential(obs, bank, rule)
        poisson_only = {"poisson": poisson_state()}
        identifier, step = replay(obs, poisson_only, rule)
        assert identifier == "poisson" and step > 2 * _BLOCK + 12
        with pytest.raises(ScoreDomainError, match=rf"^model 'poisson' failed at step {step} "):
            run_prequential(obs, poisson_only, rule)

    def test_cumulative_overflow_reports_earliest_step(self):
        """At the first five each increment is about 1.6e308, finite; the
        second five takes both running totals past the float range at the
        same step, and the first model in the bank is named."""
        obs = [0] * 8000 + [5, 5, 0]
        rule = RuleParams(395.3, 0.1)
        for bank in ({"poisson": poisson_state(), "negbin": negbin_state()},
                     {"negbin": negbin_state(), "poisson": poisson_state()}):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ScoreDomainError, match=(
                        rf"^model '{next(iter(bank))}' failed at step 8001 \(x=5\): "
                        "cumulative score is not finite$")):
                    run_prequential(obs, bank, rule)
        assert np.isfinite(run_prequential(obs[:-2], {"poisson": poisson_state()}, rule).cumulative).all()

    def test_cumulative_overflow_before_later_non_finite_increment(self):
        """The running total leaves the float range at the second five, in
        the second block; the ten in the fourth block has an infinite
        increment of its own.  The earlier failure, of the sum, is reported."""
        obs = [0] * 8000 + [5, 5] + [0] * 5000 + [10]
        rule = RuleParams(395.3, 0.1)
        with pytest.raises(ScoreDomainError):
            prequential_step(PoissonGammaState(1.0, IMPROPER, t=10, n=13002), 10, rule)
        with pytest.raises(ScoreDomainError, match=(
                r"^model 'poisson' failed at step 8001 \(x=5\): cumulative score is not finite$")):
            run_prequential(obs, {"poisson": poisson_state()}, rule)


def whole_stream(observations, bank, rule=QUAD):
    """Reference: every increment of the stream in one array, then one
    cumulative sum over the whole column, as the engine computed its trace
    before it handed out blocks."""
    xs = np.array(observations, dtype=np.int64)
    increments = np.empty((xs.size, len(bank)))
    for start in range(0, xs.size, _BLOCK):
        block = xs[start:start + _BLOCK]
        total = int(xs[:start].sum())
        for j, state in enumerate(bank.values()):
            increments[start:start + block.size, j] = block_increments(
                state, block, state.t + total, state.n + start, rule)
    return increments, np.cumsum(increments, axis=0)


class TestPrequentialBlocks:
    """The block generator behind run_prequential."""

    @pytest.mark.parametrize("length", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 77])
    @pytest.mark.parametrize("rule, poisson_prior, negbin_prior", [
        (QUAD, PriorSpec.jeffreys_poisson(), PriorSpec.jeffreys_negbin()),
        (RuleParams(1, 0.5), PriorSpec.proper(0.3, 2.5), PriorSpec.proper(0.3, 2.5)),
    ], ids=["quad-jeffreys", "a1-m0.5-proper"])
    def test_blocks_equal_the_whole_stream_result(self, length, rule, poisson_prior, negbin_prior):
        obs = np.random.default_rng(length).negative_binomial(81, 0.9, length)
        bank = both(poisson_prior, negbin_prior, k=1.3)
        blocks = list(prequential_blocks(obs, bank, rule))
        assert [start for start, *_ in blocks] == list(range(0, length, _BLOCK))
        assert np.array_equal(np.concatenate([xs for _, xs, _, _ in blocks]), obs)
        increments, cumulative = whole_stream(obs, bank, rule)
        assert np.array_equal(np.concatenate([inc for _, _, inc, _ in blocks]), increments)
        assert np.array_equal(np.concatenate([cum for *_, cum in blocks]), cumulative)
        trace = run_prequential(obs, bank, rule)
        assert np.array_equal(trace.increments, increments)
        assert np.array_equal(trace.cumulative, cumulative)

    def test_faults_of_the_arguments_raise_before_iteration(self):
        with pytest.raises(ValueError, match="^observations must be non-empty$"):
            prequential_blocks([], both())
        with pytest.raises(ValueError, match="^observation must be a non-negative integer, got -1$"):
            prequential_blocks([1] * (2 * _BLOCK) + [-1], both())

    def test_late_failure_ends_the_iteration_at_its_block(self):
        """The blocks before the failing one are handed out, then the error
        run_prequential raises."""
        obs = [0] * (2 * _BLOCK + 12) + [5] * 300
        rule, bank = RuleParams(395.35, 0.1), both(s=5.0)
        with pytest.raises(ScoreDomainError) as whole:
            run_prequential(obs, bank, rule)
        starts = []
        with pytest.raises(ScoreDomainError) as blocked:
            for start, *_ in prequential_blocks(obs, bank, rule):
                starts.append(start)
        assert starts == [0, _BLOCK]
        assert str(blocked.value) == str(whole.value)

    @pytest.mark.parametrize("bad, message", [
        (2**63, r"observation must be below 2\*\*63, got 9223372036854775808"),
        (-1, "observation must be a non-negative integer, got -1"),
        (2**62, "running total or observation count beyond the int64 range"),
    ], ids=["beyond-int64", "negative", "total-beyond-int64"])
    def test_bad_count_after_a_scoring_failure_is_reported(self, bad, message):
        """The running sums leave the float range at step 8001, in block 1;
        a bad count, or one that takes the running total past the int64
        bound, in block 3 is still the error reported."""
        obs = [0] * 8000 + [5, 5] + [1] * 5000 + [bad]
        rule = RuleParams(395.3, 0.1)
        with pytest.raises(ScoreDomainError, match="failed at step 8001"):
            run_prequential(obs[:-1], both(), rule)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_prequential(obs, both(), rule)
        with pytest.raises(ValueError, match=f"^{message}$"):
            prequential_blocks(obs, both(), rule)


class TestSelectModel:
    def _trace(self, obs, bank):
        return run_prequential(obs, bank)

    def test_strict_minimum(self):
        trace = run_prequential([9, 12, 8, 11, 10], both())
        final = select_model(trace, trace.n_steps - 1)
        scores = {m: trace.final_score(m) for m in trace.identifiers}
        assert final == min(scores, key=scores.get)

    def test_tie(self):
        trace = run_prequential([2, 1], {"m1": poisson_state(), "m2": poisson_state()})
        assert select_model(trace, 1) == TIE

    def test_single_model_bank(self):
        trace = run_prequential([2, 1], {"poisson": poisson_state()})
        assert select_model(trace, 0) == "poisson"

    def test_out_of_range(self):
        trace = run_prequential([2, 1], {"poisson": poisson_state()})
        with pytest.raises(IndexError):
            select_model(trace, 2)
        with pytest.raises(IndexError):
            select_model(trace, -1)

    def test_numpy_integer_step(self):
        trace = run_prequential([9, 12, 8, 11, 10], both())
        for step in (np.int64(1), np.uint8(4)):
            assert select_model(trace, step) == select_model(trace, int(step))
        with pytest.raises(TypeError):
            select_model(trace, True)
        with pytest.raises(TypeError):
            select_model(trace, np.float64(1))

    def test_unknown_identifier_lookup(self):
        trace = run_prequential([2, 1], {"poisson": poisson_state()})
        with pytest.raises(KeyError):
            trace.difference("poisson", "negbin")
