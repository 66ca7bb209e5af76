"""Prequential engine tests: traces, selection, streaming and error context."""

import numpy as np
import pytest

from preqscore import (
    TIE,
    ModelEvaluator,
    NegBinBetaState,
    PoissonGammaState,
    PriorSpec,
    RuleParams,
    ScoreDomainError,
    negbin_prequential_step,
    poisson_prequential_step,
    run_prequential,
    select_model,
)
from preqscore.engine import _BLOCK

QUAD = RuleParams()
IMPROPER = PriorSpec.usual_improper()


def poisson_evaluator(identifier="poisson", prior=IMPROPER, k=1.0, rule=QUAD):
    return ModelEvaluator(identifier, PoissonGammaState(k, prior), rule)


def negbin_evaluator(identifier="negbin", prior=IMPROPER, s=81.0, rule=QUAD):
    return ModelEvaluator(identifier, NegBinBetaState(s, prior), rule)


class TestRunPrequential:
    def test_poisson_improper_example(self):
        trace = run_prequential([1, 0], [poisson_evaluator()])
        assert trace.cumulative[:, 0] == pytest.approx([0.5, 0.625], rel=1e-12)
        assert trace.increments[:, 0] == pytest.approx([0.5, 0.125], rel=1e-12)

    def test_negbin_improper_zero(self):
        trace = run_prequential([0], [negbin_evaluator()])
        assert trace.cumulative[:, 0] == pytest.approx([0.0], abs=0.0)

    def test_identical_evaluators_tie_everywhere(self):
        bank = [poisson_evaluator("m1"), poisson_evaluator("m2")]
        trace = run_prequential([3, 1, 0, 2, 4], bank)
        assert np.array_equal(trace.difference("m1", "m2"), np.zeros(5))
        assert trace.selected == (TIE,) * 5

    def test_cumulative_is_running_sum_in_step_order(self):
        bank = [poisson_evaluator(), negbin_evaluator()]
        obs = [3, 1, 0, 2, 7, 4, 0, 1]
        trace = run_prequential(obs, bank)
        running = np.zeros(2)
        for i in range(len(obs)):
            running = running + trace.increments[i]
            assert np.array_equal(trace.cumulative[i], running)

    def test_prefix_property(self):
        bank = [poisson_evaluator(), negbin_evaluator()]
        obs = [3, 1, 0, 2, 7, 4]
        full = run_prequential(obs, bank)
        for cut in (1, 3, 5):
            prefix = run_prequential(obs[:cut], [poisson_evaluator(), negbin_evaluator()])
            assert np.array_equal(prefix.increments, full.increments[:cut])
            assert np.array_equal(prefix.cumulative, full.cumulative[:cut])
            assert prefix.selected == full.selected[:cut]

    def test_difference_orientation(self):
        bank = [poisson_evaluator(), negbin_evaluator()]
        trace = run_prequential([3, 1, 0, 2], bank)
        diff = trace.difference("negbin", "poisson")
        assert diff == pytest.approx(trace.cumulative[:, 1] - trace.cumulative[:, 0])

    def test_error_context_attached(self):
        bank = [poisson_evaluator(rule=RuleParams(1, 0.5))]
        with pytest.raises(ScoreDomainError, match=r"'poisson'.*step 0"):
            run_prequential([1, 2], bank)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_prequential([], [poisson_evaluator()])
        with pytest.raises(ValueError):
            run_prequential([1], [])
        with pytest.raises(ValueError):
            run_prequential([1], [poisson_evaluator("a"), negbin_evaluator("a")])
        with pytest.raises(ValueError):
            run_prequential([1], [poisson_evaluator(), negbin_evaluator(rule=RuleParams(3, 2))])
        with pytest.raises(ValueError):
            run_prequential([1, -2], [poisson_evaluator()])

    def test_trace_arrays_read_only(self):
        trace = run_prequential([1, 0], [poisson_evaluator()])
        with pytest.raises(ValueError):
            trace.cumulative[0, 0] = 99.0

    def test_identifier_validation(self):
        with pytest.raises(ValueError):
            ModelEvaluator(TIE, PoissonGammaState(1.0, IMPROPER), QUAD)
        with pytest.raises(ValueError):
            ModelEvaluator("", PoissonGammaState(1.0, IMPROPER), QUAD)


def replay(observations, bank):
    """Reference: step every evaluator through the stream one row at a time.

    Returns the increments and the selections, or the (identifier, step)
    of the first failure in step-then-bank order.
    """
    steps = {PoissonGammaState: poisson_prequential_step, NegBinBetaState: negbin_prequential_step}
    states = [e.state for e in bank]
    rows, selected, running = [], [], np.zeros(len(bank))
    for i, x in enumerate(observations):
        row = []
        for j, evaluator in enumerate(bank):
            try:
                inc, states[j] = steps[type(states[j])](states[j], x, evaluator.rule)
            except ScoreDomainError:
                return evaluator.identifier, i
            row.append(inc)
        rows.append(row)
        running = running + np.array(row)
        best = running.min()
        hits = [e.identifier for e, value in zip(bank, running) if value == best]
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
        bank = [
            poisson_evaluator(prior=poisson_prior, k=1.3, rule=rule),
            negbin_evaluator(prior=negbin_prior, rule=rule),
        ]
        trace = run_prequential(obs, bank)
        increments, selected = replay(obs, bank)
        assert np.array_equal(trace.increments, increments)
        assert np.array_equal(trace.cumulative, np.cumsum(increments, axis=0))
        assert trace.selected == selected

    def test_history_carried_from_initial_state(self):
        obs = [3, 0, 5] * (_BLOCK // 3 + 10)
        bank = [
            ModelEvaluator("poisson", PoissonGammaState(2.0, PriorSpec.proper(1.0, 1.0), t=40, n=7), QUAD),
            ModelEvaluator("negbin", NegBinBetaState(5.0, IMPROPER, t=9, n=2), QUAD),
        ]
        assert np.array_equal(run_prequential(obs, bank).increments, replay(obs, bank)[0])

    def test_integer_array_input(self):
        obs = np.random.default_rng(6).poisson(10, self.LENGTH)
        bank = [poisson_evaluator(), negbin_evaluator()]
        from_array = run_prequential(obs, bank)
        from_list = run_prequential(obs.tolist(), bank)
        assert np.array_equal(from_array.increments, from_list.increments)
        assert from_array.selected == from_list.selected
        obs[-1] = -1
        with pytest.raises(ValueError):
            run_prequential(obs, bank)

    def test_late_failure_reports_earliest_step(self):
        """With m = 100 the negbin powers overflow once the running total
        reaches 10, the Poisson ones only near 1200: both fail in the last
        block, and the earlier failure, of the second model, is reported."""
        obs = [0] * (2 * _BLOCK + 10) + [5] * 300
        rule = RuleParams(2, 100)
        bank = [poisson_evaluator(rule=rule), negbin_evaluator(rule=rule)]
        identifier, step = replay(obs, bank)
        assert (identifier, step) == ("negbin", 2 * _BLOCK + 12)
        with pytest.raises(ScoreDomainError, match=rf"^model 'negbin' failed at step {step} \(x=5\): "):
            run_prequential(obs, bank)
        poisson_only = [poisson_evaluator(rule=rule)]
        identifier, step = replay(obs, poisson_only)
        assert identifier == "poisson" and step > 2 * _BLOCK + 12
        with pytest.raises(ScoreDomainError, match=rf"^model 'poisson' failed at step {step} "):
            run_prequential(obs, poisson_only)


class TestSelectModel:
    def _trace(self, obs, bank):
        return run_prequential(obs, bank)

    def test_strict_minimum(self):
        trace = run_prequential([9, 12, 8, 11, 10], [poisson_evaluator(), negbin_evaluator()])
        final = select_model(trace, trace.n_steps - 1)
        scores = {m: trace.final_score(m) for m in trace.identifiers}
        assert final == min(scores, key=scores.get)

    def test_tie(self):
        trace = run_prequential([2, 1], [poisson_evaluator("m1"), poisson_evaluator("m2")])
        assert select_model(trace, 1) == TIE

    def test_single_model_bank(self):
        trace = run_prequential([2, 1], [poisson_evaluator()])
        assert select_model(trace, 0) == "poisson"

    def test_out_of_range(self):
        trace = run_prequential([2, 1], [poisson_evaluator()])
        with pytest.raises(IndexError):
            select_model(trace, 2)
        with pytest.raises(IndexError):
            select_model(trace, -1)

    def test_unknown_identifier_lookup(self):
        trace = run_prequential([2, 1], [poisson_evaluator()])
        with pytest.raises(KeyError):
            trace.difference("poisson", "negbin")
