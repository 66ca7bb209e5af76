"""Score one observation stream under a bank of conjugate models.

The bank maps each model's identifier to its conjugate state, and every
model is scored under the one rule of the run, since scores are only
comparable under a common rule.  The engine knows a model only as a state
that conjugate.block_increments can score.  It walks the stream in
fixed-size blocks: the kernel scores a whole block for each model from
the running total and count carried in from the blocks before it, so the
engine's working memory beyond the returned trace is bounded by the
block size.  It records per-step increments and cumulative scores
(summed in step order).  A non-finite value stays non-finite in a running
sum, so one check of the last cumulative row finds every failure, of an
increment or of the sum.  The model selected after a step is the argmin
of the cumulative scores there, computed on request by select_model.
Smaller cumulative score is better; ties are reported explicitly rather
than broken arbitrarily.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from . import _np as np
from .conjugate import ConjugateState, _not_finite_reason, block_increments
# Unused here, but perfbench/tracer.py looks the per-step functions up on this module.
from .conjugate import prequential_step as negbin_prequential_step  # noqa: F401
from .conjugate import prequential_step as poisson_prequential_step  # noqa: F401
from .scoring import RuleParams, ScoreDomainError, _counts, _integer

__all__ = ["TIE", "PrequentialTrace", "run_prequential", "select_model"]

# Reported when the minimum cumulative score is attained by more than one
# model with exact floating-point equality.  Not a valid model identifier.
TIE = "tie"

# Observations scored per kernel call.  Bounds the engine's temporaries,
# which would otherwise grow with the stream length.
_BLOCK = 4096


@dataclass(frozen=True)
class PrequentialTrace:
    """Per-step increments and cumulative scores for a bank of models.

    Column j belongs to identifiers[j], and cumulative[i, j] is the sum of
    increments[:i+1, j] in step order.  Arrays are read-only.
    """

    identifiers: tuple[str, ...]
    increments: np.ndarray
    cumulative: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]

    def column(self, identifier: str) -> int:
        try:
            return self.identifiers.index(identifier)
        except ValueError:
            raise KeyError(f"no model {identifier!r} in trace {self.identifiers}") from None

    def final_score(self, identifier: str) -> float:
        return float(self.cumulative[-1, self.column(identifier)])

    def difference(self, wrong: str, right: str) -> np.ndarray:
        """Cumulative score excess of `wrong` over `right` at every step.

        Positive values favour `right`.
        """
        return self.cumulative[:, self.column(wrong)] - self.cumulative[:, self.column(right)]


def run_prequential(
    observations, states: Mapping[str, ConjugateState], rule: RuleParams = RuleParams()
) -> PrequentialTrace:
    """Score a stream of counts under every model in the bank, all under one rule.

    Observations are Python integers or an integer numpy array.  states
    maps each model's identifier to its conjugate state; the trace's
    columns follow the mapping's order.  The whole stream is scored
    first; then a non-finite increment or a cumulative score beyond the
    float range aborts the run at its earliest step (the first model in
    the bank on a shared step), naming the model; no partial trace is
    returned.
    """
    if not isinstance(observations, (Sequence, np.ndarray)):
        observations = list(observations)
    n_steps = len(observations)
    if not n_steps:
        raise ValueError("observations must be non-empty")
    if not states:
        raise ValueError("bank must contain at least one evaluator")
    identifiers = tuple(states)
    for identifier in identifiers:
        if not identifier or identifier == TIE:
            raise ValueError(f"invalid model identifier {identifier!r}")
    bank = list(states.values())
    for state in bank:
        if not isinstance(state, ConjugateState):
            raise TypeError(f"unsupported evaluator state {type(state).__name__}")

    increments = np.empty((n_steps, len(bank)), dtype=np.float64)
    total = 0  # sum of the observations before the current block
    for start in range(0, n_steps, _BLOCK):
        xs = _counts(observations[start:start + _BLOCK], "observation")
        for j, state in enumerate(bank):
            increments[start:start + xs.size, j] = block_increments(
                state, xs, state.t + total, state.n + start, rule
            )
        total += int(xs.sum())

    with np.errstate(over="ignore", invalid="ignore"):
        cumulative = np.cumsum(increments, axis=0)
    # A running sum that takes a non-finite value keeps one, so the last row shows every failure;
    # the first non-finite cell in row-major order is the earliest, then first in the bank.
    if not np.isfinite(cumulative[-1]).all():
        row, j = divmod(int(np.argmax(~np.isfinite(cumulative))), len(bank))
        increment = float(increments[row, j])
        reason = ("cumulative score is not finite" if math.isfinite(increment)
                  else _not_finite_reason(increment))
        raise ScoreDomainError(
            f"model {identifiers[j]!r} failed at step {row} (x={observations[row]}): {reason}"
        )
    increments.flags.writeable = False
    cumulative.flags.writeable = False
    return PrequentialTrace(identifiers, increments, cumulative)


def select_model(trace: PrequentialTrace, at_step: int) -> str:
    """Identifier with the smallest cumulative score after at_step, or "tie"."""
    at_step = _integer(at_step, "at_step")
    if not 0 <= at_step < trace.n_steps:
        raise IndexError(f"step {at_step} outside trace of length {trace.n_steps}")
    row = trace.cumulative[at_step]
    winners = np.flatnonzero(row == row.min())
    return trace.identifiers[winners[0]] if winners.size == 1 else TIE
