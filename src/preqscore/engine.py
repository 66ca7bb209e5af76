"""Score one observation stream under a bank of conjugate models.

The bank maps each model's identifier to its conjugate state, and every
model is scored under the one rule of the run, since scores are only
comparable under a common rule.  The engine knows a model only as a state
that conjugate.block_increments can score.  prequential_blocks converts
and checks the stream once, as one int64 array, then walks it in
fixed-size blocks: the kernel scores a whole block for each model from
the running total and count carried in from the blocks before it, and the
block's cumulative scores continue the running sums (in step order) from
the last row before it.  Each block is handed to the caller as it is
scored, so beyond the counts themselves the engine's working memory is
bounded by the block size; run_prequential collects the blocks into one
trace.  A non-finite value stays non-finite in a running sum, so one
check of each block's last cumulative row finds every failure, of an
increment or of the sum.  The model selected after a step is the argmin
of the cumulative scores there, computed on request by select_model.
Smaller cumulative score is better; ties are reported explicitly rather
than broken arbitrarily.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, Sequence

from . import _np as np
from .conjugate import ConjugateState, _check_history, _not_finite_reason, block_increments
# Unused here, but perfbench/tracer.py looks the per-step functions up on this module.
from .conjugate import prequential_step as negbin_prequential_step  # noqa: F401
from .conjugate import prequential_step as poisson_prequential_step  # noqa: F401
from .scoring import RuleParams, ScoreDomainError, _Value, _counts, _integer

__all__ = ["TIE", "PrequentialTrace", "prequential_blocks", "run_prequential", "select_model"]

# Reported when the minimum cumulative score is attained by more than one
# model with exact floating-point equality.  Not a valid model identifier.
TIE = "tie"

# Observations scored per kernel call and per block handed to the caller.
# Bounds the engine's temporaries, which would otherwise grow with the stream length.
_BLOCK = 4096


class PrequentialTrace(_Value):
    """Per-step increments and cumulative scores for a bank of models.

    Column j belongs to identifiers[j], and cumulative[i, j] is the sum of
    increments[:i+1, j] in step order.  Arrays are read-only.
    """

    __slots__ = ("identifiers", "increments", "cumulative")

    def __init__(self, identifiers: tuple[str, ...], increments: np.ndarray, cumulative: np.ndarray) -> None:
        self._set(identifiers, increments, cumulative)

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


def prequential_blocks(
    observations, states: Mapping[str, ConjugateState], rule: RuleParams = RuleParams()
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Score a stream of counts under every model in the bank, one block at a time.

    Observations are an integer numpy array, or any iterable of integers,
    which is converted to one int64 array (8 bytes a count) first.  states
    maps each model's identifier to its conjugate state; columns follow
    the mapping's order.  The stream is checked once, here, before the
    first block is scored: every count, then the int64 bound of each
    model's running total over the whole stream, which bounds every
    block's prefix sums since counts are non-negative.  So a bad count is
    reported even after an earlier scoring failure.  The returned iterator
    yields (start, xs, increments, cumulative) for each block of at most
    _BLOCK steps: xs are the block's counts, a slice of the int64 stream,
    and row i of the two arrays belongs to step start + i.  A non-finite
    increment or a cumulative score beyond the float range raises
    ScoreDomainError naming the earliest failing step (the first model in
    the bank on a shared step), in place of the block that holds it.
    """
    xs = _counts(observations, "observation")
    if not xs.size:
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
        _check_history(xs, state.t, state.n)
    return _scored_blocks(xs, identifiers, bank, rule)


def _scored_blocks(xs, identifiers, bank, rule):
    """The generator behind prequential_blocks, over slices of its checked int64 stream."""
    # -0.0 is the identity of IEEE addition, signed zeros included, so seeding the first
    # block's sums with it gives np.cumsum's bits; each later block is seeded with the last
    # row before it, which continues the same left-to-right sum.
    last = np.full((1, len(bank)), -0.0)
    total = 0  # the sum of the counts before the block
    for start in range(0, xs.size, _BLOCK):
        block = xs[start:start + _BLOCK]
        increments = np.empty((block.size, len(bank)), dtype=np.float64)
        for j, state in enumerate(bank):
            increments[:, j] = block_increments(state, block, state.t + total, state.n + start, rule)
        total += int(block.sum())
        with np.errstate(over="ignore", invalid="ignore"):
            cumulative = np.cumsum(np.concatenate((last, increments)), axis=0)[1:]
        # A running sum that takes a non-finite value keeps one, so the first block whose last
        # row is not finite holds the earliest failure: its first non-finite cell in row-major
        # order, which is first in the bank on a shared step.
        if not np.isfinite(cumulative[-1]).all():
            row, j = divmod(int(np.argmax(~np.isfinite(cumulative))), len(bank))
            increment = float(increments[row, j])
            reason = ("cumulative score is not finite" if math.isfinite(increment)
                      else _not_finite_reason(increment))
            raise ScoreDomainError(f"model {identifiers[j]!r} failed at step {start + row} "
                                   f"(x={block[row]}): {reason}")
        last = cumulative[-1:]
        yield start, block, increments, cumulative


def run_prequential(
    observations, states: Mapping[str, ConjugateState], rule: RuleParams = RuleParams()
) -> PrequentialTrace:
    """The trace of prequential_blocks' blocks, collected for the whole stream.

    Its errors are prequential_blocks'; no partial trace is returned.
    """
    blocks = list(prequential_blocks(observations, states, rule))
    increments = np.concatenate([block[2] for block in blocks])
    cumulative = np.concatenate([block[3] for block in blocks])
    increments.flags.writeable = False
    cumulative.flags.writeable = False
    return PrequentialTrace(tuple(states), increments, cumulative)


def _selected(identifiers: Sequence[str], scores: np.ndarray) -> str:
    """The identifier with the smallest of its cumulative scores, or "tie"."""
    winners = np.flatnonzero(scores == scores.min())
    return identifiers[winners[0]] if winners.size == 1 else TIE


def select_model(trace: PrequentialTrace, at_step: int) -> str:
    """Identifier with the smallest cumulative score after at_step, or "tie"."""
    at_step = _integer(at_step, "at_step")
    if not 0 <= at_step < trace.n_steps:
        raise IndexError(f"step {at_step} outside trace of length {trace.n_steps}")
    return _selected(trace.identifiers, trace.cumulative[at_step])
