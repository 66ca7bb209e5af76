"""Run a bank of sequential model evaluators over one observation stream.

Each evaluator scores every observation under its model's current
predictive, then absorbs the observation.  The engine walks the stream in
fixed-size blocks: each model's conjugate kernel scores a whole block
from the running total and count carried in from the blocks before it,
so the engine's working memory beyond the returned trace is bounded by
the block size.  It records per-step increments, cumulative scores
(summed in step order) and the running argmin selection.  Smaller
cumulative score is better; ties are reported explicitly rather than
broken arbitrarily.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .conjugate import (
    NegBinBetaState,
    PoissonGammaState,
    _int64,
    _NonFiniteIncrement,
    negbin_increments,
    poisson_increments,
)
# Unused here, but perfbench/tracer.py looks the per-step functions up on this module.
from .conjugate import negbin_prequential_step, poisson_prequential_step  # noqa: F401
from .scoring import RuleParams, ScoreDomainError, _check_count

__all__ = ["TIE", "ModelEvaluator", "PrequentialTrace", "run_prequential", "select_model"]

# Reported when the minimum cumulative score is attained by more than one
# model with exact floating-point equality.  Not a valid model identifier.
TIE = "tie"

ConjugateState = PoissonGammaState | NegBinBetaState


@dataclass(frozen=True)
class ModelEvaluator:
    """A named sequential model with its scoring rule."""

    identifier: str
    state: ConjugateState
    rule: RuleParams = RuleParams()

    def __post_init__(self) -> None:
        if not self.identifier or self.identifier == TIE:
            raise ValueError(f"invalid model identifier {self.identifier!r}")


# Observations scored per kernel call.  Bounds the engine's temporaries,
# which would otherwise grow with the stream length.
_BLOCK = 4096

# State type -> (block kernel, the state's size parameter: exposure k or size s).
_FAMILIES = {
    PoissonGammaState: (poisson_increments, attrgetter("k")),
    NegBinBetaState: (negbin_increments, attrgetter("s")),
}


def _family(state: ConjugateState):
    try:
        return _FAMILIES[type(state)]
    except KeyError:
        raise TypeError(f"unsupported evaluator state {type(state).__name__}") from None


def _count_block(block) -> np.ndarray:
    """One block of observations as int64, each a non-negative integer."""
    if isinstance(block, np.ndarray) and block.ndim == 1 and block.dtype.kind in "iu":
        xs = np.asarray(block, dtype=np.int64)
        bad = xs < 0
        if bad.any():
            raise ValueError(
                f"observation must be a non-negative integer below 2**63, "
                f"got {block[bad.argmax()]}"
            )
        return xs
    for x in block:
        _check_count(x, "observation")
    return _int64(block)


@dataclass(frozen=True)
class PrequentialTrace:
    """Per-step increments and cumulative scores for a bank of models.

    cumulative[i, j] is the sum of increments[:i+1, j] in step order, and
    selected[i] is the identifier with the smallest cumulative score after
    step i, or "tie" on exact equality.  Arrays are read-only.
    """

    identifiers: tuple[str, ...]
    increments: np.ndarray
    cumulative: np.ndarray
    selected: tuple[str, ...]

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


def _select(block: np.ndarray, labels: tuple[str, ...]) -> list[str]:
    """Per row, the label of the unique minimum column, else the last label (TIE)."""
    hits = block == block.min(axis=1, keepdims=True)
    choice = np.where(hits.sum(axis=1) == 1, hits.argmax(axis=1), len(labels) - 1)
    return [labels[c] for c in choice.tolist()]


def run_prequential(observations, bank: list[ModelEvaluator]) -> PrequentialTrace:
    """Score a stream of counts under every evaluator in the bank.

    Observations are Python integers or an integer numpy array.  All
    evaluators must share the same rule parameters (scores are only
    comparable under a common rule) and carry distinct identifiers.
    A non-finite increment, or else a cumulative score beyond the float
    range, aborts the run at its earliest step, naming the model; no
    partial trace is returned.
    """
    if not isinstance(observations, (Sequence, np.ndarray)):
        observations = list(observations)
    n_steps = len(observations)
    if not n_steps:
        raise ValueError("observations must be non-empty")
    if not bank:
        raise ValueError("bank must contain at least one evaluator")
    identifiers = tuple(e.identifier for e in bank)
    if len(set(identifiers)) != len(identifiers):
        raise ValueError(f"model identifiers must be distinct, got {identifiers}")
    rule = bank[0].rule
    if any(e.rule != rule for e in bank):
        raise ValueError("all evaluators in a bank must share the same rule parameters")
    families = [_family(e.state) for e in bank]

    increments = np.empty((n_steps, len(bank)), dtype=np.float64)
    total = 0  # sum of the observations before the current block
    for start in range(0, n_steps, _BLOCK):
        xs = _count_block(observations[start:start + _BLOCK])
        failures = []
        for j, (evaluator, (kernel, size)) in enumerate(zip(bank, families)):
            state = evaluator.state
            try:
                increments[start:start + xs.size, j] = kernel(
                    xs, state.t + total, state.n + start, size(state), state.prior, rule
                )
            except _NonFiniteIncrement as err:
                failures.append((err.row, j, err))
        if failures:
            row, j, err = min(failures, key=lambda failure: failure[:2])
            raise ScoreDomainError(
                f"model {identifiers[j]!r} failed at step {start + row} (x={xs[row]}): {err}"
            ) from err
        total += int(xs.sum())

    with np.errstate(over="ignore"):
        cumulative = np.cumsum(increments, axis=0)
    # The increments are finite, so a running sum that leaves the float range stays out of it.
    if not np.isfinite(cumulative[-1]).all():
        row, j = divmod(int(np.argmax(~np.isfinite(cumulative))), len(bank))
        raise ScoreDomainError(f"model {identifiers[j]!r} failed at step {row} "
                               f"(x={observations[row]}): cumulative score is not finite")
    labels = identifiers + (TIE,)
    selected: list[str] = []
    for start in range(0, n_steps, _BLOCK):
        selected += _select(cumulative[start:start + _BLOCK], labels)
    increments.flags.writeable = False
    cumulative.flags.writeable = False
    return PrequentialTrace(identifiers, increments, cumulative, tuple(selected))


def select_model(trace: PrequentialTrace, at_step: int) -> str:
    """Identifier with the smallest cumulative score after at_step, or "tie"."""
    if isinstance(at_step, bool) or not isinstance(at_step, int):
        raise TypeError(f"at_step must be an integer, got {at_step!r}")
    if not 0 <= at_step < trace.n_steps:
        raise IndexError(f"step {at_step} outside trace of length {trace.n_steps}")
    return trace.selected[at_step]
