"""Replicated prequential comparison experiments with CSV export.

An experiment draws seeded synthetic count sequences from a generating
distribution (Poisson or Negative Binomial), scores each sequence
prequentially under both models, and collects the cumulative score excess
of the wrong model over the correct one (positive values favour the
truth).  Identical configurations, including the seed, produce
byte-identical CSV output.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .conjugate import ConjugateState, NegBinBetaState, PoissonGammaState, PriorSpec
from .engine import _BLOCK, run_prequential
from .sampling import negbin_cdf, poisson_cdf, sample_negbin, sample_poisson, substream_seed
from .scoring import RuleParams, _integer, _positive, _real

__all__ = [
    "NEGBIN",
    "POISSON",
    "ExperimentConfig",
    "ExperimentResult",
    "GeneratorSpec",
    "export_csv",
    "run_experiment",
    "write_rows",
]

POISSON = "poisson"
NEGBIN = "negbin"


@dataclass(frozen=True)
class GeneratorSpec:
    """Generating distribution for synthetic sequences.

    kind selects the family; rate is the Poisson mean, (s, theta) the
    Negative Binomial size and success probability.  The default settings
    give a Poisson of mean 10 and a Negative Binomial of mean 9, both
    with variance 10.
    """

    kind: str
    rate: float = 10.0
    s: float = 81.0
    theta: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in (POISSON, NEGBIN):
            raise ValueError(f"generator kind must be {POISSON!r} or {NEGBIN!r}, got {self.kind!r}")
        object.__setattr__(self, "rate", _positive(self.rate, "rate"))
        object.__setattr__(self, "s", _positive(self.s, "s"))
        object.__setattr__(self, "theta", _real(self.theta, "theta"))
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must lie strictly between 0 and 1, got {self.theta}")

    @classmethod
    def poisson(cls, rate: float = 10.0) -> "GeneratorSpec":
        return cls(POISSON, rate=rate)

    @classmethod
    def negbin(cls, s: float = 81.0, theta: float = 0.1) -> "GeneratorSpec":
        return cls(NEGBIN, s=s, theta=theta)

    def draw(self, rng: np.random.Generator) -> int:
        if self.kind == POISSON:
            return sample_poisson(self.rate, rng)
        return sample_negbin(self.s, self.theta, rng)

    def cdf_table(self) -> np.ndarray:
        """Read-only cumulative pmf table the samplers invert.

        ``np.searchsorted(table, rng.random(n), side="left")`` gives the
        same n counts as n calls of draw(rng).
        """
        if self.kind == POISSON:
            table = np.frombuffer(poisson_cdf(self.rate), dtype=np.float64)
        else:
            table = np.frombuffer(negbin_cdf(self.s, self.theta), dtype=np.float64)
        table.flags.writeable = False
        return table


@dataclass(frozen=True)
class ExperimentConfig:
    """Full specification of one replicated comparison experiment.

    Defaults: sequences of 1000 observations, 100 replicates of which the
    first 10 are individually plotted, the quadratic rule a = m = 2, usual
    improper priors for both models, Poisson exposure k = 1 and Negative
    Binomial size s = 81.
    """

    generator: GeneratorSpec = GeneratorSpec(POISSON)
    n_steps: int = 1000
    replicates: int = 100
    plot_paths: int = 10
    seed: int = 1729
    rule: RuleParams = RuleParams()
    poisson_prior: PriorSpec = PriorSpec.usual_improper()
    negbin_prior: PriorSpec = PriorSpec.usual_improper()
    model_k: float = 1.0
    model_s: float = 81.0
    output: str | None = None

    def __post_init__(self) -> None:
        for name in ("n_steps", "replicates", "plot_paths", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be at least 1, got {self.n_steps}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be at least 1, got {self.replicates}")
        if not 0 <= self.plot_paths <= self.replicates:
            raise ValueError(
                f"plot_paths must lie between 0 and replicates={self.replicates}, "
                f"got {self.plot_paths}"
            )
        for name in ("model_k", "model_s"):
            object.__setattr__(self, name, _positive(getattr(self, name), name))

    @property
    def correct_model(self) -> str:
        return self.generator.kind

    @property
    def wrong_model(self) -> str:
        return NEGBIN if self.generator.kind == POISSON else POISSON


@dataclass(frozen=True)
class ExperimentResult:
    """Per-replicate and mean difference trajectories (wrong minus correct)."""

    config: ExperimentConfig
    diffs: np.ndarray  # (replicates, n_steps)
    mean_diff: np.ndarray  # (n_steps,)

    @property
    def replicates(self) -> int:
        return self.diffs.shape[0]

    @property
    def n_steps(self) -> int:
        return self.diffs.shape[1]


def _bank(config: ExperimentConfig) -> dict[str, ConjugateState]:
    return {
        POISSON: PoissonGammaState(config.model_k, config.poisson_prior),
        NEGBIN: NegBinBetaState(config.model_s, config.negbin_prior),
    }


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all replicates and aggregate difference trajectories.

    Replicate r uses its own generator seeded with substream_seed(seed, r),
    so any single replicate can be reproduced without running the others;
    its counts invert n_steps uniforms on the generator's cumulative table
    at once, the same counts as n_steps calls of draw().  The mean
    trajectory is the pointwise average over replicates.
    """
    cdf = config.generator.cdf_table()
    bank = _bank(config)
    diffs = np.empty((config.replicates, config.n_steps), dtype=np.float64)
    for r in range(config.replicates):
        rng = np.random.default_rng(substream_seed(config.seed, r))
        xs = np.searchsorted(cdf, rng.random(config.n_steps), side="left")
        trace = run_prequential(xs, bank, config.rule)
        diffs[r] = trace.difference(config.wrong_model, config.correct_model)
    mean_diff = diffs.mean(axis=0)
    diffs.flags.writeable = False
    mean_diff.flags.writeable = False
    return ExperimentResult(config, diffs, mean_diff)


def write_rows(fh, template: str, *columns) -> None:
    """Write ``template % row`` for each row of equal-length columns.

    Columns are numpy arrays, lists or ranges, walked in blocks of the
    engine's block size.  A block's arrays become Python scalars through
    ``tolist()``; its values, in row order, fill the template repeated
    once per row in one ``%``, and the block goes out in one write, so at
    most one block of Python objects is held.  ``"%.12g" % v`` and
    ``"%d" % i`` give the same text as ``f"{v:.12g}"`` and ``f"{i}"``.
    """
    n = len(columns[0])
    for start in range(0, n, _BLOCK):
        block = [
            c[start:start + _BLOCK].tolist() if isinstance(c, np.ndarray) else c[start:start + _BLOCK]
            for c in columns
        ]
        fh.write((template * len(block[0])) % tuple(chain.from_iterable(zip(*block))))


def export_csv(result: ExperimentResult, path: str | os.PathLike) -> None:
    """Write difference trajectories as ``step,replicate,diff`` rows.

    One row per step per replicate, followed by the mean trajectory as a
    pseudo-replicate labelled ``mean``.  LF line endings; values carry up
    to 12 significant digits.
    """
    steps = range(1, result.n_steps + 1)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("step,replicate,diff\n")
        for r in range(result.replicates):
            write_rows(fh, f"%d,{r},%.12g\n", steps, result.diffs[r])
        write_rows(fh, "%d,mean,%.12g\n", steps, result.mean_diff)
