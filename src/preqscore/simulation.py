"""Seeded synthetic count sequences and replicated prequential comparison experiments.

An experiment draws seeded synthetic count sequences from a generating
distribution (Poisson or Negative Binomial), scores each sequence
prequentially under both models, and collects the cumulative score excess
of the wrong model over the correct one (positive values favour the
truth).  Identical configurations, including the seed, produce
byte-identical CSV output.

Reproducibility policy: every stream is a numpy PCG64 generator and only
``Generator.random()`` (uniform doubles) is consumed, so draws are
bit-identical across platforms for a fixed seed.  Substreams (one per
replicate) are derived from a master seed with a splitmix64 mix, so any
replicate is reproducible in isolation.

Draws invert the exact cumulative pmf by binary search (Devroye 1986,
*Non-Uniform Random Variate Generation*, section III.2).  The pmf is
tabulated once per generating distribution by its recurrence, summed in
order from x = 0 (``GeneratorSpec.cdf_table``), and a draw is the smallest
x whose cumulative value reaches the uniform; a table of n uniforms can be
inverted at once with ``np.searchsorted(table, u, side="left")``, giving
the same draws as n scalar calls.  The table ends at the first x past the
mode where adding p(x) no longer changes the float sum; a uniform above
that plateau draws that x.
"""

from __future__ import annotations

import math
import os
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from . import _np as np
from .conjugate import ConjugateState, NegBinBetaState, PoissonGammaState, PriorSpec
from .engine import run_prequential
from .scoring import RuleParams, _check_count, _integer, _positive, _real

__all__ = [
    "NEGBIN",
    "POISSON",
    "ExperimentConfig",
    "ExperimentResult",
    "GeneratorSpec",
    "export_csv",
    "run_experiment",
    "sample_negbin",
    "sample_poisson",
    "substream_seed",
]

POISSON = "poisson"
NEGBIN = "negbin"

# Rows formatted per ``%`` in write_rows.  A chunk's Python scalars, row
# tuples and text then stay below the engine block's own peak, where 4096
# rows raise compare --trace's peak by about 0.9 MB; 512 rows would split
# each 1000-step replicate of simulate in two.
_ROWS = 1024

# Longest cumulative table built (8 MiB): parameters whose tail would
# need more are rejected rather than exhausting memory.
_MAX_TABLE = 1 << 20


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
        """One count by inversion of cdf_table(); consumes exactly one uniform."""
        return bisect_left(self.cdf_table().data, rng.random())

    @lru_cache(maxsize=8)
    def cdf_table(self) -> np.ndarray:
        """Read-only cumulative pmf table that draw() inverts, shared by equal specs.

        Built from p(0) = exp(-rate) by p(x+1) = p(x) * rate / (x + 1), or
        from p(0) = (1 - theta)^s by p(x+1) = p(x) * theta * (s + x) / (x + 1).
        ``np.searchsorted(table, rng.random(n), side="left")`` gives the
        same n counts as n calls of draw(rng).  The rate must be small
        enough that exp(-rate) does not underflow (below roughly 700).
        """
        if self.kind == POISSON:
            rate = self.rate
            p, factor, what = math.exp(-rate), lambda x: rate / (x + 1), f"rate {rate}"
        else:
            s, theta = self.s, self.theta
            p, factor = (1.0 - theta) ** s, lambda x: theta * (s + x) / (x + 1.0)
            what = f"parameters (s={s}, theta={theta})"
        if p == 0.0:
            raise ValueError(f"{what} too extreme for inversion sampling (pmf underflows)")
        # Stop at the first x past the mode (factor below 1) where adding
        # p(x) leaves the sum unchanged: every later term is smaller still.
        cdf = array("d", [p])
        for x in range(_MAX_TABLE):
            r = factor(x)
            p *= r
            if r < 1.0 and cdf[-1] + p == cdf[-1]:
                table = np.frombuffer(cdf, dtype=np.float64)
                table.flags.writeable = False
                return table
            cdf.append(cdf[-1] + p)
        raise ValueError(f"{what} too extreme for inversion sampling (table too long)")


def sample_poisson(rate: float, rng: np.random.Generator) -> int:
    """``GeneratorSpec.poisson(rate).draw(rng)``."""
    return GeneratorSpec.poisson(rate).draw(rng)


def sample_negbin(s: float, theta: float, rng: np.random.Generator) -> int:
    """``GeneratorSpec.negbin(s, theta).draw(rng)``."""
    return GeneratorSpec.negbin(s, theta).draw(rng)


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


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def substream_seed(master_seed: int, index: int) -> int:
    """The index-th output of a splitmix64 stream seeded at master_seed.

    Used to give each replicate its own independent, individually
    reproducible generator seed.  master_seed must lie in [0, 2**64), so
    that distinct master seeds give distinct streams.
    """
    index = _check_count(index, "index")
    master_seed = _integer(master_seed, "master seed")
    if not 0 <= master_seed <= _MASK64:
        raise ValueError(f"master seed must lie in [0, 2**64), got {master_seed!r}")
    z = (master_seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


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


def write_rows(fh, template: bytes, *columns) -> None:
    """Write ``template % row`` for each row of equal-length columns to binary file fh.

    Columns are numpy arrays, lists or ranges, walked in chunks of _ROWS
    rows.  A chunk's arrays become Python scalars through ``tolist()``;
    its values, in row order, fill the bytes template repeated once per
    row in one ``%``, and the chunk goes out in one write, so at most one
    chunk of Python objects and text is held.  Bytes ``%`` runs the same
    conversions as str ``%``: ``b"%.12g" % v`` and ``b"%d" % i`` are the
    ASCII of ``f"{v:.12g}"`` and ``f"{i}"``.
    """
    n = len(columns[0])
    for start in range(0, n, _ROWS):
        chunk = [
            c[start:start + _ROWS].tolist() if isinstance(c, np.ndarray) else c[start:start + _ROWS]
            for c in columns
        ]
        fh.write((template * len(chunk[0])) % tuple(chain.from_iterable(zip(*chunk))))


def export_csv(result: ExperimentResult, path: str | os.PathLike) -> None:
    """Write difference trajectories as ``step,replicate,diff`` rows.

    One row per step per replicate, followed by the mean trajectory as a
    pseudo-replicate labelled ``mean``.  LF line endings; values carry up
    to 12 significant digits.
    """
    steps = range(1, result.n_steps + 1)
    with open(path, "wb") as fh:
        fh.write(b"step,replicate,diff\n")
        for r in range(result.replicates):
            write_rows(fh, f"%d,{r},%.12g\n".encode("ascii"), steps, result.diffs[r])
        write_rows(fh, b"%d,mean,%.12g\n", steps, result.mean_diff)
