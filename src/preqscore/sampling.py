"""Seeded random generation with exact inversion samplers.

Reproducibility policy: every stream is a numpy PCG64 generator and only
``Generator.random()`` (uniform doubles) is consumed, so draws are
bit-identical across platforms for a fixed seed.  Substreams (one per
replicate) are derived from a master seed with a splitmix64 mix, so any
replicate is reproducible in isolation.

Both samplers invert the exact cumulative pmf.  It is tabulated once per
parameter set by the pmf recurrence, summed in order from x = 0, and a
draw is the smallest x whose cumulative value reaches the uniform; a
table of n uniforms can be inverted at once with
``np.searchsorted(table, u, side="left")``, giving the same draws as n
scalar calls.  The table ends at the first x past the mode where adding
p(x) no longer changes the float sum; a uniform above that plateau
draws that x.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from functools import lru_cache
from typing import Callable

import numpy as np

from .scoring import _check_count, _integer, _positive, _real

__all__ = ["negbin_cdf", "poisson_cdf", "sample_negbin", "sample_poisson", "substream_seed"]

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


# Longest cumulative table built (8 MiB): parameters whose tail would
# need more are rejected rather than exhausting memory.
_MAX_TABLE = 1 << 20


def _cdf_table(p: float, factor: Callable[[int], float], what: str) -> array:
    """Cumulative pmf from p(0) = p by the recurrence p(x+1) = p(x) * factor(x).

    Stops at the first x past the mode (factor below 1) where adding p(x)
    leaves the sum unchanged: every later term is smaller still, so the
    float cumulative pmf has reached its plateau.
    """
    if p == 0.0:
        raise ValueError(f"{what} too extreme for inversion sampling (pmf underflows)")
    table = array("d", [p])
    cdf = p
    x = 0
    while True:
        r = factor(x)
        p *= r
        x += 1
        if r < 1.0 and cdf + p == cdf:
            return table
        cdf += p
        table.append(cdf)
        if len(table) > _MAX_TABLE:
            raise ValueError(f"{what} too extreme for inversion sampling (table too long)")


# typed=True, here and on negbin_cdf: a bool must reach the checks, not a
# table cached for an equal number.
@lru_cache(maxsize=8, typed=True)
def poisson_cdf(rate: float) -> array:
    """Cumulative pmf table of the Poisson distribution with mean rate.

    The rate must be small enough that exp(-rate) does not underflow
    (rate below roughly 700).  The returned table is shared: do not modify it.
    """
    rate = _positive(rate, "rate")
    return _cdf_table(math.exp(-rate), lambda x: rate / (x + 1), f"rate {rate}")


@lru_cache(maxsize=8, typed=True)
def negbin_cdf(s: float, theta: float) -> array:
    """Cumulative pmf table of the Negative Binomial (size s, success probability theta).

    Built from p(0) = (1 - theta)^s by p(x+1) = p(x) * theta * (s + x) / (x + 1).
    The returned table is shared: do not modify it.
    """
    s = _positive(s, "size s")
    theta = _real(theta, "theta")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie strictly between 0 and 1, got {theta}")
    return _cdf_table(
        (1.0 - theta) ** s,
        lambda x: theta * (s + x) / (x + 1.0),
        f"parameters (s={s}, theta={theta})",
    )


def sample_poisson(rate: float, rng: np.random.Generator) -> int:
    """Exact Poisson draw by inversion of the cumulative pmf.

    Consumes exactly one uniform.  The rate must be small enough that
    exp(-rate) does not underflow (rate below roughly 700).
    """
    table = poisson_cdf(rate)
    return bisect_left(table, rng.random())


def sample_negbin(s: float, theta: float, rng: np.random.Generator) -> int:
    """Exact Negative Binomial draw (size s, success probability theta).

    Inverts the cumulative pmf computed via the recurrence
    p(x+1) = p(x) * theta * (s + x) / (x + 1), starting from
    p(0) = (1 - theta)^s.  Consumes exactly one uniform.
    """
    table = negbin_cdf(s, theta)
    return bisect_left(table, rng.random())
