"""High-precision references for checking preqscore's outputs.

Written from the formulas in PAPER.md, not from the package, so that a
defect in the package cannot hide in its own check:

- splitmix64 substream seeds and exact inversion of the cumulative pmf;
- the conjugate predictive ratios
      Poisson:  r(y) = phi (y + h1 + t) / (y + 1),  phi = k / (h2 + n k + k)
      NegBin:   r(y) = (y + s)(y + h1 + t) / ((y + 1)(y + h1 + h2 + t + n s + s));
- the general local point score
      S(0) = r(0)^m / m
      S(x) = (x+1)^a r(x)^m / m - x^a r(x-1)^(m-1) / (m-1).

All arithmetic runs in a private mpmath context at 40 significant digits.
Alongside each value the functions return the summed magnitudes of the
terms that produced it, so callers can bound the cancellation a float64
computation of the same value may suffer.
"""

from __future__ import annotations

import bisect

import mpmath
import numpy as np

MP = mpmath.MPContext()
MP.dps = 40

_MASK64 = (1 << 64) - 1


def substream_seed(master_seed: int, index: int) -> int:
    """Output number ``index`` (from 0) of a splitmix64 stream seeded at master_seed."""
    z = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def cdf_table(kind: str, rate: float = 10.0, s: float = 81.0, theta: float = 0.1) -> list:
    """Cumulative pmf of a Poisson(rate) or NegBin(s, theta) until its tail is below 1e-30."""
    if kind == "poisson":
        p = MP.exp(-MP.mpf(rate))
        step = lambda x: MP.mpf(rate) / (x + 1)
    else:
        p = (1 - MP.mpf(theta)) ** MP.mpf(s)
        step = lambda x: MP.mpf(theta) * (MP.mpf(s) + x) / (x + 1)
    table, cdf, x = [], MP.mpf(0), 0
    while 1 - cdf > MP.mpf("1e-30"):
        cdf += p
        table.append(cdf)
        p *= step(x)
        x += 1
    return table


def invert(table: list, u: float) -> int:
    """Smallest x with u <= F(x): exact inversion of one uniform double."""
    return bisect.bisect_left(table, MP.mpf(u))


def _exponent(e: float):
    # Integer exponents stay Python ints: powers by ints are exact and fast.
    return int(e) if float(e).is_integer() else MP.mpf(e)


def _pow(base, e):
    if isinstance(e, int):
        return base**e
    return MP.zero if base == 0 and e > 0 else MP.power(base, e)


def _point_score(x: int, r_up, r_down, a, m):
    """(first, second) terms of S(x) = first - second, given r(x) and r(x-1)."""
    first = _pow(r_up, m) * _pow(x + 1, a) / m
    if x == 0:
        return first, MP.zero
    return first, _pow(r_down, m - 1) * _pow(x, a) / (m - 1)


def prequential(xs, family: str, size: float, h1: float, h2: float, a: float, m: float):
    """Prequential scores of one conjugate model over a stream.

    ``size`` is the Poisson exposure k or the NegBin size s; (h1, h2) the
    prior hyperparameters.  Returns the exact total and float64 arrays of
    the increments, the cumulative scores and the term magnitudes
    |first| + |second| of each step.
    """
    a, m = _exponent(a), _exponent(m)
    size, h1, h2 = MP.mpf(size), MP.mpf(h1), MP.mpf(h2)
    steps = len(xs)
    increments, cumulative, magnitudes = np.empty(steps), np.empty(steps), np.empty(steps)
    total = MP.zero
    shape = h1  # h1 + t
    denom = h1 + h2 + size  # NegBin: h1 + h2 + t + n s + s
    for i, x in enumerate(xs):
        if family == "poisson":
            phi = size / (h2 + (i + 1) * size)
            r_up = phi * (x + shape) / (x + 1)
            r_down = phi * (x - 1 + shape) / x if x else None
        else:
            r_up = (x + size) * (x + shape) / ((x + 1) * (x + denom))
            r_down = (x - 1 + size) * (x - 1 + shape) / (x * (x - 1 + denom)) if x else None
            denom += x + size
        first, second = _point_score(x, r_up, r_down, a, m)
        increment = first - second
        total += increment
        increments[i] = increment
        cumulative[i] = total
        magnitudes[i] = abs(float(first)) + abs(float(second))
        shape += x
    return total, increments, cumulative, magnitudes


def empirical_score(freq: dict[int, int], theta: float, a: float, m: float):
    """(total, magnitude) of sum_x f_x S(x) under the Poisson ratio r(y) = theta / (y + 1)."""
    a, m = _exponent(a), _exponent(m)
    theta = MP.mpf(theta)
    total = MP.zero
    magnitude = 0.0
    for x, f in freq.items():
        r_down = theta / x if x else None
        first, second = _point_score(x, theta / (x + 1), r_down, a, m)
        total += f * (first - second)
        magnitude += f * (abs(float(first)) + abs(float(second)))
    return total, magnitude
