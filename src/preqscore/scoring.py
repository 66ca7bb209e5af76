"""Homogeneous local scoring rules on the non-negative integers.

An observed count x is scored against a predictive distribution using only
the successive-probability ratios r(x) = p(x+1)/p(x) and r(x-1), i.e. the
predictive restricted to the immediate neighbours of x.  Because only
ratios enter, every score here is invariant to rescaling the predictive
mass function by a positive constant, so unnormalised weights (including
formal predictives arising from improper priors) are scored exactly like
normalised ones.

The concave generator family is

    G_y(v) = -(y + 1)^a * v^m / (m * (m - 1)),      m > 0, m != 1,

which yields the point score

    S(0) = r(0)^m / m
    S(x) = (x + 1)^a r(x)^m / m  -  x^a r(x-1)^(m-1) / (m - 1)    (x > 0).

The rule is proper: its expectation under a distribution P is minimised,
over predictives Q, at Q = P.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "FrequencyTable",
    "PredictiveRatio",
    "RuleParams",
    "ScoreDomainError",
    "empirical_total_score",
    "generator_deriv",
    "generator_value",
    "ratio_from_weights",
    "score_point",
]

# A predictive distribution enters scoring only through this contract:
# x -> p(x+1)/p(x), defined for non-negative integers x.
PredictiveRatio = Callable[[int], float]


class ScoreDomainError(ValueError):
    """An observation cannot be scored against the given predictive.

    Raised when a ratio evaluates negative or non-finite, or when an
    observed x > 0 sits on zero predictive mass relative to its left
    neighbour (r(x-1) = 0).  Erroring out, rather than returning an
    infinity, makes model-data incompatibility explicit.
    """


@dataclass(frozen=True)
class RuleParams:
    """Exponent pair (a, m) selecting one member of the scoring family.

    The order m must be positive and different from 1; any finite a is
    accepted.  The default a = m = 2 gives the quadratic member used in
    the simulation defaults.
    """

    a: float = 2.0
    m: float = 2.0

    def __post_init__(self) -> None:
        for name in ("a", "m"):
            value = getattr(self, name)
            if isinstance(value, bool):
                raise TypeError(f"{name} must be a number, got {value!r}")
        if not (math.isfinite(self.a) and math.isfinite(self.m)):
            raise ValueError(f"rule exponents must be finite, got a={self.a}, m={self.m}")
        if self.m <= 0.0 or self.m == 1.0:
            raise ValueError(
                f"rule order m must be positive and different from 1, got m={self.m}"
            )


def _check_count(x: int, what: str = "x") -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"{what} must be a non-negative integer, got {x!r}")
    if x < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {x}")
    return x


def generator_value(y: int, v: float, rule: RuleParams) -> float:
    """Concave generator G_y(v) = -(y+1)^a v^m / (m (m-1)).

    v = 0 is admitted with the continuous-limit value 0 (valid for every
    m > 0).  Concavity in v holds for all admissible (a, m).
    """
    _check_count(y, "y")
    if v < 0.0:
        raise ValueError(f"ratio argument must be non-negative, got {v}")
    if v == 0.0:
        return 0.0
    return -((y + 1.0) ** rule.a) * v**rule.m / (rule.m * (rule.m - 1.0))


def generator_deriv(y: int, v: float, rule: RuleParams) -> float:
    """Derivative of the generator: G'_y(v) = -(y+1)^a v^(m-1) / (m-1).

    At v = 0 this is the one-sided limit: 0 for m > 1, +infinity for
    0 < m < 1 (the generator has a vertical tangent there).
    """
    _check_count(y, "y")
    if v < 0.0:
        raise ValueError(f"ratio argument must be non-negative, got {v}")
    if v == 0.0:
        return 0.0 if rule.m > 1.0 else math.inf
    return -((y + 1.0) ** rule.a) * v ** (rule.m - 1.0) / (rule.m - 1.0)


def _ratio_at(ratio: PredictiveRatio, x: int) -> float:
    v = float(ratio(x))
    if not math.isfinite(v) or v < 0.0:
        raise ScoreDomainError(
            f"predictive ratio at x={x} must be finite and non-negative, got {v!r}"
        )
    return v


def point_scores(x, r_up, r_down, rule: RuleParams):
    """S(x) from x, r(x) and r(x-1), elementwise on numpy arrays or scalars.

    S(x) = (x+1)^a r(x)^m / m - x^a r(x-1)^(m-1) / (m-1), and r_down is
    ignored where x = 0.  Zero mass follows IEEE pow, which gives the
    continuous limit: r(x-1) = 0 makes the left-neighbour term 0 for m > 1
    and S(x) = +inf for m < 1.  A power beyond the float range gives a
    non-finite value.  Nothing is raised or warned; each caller applies
    its own contract to the result.
    """
    m, a = rule.m, rule.a
    x = np.asarray(x, dtype=np.float64)
    # np.power, not **, so that Python-float ratios overflow to inf instead of raising.
    with np.errstate(all="ignore"):
        first = (x + 1.0) ** a * np.power(r_up, m) / m
        second = np.where(x > 0, x**a * np.power(r_down, m - 1.0) / (m - 1.0), 0.0)
        return first - second


def score_point(x: int, ratio: PredictiveRatio, rule: RuleParams) -> float:
    """Score one observed count x against a predictive's ratio function.

    For x = 0 the left-neighbour term is absent and the score is
    r(0)^m / m.  For x > 0 the observation must have positive predictive
    mass relative to its left neighbour: r(x-1) = 0 raises
    ScoreDomainError instead of producing an infinite penalty, as does a
    score beyond the float range.
    """
    _check_count(x)
    v_up = _ratio_at(ratio, x)
    v_down = _ratio_at(ratio, x - 1) if x else 0.0
    if x and v_down == 0.0:
        raise ScoreDomainError(
            f"observation x={x} has zero predictive mass relative to its "
            f"left neighbour (ratio at {x - 1} is 0)"
        )
    score = float(point_scores(x, v_up, v_down, rule))
    if not math.isfinite(score):
        raise ScoreDomainError(f"score of x={x} is beyond the float range ({score!r})")
    return score


class FrequencyTable:
    """Sparse frequency table of a count sample: value y -> frequency f_y.

    Only strictly positive frequencies are stored, and iteration is in
    ascending y, so floating-point summations over a table are
    reproducible.  Instances are immutable.
    """

    __slots__ = {
        "_entries": None,
        "_lookup": None,
        "n": "Total number of observations.",
        "t": "Total sum of observations.",
    }

    def __init__(self, counts: Mapping[int, int]):
        entries = []
        for y, f in counts.items():
            _check_count(y, "value")
            if isinstance(f, bool) or not isinstance(f, int) or f < 0:
                raise ValueError(f"frequency of {y} must be a non-negative integer, got {f!r}")
            if f > 0:
                entries.append((y, f))
        entries.sort()
        object.__setattr__(self, "_entries", tuple(entries))
        object.__setattr__(self, "_lookup", dict(entries))
        object.__setattr__(self, "n", sum(f for _, f in entries))
        object.__setattr__(self, "t", sum(y * f for y, f in entries))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FrequencyTable is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("FrequencyTable is immutable")

    @classmethod
    def from_observations(cls, xs: Iterable[int]) -> "FrequencyTable":
        counts: dict[int, int] = {}
        for x in xs:
            _check_count(x, "observation")
            counts[x] = counts.get(x, 0) + 1
        return cls(counts)

    def frequency(self, y: int) -> int:
        return self._lookup.get(y, 0)

    def items(self) -> Iterable[tuple[int, int]]:
        """(value, frequency) pairs in ascending value order."""
        return iter(self._entries)

    def max_value(self) -> int:
        if not self._entries:
            raise ValueError("empty frequency table has no maximum value")
        return self._entries[-1][0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrequencyTable):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        return f"FrequencyTable({dict(self._entries)!r})"


def empirical_total_score(
    freq: FrequencyTable, ratio: PredictiveRatio, rule: RuleParams
) -> float:
    """Total score of an i.i.d. sample summarised by a frequency table.

    The sum of f_y S(y) over the table's support in ascending y, which is
    score_point summed over the disaggregated sample up to rounding.
    """
    if freq.n == 0:
        raise ValueError("cannot score an empty sample")
    return sum(f * score_point(y, ratio, rule) for y, f in freq.items())


def ratio_from_weights(weights: Sequence[float]) -> PredictiveRatio:
    """Successive-ratio function of a finitely supported weight vector.

    The weights need not be normalised; only ratios of neighbouring
    entries are ever consumed, so any positive rescaling of the vector
    yields the same scores.  Beyond the last entry the ratio is 0.
    """
    w = tuple(float(value) for value in weights)
    for i, value in enumerate(w):
        if not math.isfinite(value) or value < 0.0:
            raise ValueError(f"weight at {i} must be finite and non-negative, got {value}")

    def ratio(x: int) -> float:
        _check_count(x)
        if x + 1 >= len(w):
            return 0.0
        if w[x] == 0.0:
            # Undefined relative mass; score_point rejects the infinity.
            return 0.0 if w[x + 1] == 0.0 else math.inf
        return w[x + 1] / w[x]

    return ratio
