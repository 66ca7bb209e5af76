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
import numbers
import operator
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Callable

from . import _np as np

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


# The package's one number policy: every count and every real parameter,
# wherever it enters, goes through one of these five helpers.


def _integer(value: int, what: str) -> int:
    """value as a Python int.

    Accepts what operator.index accepts (Python and numpy integers), never
    a bool; anything else raises TypeError naming the field.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{what} must be an integer, got {value!r}")


def _check_count(x: int, what: str = "x") -> int:
    """x as a Python int, which _integer accepts and which lies in [0, 2**63) (else ValueError).

    2**63 is the int64 bound of the count arrays, and every count below
    it converts to a float, so a count is bounded alike wherever it enters.
    """
    x = _integer(x, what)
    if x < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {x}")
    if x >= 2**63:
        raise ValueError(f"{what} must be below 2**63, got {x}")
    return x


def _counts(values, what: str) -> np.ndarray:
    """values, any iterable of counts, as one 1-D int64 array, each checked by _check_count.

    A 1-D integer numpy array is checked in one vectorised pass and
    returned without a copy where its dtype allows; anything else is
    checked value by value, in order, and copied into a new array.
    Either way the first bad value is reported by _check_count, so each
    fault has one text.
    """
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iu":
        bad = values < 0 if values.dtype.kind == "i" else values >= 2**63
        if not bad.any():
            return values.astype(np.int64, copy=False)
        values = [values[bad.argmax()]]
    return np.array([_check_count(x, what) for x in values], dtype=np.int64)


def _real(value: float, what: str) -> float:
    """value as a finite Python float.

    Accepts any numbers.Real (Python and numpy integers and floats), never
    a bool; anything else raises TypeError naming the field.  A non-finite
    value raises ValueError, and an int beyond the float range raises
    OverflowError from float().
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{what} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")
    return value


def _positive(value: float, what: str) -> float:
    """value as a finite float, which _real accepts and which is positive (else ValueError)."""
    value = _real(value, what)
    if value <= 0.0:
        raise ValueError(f"{what} must be positive, got {value}")
    return value


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
        object.__setattr__(self, "a", _real(self.a, "a"))
        object.__setattr__(self, "m", _real(self.m, "m"))
        if self.m <= 0.0 or self.m == 1.0:
            raise ValueError(
                f"rule order m must be positive and different from 1, got m={self.m}"
            )


def _generator(y: int, v: float, rule: RuleParams, power: float, divisor: float, at_zero: float) -> float:
    """-(y+1)^a v^power / divisor for a count y and a ratio argument v >= 0, at_zero where v = 0.

    The powers are _pow's, so a value beyond the float range raises
    ScoreDomainError rather than OverflowError.
    """
    y = _check_count(y, "y")
    v = _real(v, "v")
    if v < 0.0:
        raise ValueError(f"ratio argument must be non-negative, got {v}")
    if v == 0.0:
        return at_zero
    value = -_pow(y + 1.0, rule.a) * _pow(v, power) / divisor
    if not math.isfinite(value):
        raise ScoreDomainError(f"generator at y={y}, v={v} is beyond the float range ({value!r})")
    return value


def generator_value(y: int, v: float, rule: RuleParams) -> float:
    """Concave generator G_y(v) = -(y+1)^a v^m / (m (m-1)).

    v = 0 is admitted with the continuous-limit value 0 (valid for every
    m > 0).  Concavity in v holds for all admissible (a, m).
    """
    return _generator(y, v, rule, rule.m, rule.m * (rule.m - 1.0), 0.0)


def generator_deriv(y: int, v: float, rule: RuleParams) -> float:
    """Derivative of the generator: G'_y(v) = -(y+1)^a v^(m-1) / (m-1).

    At v = 0 this is the one-sided limit: 0 for m > 1, +infinity for
    0 < m < 1 (the generator has a vertical tangent there).
    """
    return _generator(y, v, rule, rule.m - 1.0, rule.m - 1.0, 0.0 if rule.m > 1.0 else math.inf)


def _ratio_at(ratio: PredictiveRatio, x: int) -> float:
    try:
        v = float(ratio(x))
    except OverflowError:  # an int beyond the float range, or an overflow inside ratio
        v = math.inf
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
    its own contract to the result.  point_score is the same formula on
    Python floats.
    """
    m, a = rule.m, rule.a
    x = np.asarray(x, dtype=np.float64)
    # np.power, not **, so that Python-float ratios overflow to inf instead of raising.
    with np.errstate(all="ignore"):
        first = (x + 1.0) ** a * np.power(r_up, m) / m
        second = np.where(x > 0, x**a * np.power(r_down, m - 1.0) / (m - 1.0), 0.0)
        return first - second


def _pow(base: float, exponent: float) -> float:
    """base ** exponent for a base >= 0, +inf where IEEE pow overflows or divides by zero."""
    try:
        return base**exponent
    except (OverflowError, ZeroDivisionError):
        return math.inf


def point_score(x: float, r_up: float, r_down: float, rule: RuleParams) -> float:
    """point_scores for one x, on Python floats and without numpy.

    The powers are libm pow, through _pow, so each term follows IEEE pow
    as point_scores' terms do; r_down is not read at x = 0.
    """
    m, a = rule.m, rule.a
    first = _pow(x + 1.0, a) * _pow(r_up, m) / m
    if not x:
        return first
    return first - _pow(x, a) * _pow(r_down, m - 1.0) / (m - 1.0)


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
    score = point_score(float(x), v_up, v_down, rule)
    if not math.isfinite(score):
        raise ScoreDomainError(f"score of x={x} is beyond the float range ({score!r})")
    return score


@dataclass(frozen=True, init=False, repr=False)
class FrequencyTable:
    """Sparse frequency table of a count sample: value y -> frequency f_y.

    Only strictly positive frequencies are stored, and iteration is in
    ascending y, so floating-point summations over a table are
    reproducible.  Instances are immutable; n is the number of
    observations and t their sum.
    """

    _entries: tuple[tuple[int, int], ...]
    n: int
    t: int

    def __init__(self, counts: Mapping[int, int]):
        entries = []
        for y, f in counts.items():
            y = _check_count(y, "value")
            f = _check_count(f, f"frequency of {y}")
            if f > 0:
                entries.append((y, f))
        entries.sort()
        object.__setattr__(self, "_entries", tuple(entries))
        object.__setattr__(self, "n", sum(f for _, f in entries))
        object.__setattr__(self, "t", sum(y * f for y, f in entries))

    @classmethod
    def from_observations(cls, xs: Iterable[int]) -> "FrequencyTable":
        values, freqs = np.unique(_counts(xs, "observation"), return_counts=True)
        return cls(dict(zip(values.tolist(), freqs.tolist())))

    def items(self) -> Iterable[tuple[int, int]]:
        """(value, frequency) pairs in ascending value order."""
        return iter(self._entries)

    def __repr__(self) -> str:
        return f"FrequencyTable({dict(self._entries)!r})"


def _checked_fsum(products: list[float], what: str) -> float:
    """math.fsum of products, or ScoreDomainError, its text starting with what, where that is not finite.

    A correctly rounded sum gives the same bits on every host and in any
    order of the terms.  products is a list, so no ScoreDomainError of a
    term's own is taken for the sum's.
    """
    try:
        total = math.fsum(products)
    except (OverflowError, ValueError) as err:  # an intermediate overflow, or inf - inf
        raise ScoreDomainError(f"{what} is not finite ({err})") from None
    if not math.isfinite(total):
        raise ScoreDomainError(f"{what} is not finite ({total!r})")
    return total


def empirical_total_score(
    freq: FrequencyTable, ratio: PredictiveRatio, rule: RuleParams
) -> float:
    """Total score of an i.i.d. sample summarised by a frequency table.

    The correctly rounded sum (math.fsum) of f_y S(y) over the table's
    support, which is score_point summed over the disaggregated sample up
    to rounding.  A total beyond the float range raises ScoreDomainError.
    With the Poisson ratio theta / (y + 1) it is poisson_empirical_score
    to the bit.
    """
    if freq.n == 0:
        raise ValueError("cannot score an empty sample")
    return _checked_fsum([f * score_point(y, ratio, rule) for y, f in freq.items()], "total score")


def ratio_from_weights(weights: Sequence[float]) -> PredictiveRatio:
    """Successive-ratio function of a finitely supported weight vector.

    The weights need not be normalised; only ratios of neighbouring
    entries are ever consumed, so any positive rescaling of the vector
    yields the same scores.  Beyond the last entry the ratio is 0.
    """
    w = tuple(_real(value, f"weight at {i}") for i, value in enumerate(weights))
    for i, value in enumerate(w):
        if value < 0.0:
            raise ValueError(f"weight at {i} must be non-negative, got {value}")

    def ratio(x: int) -> float:
        _check_count(x)
        if x + 1 >= len(w):
            return 0.0
        if w[x] == 0.0:
            # Undefined relative mass; score_point rejects the infinity.
            return 0.0 if w[x + 1] == 0.0 else math.inf
        return w[x + 1] / w[x]

    return ratio
