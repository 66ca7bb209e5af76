"""The value-type contract, the same for all ten of the package's value types.

Each type has fixed fields, in a fixed order; its repr names them; two
instances of one type with equal field values are equal and hash alike,
while an instance of another type is never equal; no field can be
assigned or deleted; and a pickle or deep-copy round trip gives an equal
object.  The two types that hold arrays compare equal only when they
share the same arrays, and have no hash."""

import copy
import pickle

import numpy as np
import pytest

import preqscore as pq

IMPROPER = "PriorSpec(hyper1=0.0, hyper2=0.0)"
CONFIG = (f"ExperimentConfig(generator=GeneratorSpec(kind='poisson', rate=10.0, s=81.0, theta=0.1), "
          f"n_steps=2, replicates=1, plot_paths=0, seed=1729, rule=RuleParams(a=2.0, m=2.0), "
          f"poisson_prior={IMPROPER}, negbin_prior={IMPROPER}, model_k=1.0, model_s=81.0, output=None)")

# Arrays are built once, so that the two instances of an array-holding type share them.
DIFFS, MEAN = np.array([[0.5, 1.0]]), np.array([0.5, 1.0])
INCREMENTS, CUMULATIVE = np.array([[0.25, -1.0]]), np.array([[0.25, -1.0]])


def _config():
    return pq.ExperimentConfig(n_steps=2, replicates=1, plot_paths=0)


# (type, args of one instance, its fields in order, its repr)
VALUES = [
    (pq.RuleParams, (1, 3), ("a", "m"), "RuleParams(a=1.0, m=3.0)"),
    (pq.FrequencyTable, ({2: 1, 0: 3},), ("_entries", "n", "t"), "FrequencyTable({0: 3, 2: 1})"),
    (pq.FitResult, (0.5, -1.25), ("theta_hat", "achieved_score"), "FitResult(theta_hat=0.5, achieved_score=-1.25)"),
    (pq.PriorSpec, (1, 2), ("hyper1", "hyper2"), "PriorSpec(hyper1=1.0, hyper2=2.0)"),
    (pq.PoissonGammaState, (2, pq.PriorSpec(0, 0), 5, 1), ("k", "prior", "t", "n"),
     f"PoissonGammaState(k=2.0, prior={IMPROPER}, t=5, n=1)"),
    (pq.NegBinBetaState, (3, pq.PriorSpec(0, 0.5)), ("s", "prior", "t", "n"),
     "NegBinBetaState(s=3.0, prior=PriorSpec(hyper1=0.0, hyper2=0.5), t=0, n=0)"),
    (pq.PrequentialTrace, (("poisson", "negbin"), INCREMENTS, CUMULATIVE), ("identifiers", "increments", "cumulative"),
     "PrequentialTrace(identifiers=('poisson', 'negbin'), increments=array([[ 0.25, -1.  ]]), "
     "cumulative=array([[ 0.25, -1.  ]]))"),
    (pq.GeneratorSpec, ("negbin", 10, 5, 0.25), ("kind", "rate", "s", "theta"),
     "GeneratorSpec(kind='negbin', rate=10.0, s=5.0, theta=0.25)"),
    (pq.ExperimentConfig, (pq.GeneratorSpec("poisson"), 2, 1, 0), (
        "generator", "n_steps", "replicates", "plot_paths", "seed", "rule", "poisson_prior", "negbin_prior",
        "model_k", "model_s", "output"), CONFIG),
    (pq.ExperimentResult, (_config(), DIFFS, MEAN), ("config", "diffs", "mean_diff"),
     f"ExperimentResult(config={CONFIG}, diffs=array([[0.5, 1. ]]), mean_diff=array([0.5, 1. ]))"),
]
HOLDS_ARRAYS = {pq.PrequentialTrace, pq.ExperimentResult}
ids = [cls.__name__ for cls, *_ in VALUES]


def _fields_equal(a, b, fields):
    return all(np.array_equal(getattr(a, name), getattr(b, name)) if isinstance(getattr(a, name), np.ndarray)
               else getattr(a, name) == getattr(b, name) for name in fields)


@pytest.mark.parametrize("cls, args, fields, text", VALUES, ids=ids)
def test_repr_names_each_field(cls, args, fields, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, args, fields, text", VALUES, ids=ids)
def test_equal_values_are_equal_and_hash_alike(cls, args, fields, text):
    first, second = cls(*args), cls(*args)
    assert first is not second
    assert first == second and not first != second
    if cls in HOLDS_ARRAYS:
        with pytest.raises(TypeError, match="unhashable"):
            hash(first)
    else:
        assert hash(first) == hash(second)


@pytest.mark.parametrize("cls, args, fields, text", VALUES, ids=ids)
def test_another_type_with_the_same_values_is_not_equal(cls, args, fields, text):
    other = type("Other", (cls,), {})(*args)
    assert _fields_equal(other, cls(*args), fields)
    assert cls(*args) != other and other != cls(*args)


def test_types_sharing_field_values_are_not_equal():
    prior = pq.PriorSpec(1, 2)
    assert pq.PoissonGammaState(2, prior) != pq.NegBinBetaState(2, prior)
    assert pq.RuleParams(1, 2) != prior and pq.FitResult(1.0, 2.0) != prior


@pytest.mark.parametrize("cls, args, fields, text", VALUES, ids=ids)
def test_fields_can_be_neither_assigned_nor_deleted(cls, args, fields, text):
    value = cls(*args)
    before = [getattr(value, name) for name in fields]
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, before[0])
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert all(getattr(value, name) is old for name, old in zip(fields, before))


@pytest.mark.parametrize("round_trip", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy],
                         ids=["pickle", "deepcopy", "copy"])
@pytest.mark.parametrize("cls, args, fields, text", VALUES, ids=ids)
def test_pickle_and_copy_give_an_equal_object(cls, args, fields, text, round_trip):
    value = cls(*args)
    again = round_trip(value)
    assert type(again) is cls
    assert _fields_equal(again, value, fields)
    assert repr(again) == text
    if cls not in HOLDS_ARRAYS:
        assert again == value and hash(again) == hash(value)
