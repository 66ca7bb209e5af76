"""Sampler tests: determinism, substream derivation, moment sanity, and the
cumulative tables against sequential inversion."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preqscore import GeneratorSpec, sample_negbin, sample_poisson, substream_seed


class TestSubstreamSeed:
    def test_deterministic(self):
        assert substream_seed(1729, 0) == substream_seed(1729, 0)

    def test_distinct_across_indices(self):
        seeds = {substream_seed(1729, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_distinct_across_masters(self):
        assert substream_seed(1, 0) != substream_seed(2, 0)

    def test_within_64_bits(self):
        for i in range(100):
            assert 0 <= substream_seed(2**63 + 12345, i) < 2**64

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            substream_seed(1, -1)

    @pytest.mark.parametrize("index", [2**63, 2**64])
    def test_rejects_index_beyond_int64(self, index):
        """Masking 2**64 would alias it to index 0."""
        with pytest.raises(ValueError, match=rf"^index must be below 2\*\*63, got {index}$"):
            substream_seed(1, index)
        assert substream_seed(1, 2**63 - 1) != substream_seed(1, 0)

    @pytest.mark.parametrize("master", [-1, 2**64, 2**64 + 5])
    def test_rejects_master_outside_64_bits(self, master):
        """Masking such a seed would alias it to one inside the range."""
        with pytest.raises(ValueError, match=r"^master seed must lie in \[0, 2\*\*64\)"):
            substream_seed(master, 0)

    def test_accepts_master_at_range_ends(self):
        assert substream_seed(0, 0) != substream_seed(2**64 - 1, 0)

    def test_numpy_integers_give_the_same_seed(self):
        assert substream_seed(np.uint64(3), np.int64(1)) == substream_seed(3, 1)

    @pytest.mark.parametrize("master, index", [(3, True), (3, 1.0), (True, 1), (3.0, 1)])
    def test_non_integer_arguments_are_type_errors(self, master, index):
        with pytest.raises(TypeError, match="must be an integer"):
            substream_seed(master, index)


class TestPoissonSampler:
    def test_reproducible(self):
        draws1 = [sample_poisson(10.0, np.random.default_rng(5)) for _ in range(1)]
        rng_a = np.random.default_rng(99)
        rng_b = np.random.default_rng(99)
        seq_a = [sample_poisson(10.0, rng_a) for _ in range(200)]
        seq_b = [sample_poisson(10.0, rng_b) for _ in range(200)]
        assert seq_a == seq_b
        assert draws1 == [sample_poisson(10.0, np.random.default_rng(5))]

    def test_moment_sanity(self):
        rng = np.random.default_rng(7)
        draws = np.searchsorted(GeneratorSpec.poisson(10.0).cdf_table(), rng.random(20000), side="left")
        assert abs(draws.mean() - 10.0) < 0.15
        assert abs(draws.var(ddof=1) - 10.0) < 0.5

    def test_small_rate(self):
        rng = np.random.default_rng(3)
        draws = [sample_poisson(0.05, rng) for _ in range(2000)]
        assert all(x >= 0 for x in draws)
        assert np.mean(draws) == pytest.approx(0.05, abs=0.03)

    def test_invalid_rate(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_poisson(0.0, rng)
        with pytest.raises(ValueError):
            sample_poisson(1e6, rng)  # pmf underflow


class TestNegBinSampler:
    def test_reproducible(self):
        rng_a = np.random.default_rng(123)
        rng_b = np.random.default_rng(123)
        seq_a = [sample_negbin(81.0, 0.1, rng_a) for _ in range(200)]
        seq_b = [sample_negbin(81.0, 0.1, rng_b) for _ in range(200)]
        assert seq_a == seq_b

    def test_moment_sanity(self):
        rng = np.random.default_rng(13)
        draws = np.searchsorted(GeneratorSpec.negbin(81.0, 0.1).cdf_table(), rng.random(20000), side="left")
        assert abs(draws.mean() - 9.0) < 0.15
        assert abs(draws.var(ddof=1) - 10.0) < 0.5

    def test_invalid_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_negbin(0.0, 0.1, rng)
        with pytest.raises(ValueError):
            sample_negbin(81.0, 0.0, rng)
        with pytest.raises(ValueError):
            sample_negbin(81.0, 1.0, rng)


def reference_draw(u, p, factor):
    """Sequential search from x = 0: the smallest x whose cumulative pmf reaches u."""
    cdf, x = p, 0
    while u > cdf:
        p *= factor(x)
        x += 1
        cdf += p
    return x


REFERENCE_CASES = [
    (GeneratorSpec.poisson(10.0), math.exp(-10.0), lambda x: 10.0 / (x + 1)),
    (GeneratorSpec.poisson(0.05), math.exp(-0.05), lambda x: 0.05 / (x + 1)),
    (GeneratorSpec.negbin(81.0, 0.1), (1.0 - 0.1) ** 81.0, lambda x: 0.1 * (81.0 + x) / (x + 1.0)),
    (GeneratorSpec.negbin(2.0, 0.99), (1.0 - 0.99) ** 2.0, lambda x: 0.99 * (2.0 + x) / (x + 1.0)),
]


class FixedUniform:
    """Stand-in generator whose every uniform is the same value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestCdfTable:
    def test_boolean_parameters_rejected_after_an_equal_number_is_cached(self):
        """A cached table for 1.0 must not answer for True."""
        assert GeneratorSpec.poisson(1.0).cdf_table() is GeneratorSpec.poisson(1.0).cdf_table()
        assert GeneratorSpec.negbin(1.0, 0.5).cdf_table() is GeneratorSpec.negbin(1.0, 0.5).cdf_table()
        rng = np.random.default_rng(0)
        sample_poisson(1.0, rng)
        sample_negbin(1.0, 0.5, rng)
        with pytest.raises(TypeError, match=r"^rate must be a number"):
            sample_poisson(True, rng)
        with pytest.raises(TypeError, match=r"^s must be a number"):
            sample_negbin(True, 0.5, rng)
        with pytest.raises(TypeError, match=r"^theta must be a number"):
            sample_negbin(1.0, "0.5", rng)

    @pytest.mark.parametrize("spec, p0, factor", REFERENCE_CASES,
                             ids=["pois10", "pois0.05", "nb81-0.1", "nb2-0.99"])
    def test_bulk_draws_equal_scalar_draws(self, spec, p0, factor):
        n = 3000
        bulk = np.searchsorted(spec.cdf_table(), np.random.default_rng(2024).random(n), side="left")
        rng = np.random.default_rng(2024)
        scalar = [spec.draw(rng) for _ in range(n)]
        reference = [reference_draw(u, p0, factor) for u in np.random.default_rng(2024).random(n)]
        assert bulk.tolist() == scalar == reference

    @pytest.mark.parametrize("spec, p0, factor", REFERENCE_CASES,
                             ids=["pois10", "pois0.05", "nb81-0.1", "nb2-0.99"])
    def test_draw_at_plateau_unchanged(self, spec, p0, factor):
        table = spec.cdf_table()
        plateau = float(table[-1])
        assert spec.draw(FixedUniform(plateau)) == reference_draw(plateau, p0, factor)
        assert spec.draw(FixedUniform(np.nextafter(plateau, 2.0))) == len(table)

    @pytest.mark.parametrize("s, theta", [(2.0, 0.99), (5.0, 0.6)])
    def test_uniform_above_plateau_terminates(self, s, theta):
        """u = 1 - 2**-53 lies above the float cumulative pmf's plateau."""
        result = []
        worker = threading.Thread(
            target=lambda: result.append(sample_negbin(s, theta, FixedUniform(1.0 - 2.0**-53))),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=10.0)
        assert not worker.is_alive(), "sampler did not terminate"
        assert result and result[0] > s * theta / (1.0 - theta)

    def test_table_is_read_only(self):
        with pytest.raises(ValueError):
            GeneratorSpec.poisson().cdf_table()[0] = 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        params=st.one_of(
            st.tuples(st.floats(0.01, 60.0)),
            st.tuples(st.floats(0.05, 200.0), st.floats(0.01, 0.95)),
        ),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    )
    def test_table_inversion_equals_sequential_inversion(self, params, fractions):
        """Any uniform up to the plateau inverts to the reference's draw."""
        if len(params) == 1:
            (rate,) = params
            spec, p0, factor = GeneratorSpec.poisson(rate), math.exp(-rate), lambda x: rate / (x + 1)
        else:
            s, theta = params
            spec = GeneratorSpec.negbin(s, theta)
            p0, factor = (1.0 - theta) ** s, lambda x: theta * (s + x) / (x + 1.0)
        table = spec.cdf_table()
        us = [f * float(table[-1]) for f in fractions]
        drawn = np.searchsorted(table, us, side="left").tolist()
        assert drawn == [reference_draw(u, p0, factor) for u in us]
