"""Sampler tests: determinism, substream derivation, moment sanity, and the
cumulative tables against sequential inversion."""

import math
import threading

import numpy as np
import pytest

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
        draws = np.array([sample_poisson(10.0, rng) for _ in range(20000)])
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
        draws = np.array([sample_negbin(81.0, 0.1, rng) for _ in range(20000)])
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
