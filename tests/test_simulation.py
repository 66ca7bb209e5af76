"""Simulation harness tests: generator specs, experiment composition,
determinism, CSV format and SVG structure."""

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import preqscore as pq
from preqscore import (
    ExperimentConfig,
    ExperimentResult,
    GeneratorSpec,
    PriorSpec,
    RuleParams,
    export_csv,
    render_svg,
    run_experiment,
    substream_seed,
)
from preqscore.simulation import write_rows

SMALL = ExperimentConfig(
    generator=GeneratorSpec.poisson(),
    n_steps=40,
    replicates=8,
    plot_paths=5,
    seed=314,
)


class TestGeneratorSpec:
    def test_default_moments(self):
        pois = GeneratorSpec.poisson()
        assert pois.rate == 10.0  # a Poisson's mean and variance
        nb = GeneratorSpec.negbin()
        assert nb.s * nb.theta / (1.0 - nb.theta) == pytest.approx(9.0, rel=1e-12)
        assert nb.s * nb.theta / (1.0 - nb.theta) ** 2 == pytest.approx(10.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec("binomial")
        with pytest.raises(ValueError):
            GeneratorSpec.poisson(0.0)
        with pytest.raises(ValueError):
            GeneratorSpec.negbin(81.0, 1.5)

    @pytest.mark.parametrize("field, fields", [
        ("rate", dict(kind="poisson", rate=True)),
        ("s", dict(kind="negbin", s=True, theta=0.5)),
        ("theta", dict(kind="negbin", theta=True)),
    ])
    def test_boolean_field_rejected(self, field, fields):
        with pytest.raises(TypeError, match=f"^{field} must be a number"):
            GeneratorSpec(**fields)

    @pytest.mark.parametrize("field", ["rate", "s", "theta"])
    def test_string_field_rejected(self, field):
        with pytest.raises(TypeError, match=f"^{field} must be a number"):
            GeneratorSpec("negbin", **{field: "0.5"})

    def test_fields_stored_as_floats(self):
        spec = GeneratorSpec("negbin", rate=np.int64(4), s=81, theta=np.float32(0.5))
        assert (spec.rate, spec.s, spec.theta) == (4.0, 81.0, 0.5)
        assert {type(v) for v in (spec.rate, spec.s, spec.theta)} == {float}

    def test_draw_dispatch(self):
        rng = np.random.default_rng(1)
        assert GeneratorSpec.poisson().draw(rng) >= 0
        assert GeneratorSpec.negbin().draw(rng) >= 0


class TestExperimentConfig:
    def test_default_settings(self):
        config = ExperimentConfig()
        assert config.n_steps == 1000
        assert config.replicates == 100
        assert config.plot_paths == 10
        assert config.rule == RuleParams(2.0, 2.0)
        assert config.poisson_prior == PriorSpec.usual_improper()
        assert config.negbin_prior == PriorSpec.usual_improper()
        assert config.model_k == 1.0
        assert config.model_s == 81.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_steps=0)
        with pytest.raises(ValueError):
            ExperimentConfig(replicates=0)
        with pytest.raises(ValueError):
            ExperimentConfig(replicates=5, plot_paths=6)

    @pytest.mark.parametrize("field, value", [
        ("n_steps", 20.5), ("n_steps", "20"), ("replicates", 3.0), ("plot_paths", None),
        ("seed", True), ("seed", 7.0),
    ])
    def test_integer_fields_must_be_integers(self, field, value):
        with pytest.raises(TypeError, match=f"^{field} must be an integer"):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 2**64, np.int64(-5)])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match=r"^seed must lie in \[0, 2\*\*64\)"):
            ExperimentConfig(seed=seed)
        assert ExperimentConfig(seed=2**64 - 1).seed == 2**64 - 1

    def test_numpy_integers_accepted(self):
        config = ExperimentConfig(n_steps=np.int64(5), replicates=np.int32(2), plot_paths=np.uint8(1),
                                  seed=np.int64(3))
        assert run_experiment(config).diffs.shape == (2, 5)

    def test_numpy_fields_stored_as_python_numbers(self):
        config = ExperimentConfig(seed=np.uint64(3), n_steps=np.int16(5), model_k=np.int64(2), model_s=81)
        assert (config.seed, config.n_steps, config.model_k, config.model_s) == (3, 5, 2.0, 81.0)
        assert [type(v) for v in (config.seed, config.n_steps, config.model_k, config.model_s)] == [
            int, int, float, float]

    def test_orientation(self):
        assert ExperimentConfig().wrong_model == "negbin"
        nb = ExperimentConfig(generator=GeneratorSpec.negbin())
        assert nb.wrong_model == "poisson"
        assert nb.correct_model == "negbin"


class TestRunExperiment:
    def test_shapes(self):
        result = run_experiment(SMALL)
        assert result.diffs.shape == (8, 40)
        assert result.mean_diff.shape == (40,)
        assert np.array_equal(result.mean_diff, result.diffs.mean(axis=0))

    def test_single_step_composition(self):
        """With one replicate and one step, the difference is exactly the
        wrong-model increment minus the correct-model increment at the
        first drawn observation."""
        config = ExperimentConfig(generator=GeneratorSpec.poisson(), n_steps=1,
                                  replicates=1, plot_paths=0, seed=2024)
        result = run_experiment(config)
        rng = np.random.default_rng(substream_seed(2024, 0))
        x = pq.sample_poisson(10.0, rng)
        p_inc, _ = pq.prequential_step(
            pq.PoissonGammaState(1.0, PriorSpec.usual_improper()), x, config.rule)
        nb_inc, _ = pq.prequential_step(
            pq.NegBinBetaState(81.0, PriorSpec.usual_improper()), x, config.rule)
        assert result.diffs[0, 0] == nb_inc - p_inc

    def test_deterministic(self):
        a = run_experiment(SMALL)
        b = run_experiment(SMALL)
        assert np.array_equal(a.diffs, b.diffs)
        assert np.array_equal(a.mean_diff, b.mean_diff)

    def test_replicate_reproducible_in_isolation(self):
        result = run_experiment(SMALL)
        rng = np.random.default_rng(substream_seed(SMALL.seed, 3))
        xs = [SMALL.generator.draw(rng) for _ in range(SMALL.n_steps)]
        bank = {
            "poisson": pq.PoissonGammaState(1.0, PriorSpec.usual_improper()),
            "negbin": pq.NegBinBetaState(81.0, PriorSpec.usual_improper()),
        }
        trace = pq.run_prequential(xs, bank)
        assert np.array_equal(result.diffs[3], trace.difference("negbin", "poisson"))

    def test_result_arrays_read_only(self):
        result = run_experiment(SMALL)
        with pytest.raises(ValueError):
            result.diffs[0, 0] = 1.0


class TestExportCsv:
    def test_format(self, tmp_path):
        result = run_experiment(SMALL)
        path = tmp_path / "diff.csv"
        export_csv(result, path)
        lines = path.read_bytes().decode("ascii").split("\n")
        assert lines[0] == "step,replicate,diff"
        assert lines[-1] == ""  # trailing LF
        body = lines[1:-1]
        assert len(body) == 8 * 40 + 40
        first = body[0].split(",")
        assert first[0] == "1" and first[1] == "0"
        float(first[2])
        mean_rows = [row for row in body if row.split(",")[1] == "mean"]
        assert len(mean_rows) == 40

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(run_experiment(SMALL), a)
        export_csv(run_experiment(SMALL), b)
        assert a.read_bytes() == b.read_bytes()

    def test_mean_rows_match_mean_trajectory(self, tmp_path):
        result = run_experiment(SMALL)
        path = tmp_path / "diff.csv"
        export_csv(result, path)
        rows = [line for line in path.read_text().splitlines()[1:]
                if line.split(",")[1] == "mean"]
        for i, row in enumerate(rows):
            assert float(row.split(",")[2]) == pytest.approx(result.mean_diff[i], rel=1e-11)


# Values whose .12g text is easy to get wrong: signed zeros, subnormals, the
# normal range's ends, and the neighbours of powers of ten, where the
# exponent form switches and rounding can carry into a new digit.
AWKWARD = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
           1e16, -1e16, 1e-5, 1e-4, 0.99999999999995, 999999999999.5, np.inf, -np.inf, np.nan]
AWKWARD += [float(np.nextafter(10.0**k, to)) for k in range(-20, 21) for to in (0.0, np.inf)]


def fstring_rows(column):
    """The per-row f-string text export_csv and compare --trace wrote before write_rows."""
    return "".join(f"{i + 1},{column[i]:.12g}\n" for i in range(len(column)))


def written_rows(column, *, template=b"%d,%.12g\n"):
    fh = io.BytesIO()
    write_rows(fh, template, range(1, len(column) + 1), column)
    return fh.getvalue()


class TestWriteRows:
    @given(st.lists(st.floats(width=64) | st.sampled_from(AWKWARD), max_size=50))
    def test_matches_fstring_text(self, values):
        column = np.array(values, dtype=np.float64)
        assert written_rows(column) == fstring_rows(column).encode("ascii")

    def test_matches_fstring_text_across_blocks(self):
        rng = np.random.default_rng(9)
        n = 2 * 4096 + 123
        column = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
        column[rng.integers(0, n, len(AWKWARD))] = AWKWARD
        assert written_rows(column) == fstring_rows(column).encode("ascii")

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 3 * 1024 + 7, 4095, 4096, 4097, 2 * 4096 + 123])
    def test_trace_shaped_columns_match_fstring_text(self, n):
        """A range, an int64 array, a list and three float64 columns, as compare --trace writes."""
        rng = np.random.default_rng(n)
        counts = rng.integers(0, 2**63 - 1, n, dtype=np.int64, endpoint=True)
        listed = rng.integers(0, 10**6, n).tolist()
        floats = []
        for _ in range(3):
            column = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
            column[rng.integers(0, n, len(AWKWARD))] = AWKWARD
            floats.append(column)
        a, b, c = floats
        fh = io.BytesIO()
        write_rows(fh, b"%d,%d,%d,%.12g,%.12g,%.12g\n", range(1, n + 1), counts, listed, a, b, c)
        assert fh.getvalue() == "".join(
            f"{i + 1},{counts[i]},{listed[i]},{a[i]:.12g},{b[i]:.12g},{c[i]:.12g}\n" for i in range(n)
        ).encode("ascii")


class TestRenderSvg:
    def test_polyline_count(self, tmp_path):
        result = run_experiment(SMALL)
        path = tmp_path / "diff.svg"
        render_svg(result, path)
        text = path.read_text()
        assert text.count("<polyline") == SMALL.plot_paths + 1
        assert text.startswith("<?xml")
        assert "</svg>" in text
        assert ">n</text>" in text
        assert "cumulative score difference" in text

    def test_mean_only(self, tmp_path):
        config = ExperimentConfig(generator=GeneratorSpec.poisson(), n_steps=20,
                                  replicates=3, plot_paths=0, seed=1)
        path = tmp_path / "diff.svg"
        render_svg(run_experiment(config), path)
        assert path.read_text().count("<polyline") == 1

    def test_empty_result_errors_without_file(self, tmp_path):
        config = SMALL
        empty = ExperimentResult(config, np.empty((0, 0)), np.empty(0))
        path = tmp_path / "diff.svg"
        with pytest.raises(ValueError):
            render_svg(empty, path)
        assert not path.exists()
