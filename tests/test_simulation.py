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
        assert (pois.mean(), pois.variance()) == (10.0, 10.0)
        nb = GeneratorSpec.negbin()
        assert nb.mean() == pytest.approx(9.0, rel=1e-12)
        assert nb.variance() == pytest.approx(10.0, rel=1e-12)

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

    def test_numpy_integers_accepted(self):
        config = ExperimentConfig(n_steps=np.int64(5), replicates=np.int32(2), plot_paths=np.uint8(1),
                                  seed=np.int64(3))
        assert run_experiment(config).diffs.shape == (2, 5)

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
        p_inc, _ = pq.poisson_prequential_step(
            pq.PoissonGammaState(1.0, PriorSpec.usual_improper()), x, config.rule)
        nb_inc, _ = pq.negbin_prequential_step(
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


def written_rows(column, *, template="%d,%.12g\n"):
    fh = io.StringIO()
    write_rows(fh, template, range(1, len(column) + 1), column)
    return fh.getvalue()


class TestWriteRows:
    @given(st.lists(st.floats(width=64) | st.sampled_from(AWKWARD), max_size=50))
    def test_matches_fstring_text(self, values):
        column = np.array(values, dtype=np.float64)
        assert written_rows(column) == fstring_rows(column)

    def test_matches_fstring_text_across_blocks(self):
        rng = np.random.default_rng(9)
        n = 2 * 4096 + 123
        column = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
        column[rng.integers(0, n, len(AWKWARD))] = AWKWARD
        assert written_rows(column) == fstring_rows(column)


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
