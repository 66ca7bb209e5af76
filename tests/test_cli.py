"""CLI tests: every subcommand, exit-code discipline, and golden-output
agreement with direct library calls."""

import json

import pytest

import preqscore as pq
from preqscore.cli import main

QUAD = pq.RuleParams()


def run_cli(argv, capsys):
    """Invoke the CLI in-process; normalise SystemExit into an exit code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    out, err = capsys.readouterr()
    return code, out, err


def write_data(tmp_path, values, name="data.txt"):
    path = tmp_path / name
    path.write_text("".join(f"{v}\n" for v in values), newline="\n")
    return str(path)


class TestCompare:
    def test_poisson_cumulative_example(self, tmp_path, capsys):
        data = write_data(tmp_path, [1, 0])
        code, out, _ = run_cli(["compare", "--data", data], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["poisson_score"] == pytest.approx(0.625, rel=1e-12)
        assert report["reference"] == "poisson"

    def test_golden_output_matches_library(self, tmp_path, capsys):
        values = [9, 12, 8, 11, 10, 7, 13]
        data = write_data(tmp_path, values)
        code, out, _ = run_cli(["compare", "--data", data], capsys)
        assert code == 0
        report = json.loads(out)
        bank = [
            pq.ModelEvaluator("poisson", pq.PoissonGammaState(1.0, pq.PriorSpec.usual_improper()), QUAD),
            pq.ModelEvaluator("negbin", pq.NegBinBetaState(81.0, pq.PriorSpec.usual_improper()), QUAD),
        ]
        trace = pq.run_prequential(values, bank)
        assert report["poisson_score"] == trace.final_score("poisson")
        assert report["negbin_score"] == trace.final_score("negbin")
        assert report["difference"] == trace.final_score("negbin") - trace.final_score("poisson")
        assert report["selected"] == trace.selected[-1]

    def test_all_zero_data_ties(self, tmp_path, capsys):
        data = write_data(tmp_path, [0, 0, 0])
        code, out, _ = run_cli(["compare", "--data", data], capsys)
        assert code == 0
        assert json.loads(out)["selected"] == "tie"

    def test_empty_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code, _, err = run_cli(["compare", "--data", str(path)], capsys)
        assert code == 1
        assert "no observations" in err

    def test_malformed_line_names_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1\nx\n2\n")
        code, _, err = run_cli(["compare", "--data", str(path)], capsys)
        assert code == 1
        assert "line 2" in err

    def test_negative_count_rejected(self, tmp_path, capsys):
        path = tmp_path / "neg.txt"
        path.write_text("1\n-3\n")
        code, _, err = run_cli(["compare", "--data", str(path)], capsys)
        assert code == 1
        assert "line 2" in err

    def test_missing_file_is_runtime_error(self, capsys):
        code, _, err = run_cli(["compare", "--data", "/nonexistent/x.txt"], capsys)
        assert code == 1

    def test_trace_csv(self, tmp_path, capsys):
        data = write_data(tmp_path, [1, 0, 2])
        trace_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(["compare", "--data", data, "--trace", str(trace_path)], capsys)
        assert code == 0
        lines = trace_path.read_text().splitlines()
        assert lines[0].startswith("step,observation,")
        assert len(lines) == 4

    def test_reference_flips_difference_sign(self, tmp_path, capsys):
        data = write_data(tmp_path, [9, 12, 8])
        _, out_p, _ = run_cli(["compare", "--data", data, "--reference", "poisson"], capsys)
        _, out_n, _ = run_cli(["compare", "--data", data, "--reference", "negbin"], capsys)
        assert json.loads(out_p)["difference"] == -json.loads(out_n)["difference"]


    def test_overflowing_rule_is_runtime_error(self, tmp_path, capsys):
        data = write_data(tmp_path, [3, 7, 12])
        code, _, err = run_cli(["compare", "--data", data, "--a", "400"], capsys)
        assert code == 1
        assert err.startswith("preqscore: error:")
        assert "Traceback" not in err


class TestFit:
    def test_overflowing_rule_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "freq.csv"
        path.write_text("3,1\n7,1\n12,1\n")
        code, _, err = run_cli(["fit", "--freq", str(path), "--a", "400", "--m", "3"], capsys)
        assert code == 1
        assert err.startswith("preqscore: error:")
        assert "Traceback" not in err

    def test_theta_hat_from_data_file(self, tmp_path, capsys):
        data = write_data(tmp_path, [0, 1, 1, 2])
        code, out, _ = run_cli(["fit", "--data", data], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["theta_hat"] == pytest.approx(1.0, abs=1e-12)
        assert report["method"] == "closed-form"

    def test_theta_hat_from_freq_file(self, tmp_path, capsys):
        path = tmp_path / "freq.csv"
        path.write_text("0,1\n1,2\n2,1\n")
        code, out, _ = run_cli(["fit", "--freq", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["theta_hat"] == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_boundary(self, tmp_path, capsys):
        data = write_data(tmp_path, [0, 0, 0, 0])
        code, out, _ = run_cli(["fit", "--data", data], capsys)
        assert code == 0
        assert json.loads(out)["theta_hat"] == 0.0

    def test_invalid_order_is_usage_error(self, tmp_path, capsys):
        data = write_data(tmp_path, [1, 2])
        code, _, err = run_cli(["fit", "--data", data, "--m", "0"], capsys)
        assert code == 2
        code, _, err = run_cli(["fit", "--data", data, "--m", "1"], capsys)
        assert code == 2
        assert "1" in err

    def test_duplicate_freq_value_rejected(self, tmp_path, capsys):
        path = tmp_path / "freq.csv"
        path.write_text("0,1\n0,2\n")
        code, _, err = run_cli(["fit", "--freq", str(path)], capsys)
        assert code == 1
        assert "duplicate" in err

    def test_golden_output_matches_library(self, tmp_path, capsys):
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        data = write_data(tmp_path, values)
        _, out, _ = run_cli(["fit", "--data", data, "--m", "1.5"], capsys)
        report = json.loads(out)
        result = pq.fit_minimum_score(
            pq.FrequencyTable.from_observations(values), pq.RuleParams(2.0, 1.5))
        assert report["theta_hat"] == result.theta_hat
        assert report["score"] == result.achieved_score
        assert report["method"] == result.method


class TestScore:
    def test_all_zero_improper_suff_is_zero(self, tmp_path, capsys):
        data = write_data(tmp_path, [0, 0, 0])
        for model in ("poisson", "negbin"):
            code, out, _ = run_cli(
                ["score", "--data", data, "--model", model, "--mode", "suff"], capsys)
            assert code == 0
            assert json.loads(out)["score"] == 0.0

    def test_suff_degeneracy_across_models(self, tmp_path, capsys):
        data = write_data(tmp_path, [3, 5, 2, 0, 7])
        _, out_p, _ = run_cli(["score", "--data", data, "--model", "poisson", "--mode", "suff"], capsys)
        _, out_n, _ = run_cli(["score", "--data", data, "--model", "negbin", "--mode", "suff"], capsys)
        assert json.loads(out_p)["score"] == pytest.approx(json.loads(out_n)["score"], rel=1e-12)

    def test_preq_and_suff_differ_under_proper_prior(self, tmp_path, capsys):
        data = write_data(tmp_path, [3, 5, 2, 0, 7])
        args = ["score", "--data", data, "--model", "poisson", "--prior", "proper:1,1"]
        _, out_preq, _ = run_cli(args + ["--mode", "preq"], capsys)
        _, out_suff, _ = run_cli(args + ["--mode", "suff"], capsys)
        preq, suff = json.loads(out_preq)["score"], json.loads(out_suff)["score"]
        assert preq != suff
        assert abs(preq) < float("inf") and abs(suff) < float("inf")

    def test_preq_golden_output(self, tmp_path, capsys):
        values = [2, 4, 1]
        data = write_data(tmp_path, values)
        _, out, _ = run_cli(["score", "--data", data, "--model", "negbin"], capsys)
        state = pq.NegBinBetaState(81.0, pq.PriorSpec.usual_improper())
        total = 0.0
        for x in values:
            inc, state = pq.negbin_prequential_step(state, x, QUAD)
            total += inc
        assert json.loads(out)["score"] == pytest.approx(total, rel=1e-12)

    def test_freq_with_preq_mode_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "freq.csv"
        path.write_text("0,1\n")
        code, _, _ = run_cli(
            ["score", "--freq", str(path), "--model", "poisson", "--mode", "preq"], capsys)
        assert code == 2

    def test_freq_with_suff_mode(self, tmp_path, capsys):
        path = tmp_path / "freq.csv"
        path.write_text("3,1\n5,1\n2,1\n0,1\n7,1\n")
        data = write_data(tmp_path, [3, 5, 2, 0, 7])
        _, out_freq, _ = run_cli(["score", "--freq", str(path), "--model", "poisson", "--mode", "suff"], capsys)
        _, out_data, _ = run_cli(["score", "--data", data, "--model", "poisson", "--mode", "suff"], capsys)
        assert json.loads(out_freq)["score"] == json.loads(out_data)["score"]

    def test_jeffreys_prior_accepted(self, tmp_path, capsys):
        data = write_data(tmp_path, [2, 3, 1])
        code, out, _ = run_cli(
            ["score", "--data", data, "--model", "poisson", "--prior", "jeffreys"], capsys)
        assert code == 0
        assert json.loads(out)["score"] == pytest.approx(
            sum_jeffreys_poisson([2, 3, 1]), rel=1e-12)

    def test_bad_prior_is_usage_error(self, tmp_path, capsys):
        data = write_data(tmp_path, [1])
        code, _, _ = run_cli(["score", "--data", data, "--model", "poisson", "--prior", "flat"], capsys)
        assert code == 2


def sum_jeffreys_poisson(values):
    state = pq.PoissonGammaState(1.0, pq.PriorSpec.jeffreys_poisson())
    total = 0.0
    for x in values:
        inc, state = pq.poisson_prequential_step(state, x, QUAD)
        total += inc
    return total


class TestSimulate:
    def test_writes_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            ["simulate", "--truth", "poisson", "--n", "30", "--replicates", "4",
             "--plot-paths", "2", "--seed", "5", "--out", str(out_dir)], capsys)
        assert code == 0
        assert (out_dir / "diff.csv").exists()
        assert (out_dir / "diff.svg").exists()
        assert (out_dir / "diff.svg").read_text().count("<polyline") == 3

    def test_deterministic_csv(self, tmp_path, capsys):
        args = ["simulate", "--truth", "negbin", "--n", "25", "--replicates", "3",
                "--plot-paths", "0", "--seed", "7"]
        run_cli(args + ["--out", str(tmp_path / "a")], capsys)
        run_cli(args + ["--out", str(tmp_path / "b")], capsys)
        assert (tmp_path / "a" / "diff.csv").read_bytes() == (tmp_path / "b" / "diff.csv").read_bytes()

    def test_m_equal_one_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["simulate", "--truth", "poisson", "--m", "1", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "m" in err

    def test_missing_truth_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run_cli(["simulate", "--out", str(tmp_path)], capsys)
        assert code == 2

    def test_missing_out_is_usage_error(self, capsys):
        code, _, _ = run_cli(["simulate", "--truth", "poisson"], capsys)
        assert code == 2

    def test_config_file(self, tmp_path, capsys):
        config = {
            "generator": {"kind": "poisson", "rate": 10.0},
            "n_steps": 20,
            "replicates": 3,
            "plot_paths": 1,
            "seed": 11,
            "rule": {"a": 2.0, "m": 2.0},
            "output": str(tmp_path / "cfg_out"),
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        code, _, _ = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert code == 0
        assert (tmp_path / "cfg_out" / "diff.csv").exists()

    def test_flags_override_config(self, tmp_path, capsys):
        config = {"generator": {"kind": "poisson"}, "n_steps": 20, "replicates": 3,
                  "plot_paths": 0, "seed": 11, "output": str(tmp_path / "c1")}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        run_cli(["simulate", "--config", str(cfg)], capsys)
        run_cli(["simulate", "--config", str(cfg), "--seed", "12", "--out", str(tmp_path / "c2")], capsys)
        csv1 = (tmp_path / "c1" / "diff.csv").read_bytes()
        csv2 = (tmp_path / "c2" / "diff.csv").read_bytes()
        assert csv1 != csv2

    def test_unknown_config_field_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"steps": 20}))
        code, _, _ = run_cli(["simulate", "--config", str(cfg), "--truth", "poisson",
                              "--out", str(tmp_path)], capsys)
        assert code == 2

    def test_prior_flag_applies_per_family(self, tmp_path, capsys):
        out_dir = tmp_path / "jef"
        code, _, _ = run_cli(
            ["simulate", "--truth", "poisson", "--n", "10", "--replicates", "2",
             "--plot-paths", "0", "--seed", "3", "--prior", "jeffreys",
             "--out", str(out_dir)], capsys)
        assert code == 0

    def test_golden_output_matches_library(self, tmp_path, capsys):
        out_dir = tmp_path / "cli"
        run_cli(["simulate", "--truth", "negbin", "--n", "15", "--replicates", "4",
                 "--plot-paths", "2", "--seed", "21", "--out", str(out_dir)], capsys)
        config = pq.ExperimentConfig(
            generator=pq.GeneratorSpec.negbin(), n_steps=15, replicates=4,
            plot_paths=2, seed=21)
        lib_csv = tmp_path / "lib.csv"
        pq.export_csv(pq.run_experiment(config), lib_csv)
        assert (out_dir / "diff.csv").read_bytes() == lib_csv.read_bytes()
