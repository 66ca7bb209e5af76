"""CLI tests: every subcommand, exit-code discipline, and golden-output
agreement with direct library calls."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import preqscore as pq
from preqscore.cli import (
    CliDataError, _decimal, _overlay, _read_observations, _simulate_flags, build_parser, main,
)

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


def test_import_loads_no_network_or_xml_modules():
    """The CLI starts without urllib, ssl, email or xml.sax, which cost
    several MiB and milliseconds on every call."""
    src = str(Path(pq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = ("import sys, preqscore.cli; "
             "print([m for m in ('urllib.request', 'ssl', 'email', 'xml.sax') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout == "[]\n"


# (input flag of `fit`, file text or None for a missing file, stderr after "preqscore: error: ").
DATA_ERRORS = {
    "empty line": ("--data", "1\n\n2\n", "{path}: line 2: empty line"),
    "non-integer": ("--data", "1\nx\n2\n", "{path}: line 2: not an integer: 'x'"),
    "negative count": ("--data", "1\n-3\n", "{path}: line 2: negative count -3"),
    "malformed row": ("--freq", "1,2\n3\n", "{path}: line 2: expected 'value,count', got '3'"),
    "non-integer fields": ("--freq", "1,2\n3,x\n", "{path}: line 2: expected integers, got '3,x'"),
    "negative entry": ("--freq", "1,2\n3,-1\n", "{path}: line 2: negative entry in '3,-1'"),
    "duplicate value": ("--freq", "1,2\n1,3\n", "{path}: line 2: duplicate value 1"),
    "missing file": ("--data", None,
                     "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
    "empty file": ("--data", "", "{path}: no observations"),
    "underscore digits": ("--data", "1\n1_000\n", "{path}: line 2: not an integer: '1_000'"),
    "arabic-indic digit": ("--data", "1\n\u0663\n", "{path}: line 2: not an integer: '\u0663'"),
    "fullwidth digits": ("--data", "\uff11\uff12\n", "{path}: line 1: not an integer: '\uff11\uff12'"),
    "underscore field": ("--freq", "1_000,2\n", "{path}: line 1: expected integers, got '1_000,2'"),
    "non-ascii field": ("--freq", "1,\uff12\n", "{path}: line 1: expected integers, got '1,\uff12'"),
    "value beyond int64": ("--freq", f"5,1\n{2**63},1\n", f"value must be below 2**63, got {2**63}"),
    "400-digit value": ("--freq", f"{10**400},1\n", f"value must be below 2**63, got {10**400}"),
    "400-digit frequency": ("--freq", f"5,{10**400}\n", f"frequency of 5 must be below 2**63, got {10**400}"),
}


@pytest.mark.parametrize("case", DATA_ERRORS)
def test_data_error_message(tmp_path, capsys, case):
    flag, text, message = DATA_ERRORS[case]
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text, newline="\n")
    code, out, err = run_cli(["fit", flag, str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == "preqscore: error: " + message.format(path=path) + "\n"


def per_line_observations(path):
    """The counts of a data file read line by line, or the CliDataError text."""
    values = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        token = line.strip()
        if not token:
            return f"{path}: line {lineno}: empty line"
        try:
            value = _decimal(token)
        except ValueError:
            return f"{path}: line {lineno}: not an integer: {token!r}"
        if value < 0:
            return f"{path}: line {lineno}: negative count {value}"
        values.append(value)
    return values or f"{path}: no observations"


# Digits, signs, blanks, CR, FF, an underscore and a non-ASCII digit; LF separates lines.
_DATA_ALPHABET = "0123456789+- \t\r\x0c_\u0663\n"
_DATA_TOKENS = (st.text(_DATA_ALPHABET, max_size=6)
                | st.integers(0, 10**6).map(str)
                | st.integers(10**17, 10**20 - 1).map(str)
                | st.sampled_from([str(2**63 - 1), str(2**63)]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_DATA_TOKENS, max_size=8), st.sampled_from(["", "\n", "\r\n"]))
@example([], "")
@example(["1", "2"], "")
@example(["1", "2"], "\n")
@example([str(2**63 - 1)], "\n")
@example([str(2**63)], "\n")
@example(["", "5"], "\n")
def test_read_observations_matches_per_line_reading(tmp_path_factory, tokens, end):
    """Every data file gives the per-line reader's counts or its error text."""
    path = tmp_path_factory.mktemp("data") / "data.txt"
    path.write_text("\n".join(tokens) + (end if tokens else ""), encoding="utf-8", newline="")
    expected = per_line_observations(path)
    try:
        values = _read_observations(str(path))
    except CliDataError as err:
        assert str(err) == expected
    else:
        assert [int(v) for v in values] == expected


def test_plain_data_file_is_read_as_one_int64_array(tmp_path):
    values = _read_observations(write_data(tmp_path, [3, 0, 10**18 - 1, 17]))
    assert isinstance(values, np.ndarray) and values.dtype == np.int64
    assert values.tolist() == [3, 0, 10**18 - 1, 17]


def trace_text(values, inc, cum):
    """compare's trace file for the steps of inc and cum, as per-row f-string text."""
    rows = "".join(f"{i + 1},{values[i]},{inc[i, 0]:.12g},{inc[i, 1]:.12g},{cum[i, 0]:.12g},{cum[i, 1]:.12g}\n"
                   for i in range(len(inc)))
    header = "step,observation,poisson_increment,negbin_increment,poisson_cumulative,negbin_cumulative\n"
    return (header + rows).encode("ascii")


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
        bank = {
            "poisson": pq.PoissonGammaState(1.0, pq.PriorSpec.usual_improper()),
            "negbin": pq.NegBinBetaState(81.0, pq.PriorSpec.usual_improper()),
        }
        trace = pq.run_prequential(values, bank, QUAD)
        assert report["poisson_score"] == trace.final_score("poisson")
        assert report["negbin_score"] == trace.final_score("negbin")
        assert report["difference"] == trace.final_score("negbin") - trace.final_score("poisson")
        assert report["selected"] == pq.select_model(trace, trace.n_steps - 1)

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

    def test_count_of_2_pow_63_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text("1\n9223372036854775808\n", newline="\n")
        for argv in (["compare"], ["fit"], ["score", "--mode", "suff", "--model", "poisson"],
                     ["score", "--mode", "suff", "--model", "negbin"]):
            code, out, err = run_cli([*argv, "--data", str(path)], capsys)
            assert (code, out) == (1, ""), argv
            assert err == "preqscore: error: observation must be below 2**63, got 9223372036854775808\n"

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

    def test_trace_csv_text_matches_per_row_format(self, tmp_path, capsys):
        """Every trace row, at and across block boundaries, is the per-row
        f-string text of the library's arrays."""
        bank = {
            "poisson": pq.PoissonGammaState(1.0, pq.PriorSpec.jeffreys_poisson()),
            "negbin": pq.NegBinBetaState(81.0, pq.PriorSpec.jeffreys_negbin()),
        }
        for length in (1, 4095, 4096, 4097, 2 * 4096 + 123, 3 * 4096 + 77):
            values = np.random.default_rng(length).negative_binomial(81, 0.9, length).tolist()
            data = write_data(tmp_path, values)
            trace_path = tmp_path / "trace.csv"
            code, out, err = run_cli(["compare", "--data", data, "--prior", "jeffreys",
                                      "--trace", str(trace_path)], capsys)
            assert code == 0, err
            trace = pq.run_prequential(values, bank, QUAD)
            assert trace_path.read_bytes() == trace_text(values, trace.increments, trace.cumulative)
            assert json.loads(out)["negbin_score"] == trace.final_score("negbin")

    def test_late_failure_keeps_the_rows_before_its_block(self, tmp_path, capsys):
        """The first failure is at step 8204, in the third block: the trace
        holds the rows of the first two blocks, and stdout stays empty."""
        values = [0] * (2 * 4096 + 12) + [5] * 300
        rule = pq.RuleParams(395.35, 0.1)
        bank = {"poisson": pq.PoissonGammaState(1.0, pq.PriorSpec.usual_improper()),
                "negbin": pq.NegBinBetaState(5.0, pq.PriorSpec.usual_improper())}
        with pytest.raises(pq.ScoreDomainError) as failure:
            pq.run_prequential(values, bank, rule)
        trace_path = tmp_path / "trace.csv"
        code, out, err = run_cli(["compare", "--data", write_data(tmp_path, values), "--s", "5",
                                  "--a", "395.35", "--m", "0.1", "--trace", str(trace_path)], capsys)
        assert (code, out) == (1, "")
        assert err == f"preqscore: error: {failure.value}\n"
        head = pq.run_prequential(values[:2 * 4096], bank, rule)
        assert trace_path.read_bytes() == trace_text(values, head.increments, head.cumulative)

    def test_failure_in_the_first_block_leaves_the_trace_path_alone(self, tmp_path, capsys):
        data = write_data(tmp_path, [0] * 10 + [5, 5, 3])
        argv = ["compare", "--data", data, "--a", "395.3", "--m", "0.1", "--trace"]
        code, out, err = run_cli([*argv, str(tmp_path / "new.csv")], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("preqscore: error: model 'poisson' failed at step 10 (x=5): ")
        assert not (tmp_path / "new.csv").exists()
        existing = tmp_path / "existing.csv"
        existing.write_bytes(b"kept\n")
        assert run_cli([*argv, str(existing)], capsys)[0] == 1
        assert existing.read_bytes() == b"kept\n"

    @pytest.mark.parametrize("bad, message", [
        (2**63, "observation must be below 2**63, got 9223372036854775808"),
        (2**62, "running total or observation count beyond the int64 range"),
    ], ids=["beyond-int64", "total-beyond-int64"])
    def test_bad_count_after_a_scoring_failure_is_reported(self, tmp_path, capsys, bad, message):
        """Scoring fails at step 10, in the first block; the count in the
        third block is still the error reported, and no trace is written."""
        data = write_data(tmp_path, [0] * 10 + [5, 5] + [1] * 9000 + [bad])
        trace_path = tmp_path / "trace.csv"
        for command in (["compare", "--trace", str(trace_path)], ["score", "--model", "negbin"]):
            code, out, err = run_cli([*command, "--data", data, "--a", "395.3", "--m", "0.1"], capsys)
            assert (code, out, err) == (1, "", f"preqscore: error: {message}\n")
        assert not trace_path.exists()

    def test_score_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        """A BLAS dot product splits a sum of more than 10 000 terms across
        its threads; compare, which loads numpy, sums its scores without
        one, so a 30 000-count stream gives the same report and trace under
        one BLAS thread and two."""
        data = write_data(tmp_path, np.random.default_rng(11).negative_binomial(81, 0.9, 30000).tolist())
        src = str(Path(pq.__file__).resolve().parents[1])
        outputs = set()
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            for rule in (["--a", "1", "--m", "1.5"], ["--a", "2", "--m", "2"]):
                trace = tmp_path / f"trace-{threads}.csv"
                done = subprocess.run([sys.executable, "-m", "preqscore", "compare", "--data", data,
                                       "--trace", str(trace), *rule],
                                      env=env, capture_output=True, text=True, timeout=60, check=True)
                outputs.add((tuple(rule), done.stdout, trace.read_bytes()))
        assert len(outputs) == 2

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

    def test_high_order_rule_with_finite_scores(self, tmp_path, capsys):
        """At m = 300 the ratios stay moderate (r(3) = 0.75 at the first
        step), so both totals are finite; the expected values are the
        general rule evaluated with 40-digit arithmetic."""
        data = write_data(tmp_path, [3, 0, 7])
        code, out, err = run_cli(["compare", "--data", data, "--m", "300"], capsys)
        assert code == 0, err
        report = json.loads(out)
        assert report["negbin_score"] == pytest.approx(9.111241552961491e47, rel=1e-12)
        assert report["poisson_score"] == pytest.approx(2.240043551004856e50, rel=1e-12)

    def test_overflowing_cumulative_score_is_runtime_error(self, tmp_path, capsys):
        """Each increment stays finite (about 1.6e308 at the first five), but
        the second five takes both running totals past the float range."""
        data = write_data(tmp_path, [0] * 8000 + [5, 5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["compare", "--data", data, "--a", "395.3", "--m", "0.1"], capsys)
        assert code == 1
        assert err.startswith("preqscore: error: model 'poisson' failed at step 8001 (x=5)")
        assert out == ""


@pytest.mark.parametrize("command", [["compare"], ["compare", "--trace", "trace.csv"],
                                     ["score", "--model", "poisson", "--mode", "preq"]],
                         ids=["compare", "compare-trace", "score-preq"])
def test_peak_memory_grows_by_at_most_12_bytes_per_count(tmp_path, capsys, command):
    """Beyond the input, which a plain data file holds as one int64 array
    (8 bytes a count), scoring keeps one block: the traced peak, numpy's
    buffers included, grows by at most 12 bytes per count from 5e4 to 2e5
    counts.  Holding every step's increments and cumulative scores cost
    about 40 bytes a count."""
    command = [str(tmp_path / arg) if arg.endswith(".csv") else arg for arg in command]
    rng = np.random.default_rng(3)
    paths = {n: write_data(tmp_path, rng.negative_binomial(81, 0.9, n).tolist(), f"{n}.txt")
             for n in (50_000, 200_000)}
    run_cli([*command, "--data", write_data(tmp_path, [1, 2])], capsys)  # loads what a first call loads
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        peaks = {}
        for n, path in paths.items():
            tracemalloc.reset_peak()
            code, _, err = run_cli([*command, "--data", path], capsys)
            assert code == 0, err
            peaks[n] = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    assert (peaks[200_000] - peaks[50_000]) / 150_000 <= 12


def test_trace_costs_at_most_one_chunk_of_peak_memory(tmp_path, capsys):
    """--trace raises the traced peak of compare on 1e5 counts by at most
    0.3 MB: one chunk of rows, formatted and written as bytes, fits under
    the block's own peak.  Formatting a 4096-step block as text at once
    cost about 0.9 MB."""
    data = write_data(tmp_path, np.random.default_rng(5).negative_binomial(81, 0.9, 100_000).tolist())
    trace = str(tmp_path / "trace.csv")
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        peaks = []
        for command in (["compare", "--data", data], ["compare", "--data", data, "--trace", trace]):
            run_cli(command, capsys)  # loads what a first call loads
            tracemalloc.reset_peak()
            code, _, err = run_cli(command, capsys)
            assert code == 0, err
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        if started:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 300_000


class TestFit:
    def test_overflowing_rule_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "freq.csv"
        path.write_text("3,1\n7,1\n12,1\n")
        code, _, err = run_cli(["fit", "--freq", str(path), "--a", "400", "--m", "3"], capsys)
        assert code == 1
        assert err.startswith("preqscore: error:")
        assert "Traceback" not in err

    def test_overflowing_total_is_runtime_error_without_warning(self, tmp_path, capsys):
        """The weighted sum of the point scores overflows: the finiteness check
        reports it, and no numpy warning escapes (warnings are errors here)."""
        path = tmp_path / "freq.csv"
        path.write_text("0,1\n3,2\n")
        code, out, err = run_cli(["fit", "--freq", str(path), "--a", "0", "--m", "1e-308"], capsys)
        assert (code, out) == (1, "")
        assert err == "preqscore: error: empirical score at theta=2.0 is not finite (inf)\n"

    @pytest.mark.parametrize("flag", ["--a", "--m"])
    def test_log_term_overflow_is_float_range_error_without_warning(self, tmp_path, capsys, flag):
        """c = a - m near -+1.7e308 overflows c log(y + 1) in the log-space sums."""
        code, out, err = run_cli(["fit", "--data", write_data(tmp_path, [5, 3]), flag, "1.7e308"],
                                 capsys)
        assert (code, out) == (1, "")
        assert err == ("preqscore: error: the minimum-score mean for a - m = "
                       f"{'' if flag == '--a' else '-'}1.7e+308 is outside the float range\n")

    def test_negligible_log_term_overflow_keeps_the_fit_without_warning(self, tmp_path, capsys):
        path = tmp_path / "freq.csv"
        path.write_text("0,1\n1,1\n5,1\n")
        code, out, err = run_cli(["fit", "--freq", str(path), "--m", "1.7e308"], capsys)
        assert (code, err) == (0, "")
        assert out == '{"theta_hat": 1.0, "score": 0.0, "method": "closed-form", "iterations": 0}\n'

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
            inc, state = pq.prequential_step(state, x, QUAD)
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

    @pytest.mark.parametrize("prior", ["proper", "proper:", "proper:1", "proper:1,2,3",
                                       "proper:1,x", "proper:0,1", "improper:1,2", "jeffreys:1"])
    def test_malformed_prior_string_is_usage_error(self, tmp_path, capsys, prior):
        data = write_data(tmp_path, [1])
        code, out, err = run_cli(["score", "--data", data, "--model", "poisson", "--prior", prior], capsys)
        assert code == 2
        assert "--prior" in err
        assert out == ""


@pytest.mark.parametrize("command", [["compare"], ["score", "--mode", "preq"], ["score", "--mode", "suff"]],
                         ids=["compare", "score-preq", "score-suff"])
@pytest.mark.parametrize("flag, model, value", [
    ("--k", "poisson", "0"), ("--k", "poisson", "-1"), ("--k", "poisson", "inf"),
    ("--s", "negbin", "nan"), ("--s", "negbin", "0"),
    ("--s", "poisson", "nan"), ("--k", "negbin", "-1"),
])
def test_bad_model_size_is_usage_error(tmp_path, capsys, command, flag, model, value):
    data = write_data(tmp_path, [1, 2])
    argv = [*command, "--data", data, flag, value]
    if command[0] == "score":
        argv += ["--model", model]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert f"error: {flag}: " in err
    assert out == ""


@pytest.mark.parametrize("argv, document", [
    (["compare", "--prior", "improper:1,2"], None),
    (["compare", "--prior", "proper"], None),
    (["compare", "--prior", "jeffreys:0.5,0"], None),
    (["simulate"], {"kind": "improper", "hyper1": 1}),
    (["simulate"], {"kind": "proper", "hyper1": 1}),
    (["simulate"], {"kind": "proper", "hyper1": 1, "hyper2": 1, "extra": 3}),
    (["simulate"], "improper"),
], ids=["improper-with-hypers", "proper-bare", "jeffreys-with-hypers", "config-improper-hyper1",
        "config-proper-hyper1-only", "config-proper-extra", "config-string"])
def test_prior_entry_with_wrong_fields_is_usage_error(tmp_path, capsys, argv, document):
    """A prior entry's fault is stated in the CLI's words, not as a Python call signature."""
    if argv[0] == "compare":
        argv = [*argv, "--data", write_data(tmp_path, [1, 2])]
    else:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"poisson_prior": document}))
        argv = [*argv, "--truth", "poisson", "--config", str(cfg), "--out", str(tmp_path / "out")]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert "--prior" in err or "poisson_prior" in err
    for python_words in ("unexpected keyword", "required positional", "is not a mapping"):
        assert python_words not in err


@pytest.mark.parametrize("argv", [
    ["score", "--model", "poisson", "--k", "\u0661\u0660"],
    ["compare", "--a", "2_0"],
    ["simulate", "--truth", "poisson", "--n", "1_0"],
    ["simulate", "--truth", "poisson", "--seed", "\uff11"],
    ["score", "--model", "poisson", "--prior", "proper:1_0,2"],
], ids=["score-k-arabic-indic", "compare-a-underscore", "simulate-n-underscore",
        "simulate-seed-fullwidth", "prior-underscore"])
def test_numeric_flag_reads_only_ascii_tokens(tmp_path, capsys, argv):
    """Flags follow the data files' token rule, not Python's literal syntax."""
    flag = argv[-2]
    if argv[0] == "simulate":
        argv = [*argv, "--out", str(tmp_path / "out")]
    else:
        argv = [*argv, "--data", write_data(tmp_path, [1, 2, 3])]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert f"argument {flag}: " in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["fit", "--m", "0.5"],
    ["compare", "--prior", "jeffreys"],
    ["score", "--model", "negbin", "--prior", "jeffreys"],
    ["simulate", "--truth", "negbin", "--n", "20", "--replicates", "2"],
], ids=["fit", "compare", "score", "simulate"])
def test_negative_exponent_value_is_read_as_a_number(tmp_path, capsys, argv):
    """--a -1e-3 is the value -0.001, as --a=-1e-3 is, not a flag named -1e-3."""
    out_dir = tmp_path / "out"
    if argv[0] == "simulate":
        argv = [*argv, "--out", str(out_dir)]
    else:
        argv = [*argv, "--data", write_data(tmp_path, [0, 2, 5, 3])]
    runs = []
    for flag in (["--a", "-1e-3"], ["--a=-1e-3"]):
        code, out, err = run_cli([*argv, *flag], capsys)
        files = {path.name: path.read_bytes() for path in sorted(out_dir.glob("*"))}
        runs.append((code, out, err, files))
    code, _, err, _ = runs[0]
    assert (code, err) == (0, "")
    assert runs[0] == runs[1]


@pytest.mark.parametrize("k", ["1", "1e300", "1e308"])
def test_huge_exposure_scores_like_unit_exposure(tmp_path, capsys, k):
    """Under the usual improper prior the Poisson score does not depend on
    the exposure; n k + k overflows at k = 1e308, which the ratio never forms."""
    values = list(range(1, 11))
    data = write_data(tmp_path, values)
    bank = {"poisson": pq.PoissonGammaState(1.0, pq.PriorSpec.usual_improper())}
    expected = pq.run_prequential(values, bank, QUAD).final_score("poisson")
    for argv, key in ((["score", "--model", "poisson"], "score"), (["compare"], "poisson_score")):
        code, out, err = run_cli([*argv, "--data", data, "--k", k], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)[key] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("s", ["1e300", "1e308"])
def test_huge_size_scores_like_poisson(tmp_path, capsys, s):
    """Under the usual improper prior a huge NegBin size scores like the
    unit-exposure Poisson model; n s + s overflows at s = 1e308, which the
    ratio never forms."""
    values = list(range(1, 11))
    data = write_data(tmp_path, values)
    bank = {"poisson": pq.PoissonGammaState(1.0, pq.PriorSpec.usual_improper())}
    expected = pq.run_prequential(values, bank, QUAD).final_score("poisson")
    for argv, key in ((["score", "--model", "negbin"], "score"), (["compare"], "negbin_score")):
        code, out, err = run_cli([*argv, "--data", data, "--s", s], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)[key] == pytest.approx(expected, rel=1e-12)


def sum_jeffreys_poisson(values):
    state = pq.PoissonGammaState(1.0, pq.PriorSpec.jeffreys_poisson())
    total = 0.0
    for x in values:
        inc, state = pq.prequential_step(state, x, QUAD)
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
        code, _, err = run_cli(["simulate", "--config", str(cfg), "--truth", "poisson",
                                "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "'steps'" in err and "__init__()" not in err

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

    @pytest.mark.parametrize("document", [
        {"generator": {"kind": "poisson", "bogus": 1}},
        {"generator": {"kind": "poisson"}, "rule": {"a": 2.0, "bogus": 1}},
        {"generator": {"kind": "poisson"},
         "poisson_prior": {"kind": "proper", "hyper1": 1.0, "hyper2": 1.0, "bogus": 1}},
        {"generator": {"kind": "poisson"}, "poisson_prior": {"kind": "improper", "bogus": 1}},
        {"generator": {"kind": "poisson"}, "poisson_prior": {"kind": "jeffreys", "bogus": 1}},
        {"generator": {"kind": "poisson"}, "negbin_prior": {"kind": "jeffreys", "bogus": 1}},
        {"generator": {"kind": "poisson"}, "negbin_prior": "jeffreys"},
        {"generator": ["poisson"]},
        {"generator": 5},
        {"generator": "poisson"},
    ])
    def test_unknown_or_malformed_field_is_usage_error_at_every_level(self, tmp_path, capsys, document):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**document, "output": str(tmp_path / "out")}))
        errs = []
        for flags in ([], ["--truth", "poisson"]):
            code, out, err = run_cli(["simulate", "--config", str(cfg)] + flags, capsys)
            assert code == 2, (flags, err)
            assert out == ""
            assert "__init__()" not in err
            if "bogus" in json.dumps(document):
                assert "'bogus'" in err
            errs.append(err)
        assert not (tmp_path / "out").exists()
        if not all(isinstance(section, dict) for section in document.values()):
            # A section that is not an object reads the same whether or not a flag overlays it.
            assert errs[0] == errs[1]
            assert "must be a JSON object, got" in errs[0]

    @pytest.mark.parametrize("document, field", [
        ({"n_steps": 20.9}, "n_steps"),
        ({"n_steps": "20"}, "n_steps"),
        ({"replicates": 3.0}, "replicates"),
        ({"plot_paths": None}, "plot_paths"),
        ({"seed": True}, "seed"),
        ({"rule": {"a": "x"}}, "rule"),
        ({"model_s": "81"}, "model_s"),
        ({"generator": {"kind": "poisson", "rate": True}}, "generator: rate must be a number"),
        ({"generator": {"kind": "negbin", "s": True, "theta": 0.5}}, "generator: s must be a number"),
        ({"rule": {"a": True, "m": 2}}, "rule: a must be a number"),
        ({"model_k": True}, "model_k must be a number"),
        ({"model_s": True}, "model_s must be a number"),
        ({"poisson_prior": {"kind": "proper", "hyper1": True, "hyper2": 2}},
         "poisson_prior: hyper1 must be a number"),
        ({"negbin_prior": {"kind": "proper", "hyper1": 1, "hyper2": "2"}},
         "negbin_prior: hyper2 must be a number"),
        ({"model_k": 10**400}, "config: int too large to convert to float"),
        ({"generator": {"kind": "poisson", "rate": 10**400}}, "generator: int too large"),
        ({"rule": {"a": 10**400, "m": 2}}, "rule: int too large"),
        ({"poisson_prior": {"kind": "proper", "hyper1": 10**400, "hyper2": 2}},
         "poisson_prior: int too large"),
    ])
    def test_mistyped_config_value_is_usage_error(self, tmp_path, capsys, document, field):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"generator": {"kind": "poisson"}, "n_steps": 20, "replicates": 3,
                                   "plot_paths": 0, "output": str(tmp_path / "out"), **document}))
        code, out, err = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert code == 2
        assert field in err
        assert out == ""

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 5)])
    def test_seed_outside_64_bits_is_usage_error(self, tmp_path, capsys, seed):
        """Such a seed would alias one inside [0, 2**64) and write its diff.csv."""
        code, out, err = run_cli(["simulate", "--truth", "poisson", "--n", "5", "--replicates", "1",
                                  "--plot-paths", "0", "--seed", seed,
                                  "--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert "config: seed must lie in [0, 2**64)" in err
        assert out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("document, library", [
        ({"generator": {"kind": "negbin", "s": 5, "theta": 0.5}, "model_s": 81},
         dict(generator=pq.GeneratorSpec("negbin", s=5, theta=0.5), model_s=81)),
        ({"generator": {"kind": "negbin", "s": 5, "theta": 0.5}},
         dict(generator=pq.GeneratorSpec("negbin", s=5, theta=0.5))),
        ({"generator": {"kind": "poisson", "rate": 4.5}, "rule": {"a": 1, "m": 1.5}, "model_k": 2,
          "poisson_prior": {"kind": "proper", "hyper1": 1, "hyper2": 2},
          "negbin_prior": {"kind": "jeffreys"}},
         dict(generator=pq.GeneratorSpec("poisson", rate=4.5), rule=pq.RuleParams(1, 1.5),
              model_k=2, poisson_prior=pq.PriorSpec.proper(1, 2),
              negbin_prior=pq.PriorSpec.jeffreys_negbin())),
    ])
    def test_config_document_matches_library(self, tmp_path, capsys, document, library):
        sizes = {"n_steps": 30, "replicates": 3, "plot_paths": 1, "seed": 17}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**document, **sizes, "output": str(tmp_path / "cli")}))
        code, _, err = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert code == 0, err
        lib_csv = tmp_path / "lib.csv"
        pq.export_csv(pq.run_experiment(pq.ExperimentConfig(**library, **sizes)), lib_csv)
        assert (tmp_path / "cli" / "diff.csv").read_bytes() == lib_csv.read_bytes()

    @pytest.mark.parametrize("size_flags, plotted", [
        (["--replicates", "5"], 5), (["--replicates", "12"], 10), (["--plot-paths", "0"], 0)],
        ids=["replicates-5", "replicates-12", "plot-paths-0"])
    def test_plot_paths_defaults_to_at_most_ten(self, tmp_path, capsys, size_flags, plotted):
        """Without --plot-paths or a plot_paths field, min(10, replicates) sequences are plotted."""
        code, _, err = run_cli(["simulate", "--truth", "poisson", "--n", "10", *size_flags,
                                "--out", str(tmp_path / "flags")], capsys)
        assert code == 0, err
        assert (tmp_path / "flags" / "diff.svg").read_text().count("<polyline") == plotted + 1

    def test_plot_paths_default_applies_to_a_config_document(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"generator": {"kind": "poisson"}, "n_steps": 10, "replicates": 3,
                                   "output": str(tmp_path / "config")}))
        assert run_cli(["simulate", "--config", str(cfg)], capsys)[0] == 0
        assert (tmp_path / "config" / "diff.svg").read_text().count("<polyline") == 4
        with pytest.raises(ValueError, match="plot_paths must lie between 0 and replicates=5"):
            pq.ExperimentConfig(replicates=5, plot_paths=6)

    def test_s_flag_sets_generator_and_model_size(self, tmp_path, capsys):
        args = ["--n", "30", "--replicates", "3", "--plot-paths", "0", "--seed", "5"]
        run_cli(["simulate", "--truth", "negbin", "--s", "5", "--theta", "0.5",
                 "--out", str(tmp_path / "flags")] + args, capsys)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"generator": {"kind": "negbin", "s": 5, "theta": 0.5},
                                   "model_s": 5, "output": str(tmp_path / "config")}))
        run_cli(["simulate", "--config", str(cfg)] + args, capsys)
        flags_csv = (tmp_path / "flags" / "diff.csv").read_bytes()
        assert flags_csv == (tmp_path / "config" / "diff.csv").read_bytes()
        run_cli(["simulate", "--config", str(cfg), "--s", "81", "--out", str(tmp_path / "big")] + args,
                capsys)
        assert (tmp_path / "big" / "diff.csv").read_bytes() != flags_csv


# A valid value for each simulate flag (a new row needs one), and the fields of each config section.
FLAG_VALUES = {"--truth": "negbin", "--n": "10", "--replicates": "3", "--plot-paths": "1", "--seed": "4",
               "--rate": "3", "--theta": "0.5", "--k": "2", "--s": "5", "--prior": "proper:1,2",
               "--a": "1", "--m": "3", "--out": "out", "--config": "config.json"}
CONFIG_FIELDS = set(pq.ExperimentConfig.__slots__)
SECTION_FIELDS = {
    "generator": set(pq.GeneratorSpec.__slots__),
    "rule": set(pq.RuleParams.__slots__),
    "poisson_prior": {"kind", "hyper1", "hyper2"},
    "negbin_prior": {"kind", "hyper1", "hyper2"},
}


@pytest.mark.parametrize("flag", list(_simulate_flags()))
def test_simulate_flag_sets_exactly_its_fields(flag):
    """Each row of the flag table sets the config fields it lists, and each names a real field."""
    fields, _ = _simulate_flags()[flag]
    args = build_parser().parse_args(["simulate", flag, FLAG_VALUES[flag]])
    value = vars(args)[flag[2:].replace("-", "_")]
    assert value is not None
    expected = {}
    for field in fields:
        key, _, name = field.partition(".")
        assert key in CONFIG_FIELDS, field
        if name:
            assert name in SECTION_FIELDS[key], field
            expected.setdefault(key, {})[name] = value
        else:
            expected[key] = value
    assert _overlay({}, args) == expected


@pytest.mark.parametrize("argv, flags", [
    (["compare", "--data", "d.txt"], ("prior", "k", "s", "a", "m")),
    (["score", "--data", "d.txt", "--model", "negbin"], ("prior", "k", "s", "a", "m")),
    (["fit", "--data", "d.txt"], ("a", "m")),
], ids=["compare", "score", "fit"])
def test_model_flag_defaults_are_the_config_defaults(capsys, argv, flags):
    """compare, score and fit default their model flags to ExperimentConfig's
    values, and each flag's help line names that default."""
    config = pq.ExperimentConfig()
    expected = {"prior": {"kind": "improper"}, "k": config.model_k, "s": config.model_s,
                "a": config.rule.a, "m": config.rule.m}
    args = build_parser().parse_args(argv)
    assert {flag: getattr(args, flag) for flag in flags} == {flag: expected[flag] for flag in flags}
    with pytest.raises(SystemExit):
        build_parser().parse_args([argv[0], "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for flag in flags:
        line = text.rsplit(f"--{flag} {flag.upper()} ", 1)[1].split(" --")[0]
        shown = "improper" if flag == "prior" else f"{expected[flag]:g}"
        assert f"(default {shown})" in line, (flag, line)
