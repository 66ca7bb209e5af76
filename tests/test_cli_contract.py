"""The CLI contract as a property: whatever the flags, data and config,
preqscore exits 0, 1 or 2 without a traceback or a warning, and prints
strict JSON (or simulate's two ``wrote`` lines) when it succeeds."""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from preqscore.cli import main

# Each flag's values: (valid, edge cases).  @name stands for a file or
# directory in the example's own temporary directory; @dir is that directory.
NUMBERS = (["2", "0.5", "1.5", "3", "81"],
           ["1", "0", "-0", "5e-324", "1e-308", "1e308", "1.7e308", "nan", "inf", "-inf", "-1",
            str(2**63), str(10**400), "x", "1_0", ""])
SIZES = (["5", "2", "1"], ["0", "-1", "2.5", "x"])  # --n and --replicates stay small
SEEDS = (["0", "7", str(2**64 - 1)], [str(2**64), "-1", str(10**400)])
PRIORS = (["improper", "jeffreys", "proper:1,2"],
          ["proper:0,0", "proper:-1,1", "proper:1.7e308,1", "proper:1,1.7e308", "proper:5e-324,1e-308",
           "proper:nan,1", "proper:inf,1", "proper:1", "proper", "bogus", ""])
MODELS = (["poisson", "negbin"], ["x"])
DATA = (["@data"], ["@missing", "@dir"])
FREQ = (["@freq"], ["@data", "@missing", "@dir"])
MODEL_FLAGS = {"--prior": PRIORS, "--k": NUMBERS, "--s": NUMBERS, "--a": NUMBERS, "--m": NUMBERS}
COMMAND_FLAGS = {
    "simulate": {"--truth": MODELS, "--n": SIZES, "--replicates": SIZES, "--plot-paths": SIZES,
                 "--seed": SEEDS, "--rate": NUMBERS, "--theta": NUMBERS, **MODEL_FLAGS,
                 "--out": (["@out"], ["@data"]), "--config": (["@config"], ["@missing", "@data"])},
    "compare": {"--data": DATA, "--reference": MODELS, "--trace": (["@trace"], ["@dir"]),
                **MODEL_FLAGS},
    "fit": {"--data": DATA, "--freq": FREQ, "--a": NUMBERS, "--m": NUMBERS},
    "score": {"--data": DATA, "--freq": FREQ, "--model": MODELS,
              "--mode": (["preq", "suff"], ["x"]), **MODEL_FLAGS},
}
# The flags a run needs: one of each group.
REQUIRED = {"simulate": [("--truth",), ("--out",)], "compare": [("--data",)],
            "fit": [("--data", "--freq")], "score": [("--data", "--freq"), ("--model",)]}

# A data or frequency file: well formed, or short tokens of digits, signs,
# blanks and commas, one per line.
_TOKENS = (st.text("0123456789+-,. \t\r_\u0663", max_size=5)
           | st.integers(0, 40).map(str)
           | st.tuples(st.integers(0, 40), st.integers(0, 5)).map(lambda row: f"{row[0]},{row[1]}")
           | st.sampled_from([str(10**6), str(2**63 - 1), str(2**63), f"5,{2**63}", str(10**400),
                             f"5,{10**400}"]))
_LINES = (st.lists(_TOKENS, max_size=6)
          | st.lists(st.integers(0, 40).map(str), min_size=1, max_size=8)
          | st.dictionaries(st.integers(0, 40), st.integers(0, 5), min_size=1, max_size=5).map(
              lambda table: [f"{value},{count}" for value, count in table.items()]))
_FILES = st.builds(lambda lines, end: "\n".join(lines) + end, _LINES, st.sampled_from(["\n", ""]))

# A simulate config document: known and unknown keys, values of any JSON type and nesting.
_LEAVES = (st.none() | st.booleans()
           | st.sampled_from([0, 1, -1, 2, 0.5, 1.5, 81, 1e308, float("nan"), 10**400, "x",
                              "poisson", "negbin", "improper", "jeffreys", "proper"]))
_KEYS = st.sampled_from(["kind", "rate", "theta", "s", "a", "m", "hyper1", "hyper2", "bogus"])
_VALUES = st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=2)
                       | st.dictionaries(_KEYS, inner, max_size=2), max_leaves=4)
_SECTIONS = st.dictionaries(_KEYS, _VALUES, max_size=4) | _VALUES
_SMALL = st.sampled_from([0, 1, 2, 5, -1, 2.5, "5", True, None])
_CONFIGS = st.fixed_dictionaries({"n_steps": _SMALL, "replicates": _SMALL}, optional={
    "generator": _SECTIONS, "rule": _SECTIONS, "poisson_prior": _SECTIONS,
    "negbin_prior": _SECTIONS, "plot_paths": _SMALL,
    "seed": st.sampled_from([0, 7, 2**64, -1, "7"]), "model_k": _LEAVES, "model_s": _LEAVES,
    "output": st.sampled_from(["@out", None, 3]), "bogus": _VALUES,
})


@st.composite
def _argvs(draw):
    """A subcommand with its required flags (each left out one time in four),
    up to four others, and a value for each (an edge case one time in four)."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flags = COMMAND_FLAGS[command]
    chosen = [draw(st.sampled_from(group)) for group in REQUIRED[command] if draw(st.integers(0, 3))]
    optional = sorted(flags.keys() - {flag for group in REQUIRED[command] for flag in group})
    chosen += draw(st.lists(st.sampled_from(optional), unique=True, max_size=4))
    if command == "simulate" and "--config" not in chosen:  # else the config document sizes the run
        chosen += sorted({"--n", "--replicates"} - set(chosen))
    argv = [command]
    for flag in chosen:
        valid, edge = flags[flag]
        argv += [flag, draw(st.sampled_from(edge if draw(st.integers(0, 3)) == 3 else valid))]
    return argv


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-finite constant {constant}")
    return json.loads(text, parse_constant=reject)


@settings(max_examples=400, deadline=None)
@given(_argvs(), _FILES, _FILES, _CONFIGS)
@example(["fit", "--data", "@data", "--a", "1.7e308"], "5\n3\n", "", {"n_steps": 5, "replicates": 2})
@example(["fit", "--freq", "@freq", "--m", "1.7e308"], "", "0,1\n1,1\n5,1\n",
         {"n_steps": 5, "replicates": 2})
@example(["fit", "--freq", "@freq"], "", f"5,{10**400}\n", {"n_steps": 5, "replicates": 2})
@example(["simulate", "--truth", "negbin", "--n", "5", "--replicates", "2", "--out", "@out"], "", "",
         {"n_steps": 5, "replicates": 2})
@example(["simulate", "--config", "@config"], "", "",
         {"generator": {"kind": "poisson", "bogus": 1}, "n_steps": 5, "replicates": 2, "output": "@out"})
def test_cli_contract(argv, data, freq, config):
    with tempfile.TemporaryDirectory() as workdir:
        paths = {f"@{name}": os.path.join(workdir, name)
                 for name in ("data", "freq", "missing", "config", "out", "trace")}
        paths["@dir"] = workdir
        for name, text in (("@data", data), ("@freq", freq)):
            with open(paths[name], "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        with open(paths["@config"], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(config).replace('"@out"', json.dumps(paths["@out"])))
        argv = [paths.get(arg, arg) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        out, err = out.getvalue(), err.getvalue()

    assert code in (0, 1, 2), (code, err)
    for text in ("__init__()", "unexpected keyword", "positional argument", "Warning", "Traceback"):
        assert text not in err, err
    if code == 0 and argv[0] == "simulate":
        assert out == "".join(f"wrote {os.path.join(paths['@out'], name)}\n"
                              for name in ("diff.csv", "diff.svg"))
    elif code == 0:
        assert out.endswith("\n") and "\n" not in out[:-1]
        assert isinstance(_strict_json(out), dict)
    else:
        assert out == ""
        assert err.startswith("preqscore: error: " if code == 1 else "usage: preqscore")
