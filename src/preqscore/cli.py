"""Command-line entry point: simulate / compare / fit / score.

All numeric work is delegated to the library; this module only parses
flags, reads files and prints results.  Exit codes: 0 success, 1 runtime
or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import re
import sys
from itertools import chain
from pathlib import Path

from . import _np as np
from .chart import render_svg
from .conjugate import (
    ConjugateState,
    NegBinBetaState,
    PoissonGammaState,
    PriorSpec,
    sufficient_score,
)
from .engine import _selected, prequential_blocks
# Unused here, but perfbench/tracer.py looks the engine up on this module.
from .engine import run_prequential  # noqa: F401
from .estimation import fit_minimum_score
from .scoring import FrequencyTable, RuleParams
from .simulation import (
    NEGBIN,
    POISSON,
    ExperimentConfig,
    GeneratorSpec,
    export_csv,
    run_experiment,
    write_rows,
)

__all__ = ["main"]


class CliUsageError(Exception):
    """Bad flag or configuration value; reported with usage text, exit 2."""


class CliDataError(Exception):
    """Bad input data or I/O problem; reported on stderr, exit 1."""


# ------------------------------------------------------------------ #
# Input parsing helpers
# ------------------------------------------------------------------ #


def _read_text(path: str) -> str:
    """The text of a data file; an unreadable file is a data error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise CliDataError(f"cannot read {path}: {err}") from err


def _data_lines(path: str, text: str):
    """(line number, stripped line) for each line of a data file's text.

    An empty line is a data error.
    """
    for lineno, line in enumerate(text.splitlines(), start=1):
        token = line.strip()
        if not token:
            raise CliDataError(f"{path}: line {lineno}: empty line")
        yield lineno, token


def _ascii(parse):
    """parse restricted to ASCII tokens without underscores.

    int() and float() alone would also read underscores (1_000) and
    non-ASCII digits (U+0663, fullwidth digits); those tokens raise
    ValueError here.  The result keeps parse's name, which argparse quotes
    when it rejects a flag value.
    """
    def read(token: str):
        if not token.isascii() or "_" in token:
            raise ValueError(f"not an ASCII number: {token!r}")
        return parse(token)

    read.__name__ = parse.__name__
    return read


# Every number in a data file, a numeric flag or a --prior string is read by one of these.
_decimal = _ascii(int)
_float = _ascii(float)


# A token of 19 or more digits can exceed int64, which np.fromstring clamps without a word.
_LONG_TOKEN = re.compile(r"[0-9]{19}")


def _is_plain(text: str) -> bool:
    """Whether text is ASCII digits and LF only, with no empty line and no 19-digit token.

    Such a text holds one count per line, each below 2**63.  The checks
    are whole-text string methods and one regex scan, not a repeated-group
    regex, whose backtracking state grows with the text.
    """
    return (text.isascii() and not text.startswith("\n") and "\n\n" not in text
            and text.replace("\n", "").isdigit() and not _LONG_TOKEN.search(text))


def _read_observations(path: str) -> list[int] | np.ndarray:
    """One non-negative integer per line, LF separated.

    A plain text (see _is_plain) is converted in one pass to an int64
    array.  Any other text is read line by line into a list of ints,
    which names the first bad line.
    """
    text = _read_text(path)
    if _is_plain(text):
        return np.fromstring(text, dtype=np.int64, sep="\n")
    values: list[int] = []
    for lineno, token in _data_lines(path, text):
        try:
            value = _decimal(token)
        except ValueError:
            raise CliDataError(f"{path}: line {lineno}: not an integer: {token!r}") from None
        if value < 0:
            raise CliDataError(f"{path}: line {lineno}: negative count {value}")
        values.append(value)
    if not values:
        raise CliDataError(f"{path}: no observations")
    return values


def _read_frequency_table(path: str) -> FrequencyTable:
    """``value,count`` rows, one per line."""
    counts: dict[int, int] = {}
    for lineno, token in _data_lines(path, _read_text(path)):
        fields = token.split(",")
        if len(fields) != 2:
            raise CliDataError(f"{path}: line {lineno}: expected 'value,count', got {token!r}")
        try:
            value, count = _decimal(fields[0]), _decimal(fields[1])
        except ValueError:
            raise CliDataError(f"{path}: line {lineno}: expected integers, got {token!r}") from None
        if value < 0 or count < 0:
            raise CliDataError(f"{path}: line {lineno}: negative entry in {token!r}")
        if value in counts:
            raise CliDataError(f"{path}: line {lineno}: duplicate value {value}")
        counts[value] = count
    table = FrequencyTable(counts)
    if table.n == 0:
        raise CliDataError(f"{path}: no observations")
    return table


def _build(where: str, make, /, *args, **fields):
    """make(*args, **fields), with a bad value reported as a usage error about where.

    A bad value is one make rejects with TypeError or ValueError, or an
    integer too large for a float (OverflowError).
    """
    try:
        return make(*args, **fields)
    except (TypeError, ValueError, OverflowError) as err:
        raise CliUsageError(f"{where}: {err}") from None


def _prior_entry(spec: str) -> dict:
    """The config prior entry a ``--prior`` string names (an argparse type)."""
    kind, colon, values = spec.partition(":")
    try:
        hypers = [_float(h) for h in values.split(",")] if colon else []
    except ValueError:
        hypers = None
    if hypers is None or len(hypers) not in (0, 2):
        raise argparse.ArgumentTypeError(f"expected improper, jeffreys or proper:h1,h2, got {spec!r}")
    return {"kind": kind, **dict(zip(("hyper1", "hyper2"), hypers))}


def _resolve_prior(entry: dict, family: str) -> PriorSpec:
    """A model family's prior from a config entry.

    The entry is ``{"kind": "improper"}``, ``{"kind": "jeffreys"}`` (which
    resolves per family) or ``{"kind": "proper", "hyper1": h1, "hyper2": h2}``.
    """
    kinds = {
        "improper": ((), PriorSpec.usual_improper),
        "jeffreys": ((), PriorSpec.jeffreys_poisson if family == POISSON else PriorSpec.jeffreys_negbin),
        "proper": (("hyper1", "hyper2"), PriorSpec.proper),
    }
    for kind, (names, make) in kinds.items():
        if entry.get("kind") == kind and entry.keys() == {"kind", *names}:
            return make(*(entry[name] for name in names))
    raise ValueError(
        f"expected kind improper or jeffreys alone, or proper with hyper1 and hyper2, got {entry!r}")


# ------------------------------------------------------------------ #
# simulate
# ------------------------------------------------------------------ #

_DEFAULTS = ExperimentConfig()  # the defaults quoted in the help text

# The simulate flags that compare and score take too (fit takes --a and --m
# alone), with their defaults there: ExperimentConfig's, for both models.
# argparse reads the string default of --prior through _prior_entry.
_MODEL_DEFAULTS = {"--prior": "improper", "--k": _DEFAULTS.model_k, "--s": _DEFAULTS.model_s,
                   "--a": _DEFAULTS.rule.a, "--m": _DEFAULTS.rule.m}

# Each simulate flag: the config fields it sets ("section.field" inside a
# section) and its argparse settings.
_SIMULATE_FLAGS = {
    "--truth": (("generator.kind",), dict(choices=(POISSON, NEGBIN), help="generating distribution")),
    "--n": (("n_steps",),
            dict(type=_decimal, help=f"observations per sequence (default {_DEFAULTS.n_steps})")),
    "--replicates": (("replicates",),
                     dict(type=_decimal, help=f"number of sequences (default {_DEFAULTS.replicates})")),
    "--plot-paths": (("plot_paths",), dict(type=_decimal, help="individually plotted sequences "
                                           f"(default min({_DEFAULTS.plot_paths}, replicates))")),
    "--seed": (("seed",), dict(type=_decimal, help=f"master seed (default {_DEFAULTS.seed})")),
    "--rate": (("generator.rate",),
               dict(type=_float, help=f"Poisson generating mean (default {_DEFAULTS.generator.rate:g})")),
    "--theta": (("generator.theta",), dict(type=_float, help="Negative Binomial generating probability "
                                           f"(default {_DEFAULTS.generator.theta:g})")),
    "--k": (("model_k",),
            dict(type=_float, help=f"Poisson model exposure (default {_DEFAULTS.model_k:g})")),
    "--s": (("generator.s", "model_s"),
            dict(type=_float, help="Negative Binomial model size, in simulate also the generating "
                 f"size (default {_DEFAULTS.model_s:g})")),
    "--prior": (("poisson_prior", "negbin_prior"),
                dict(type=_prior_entry, help="prior of each model: improper, jeffreys or proper:h1,h2 "
                     f"(default {_MODEL_DEFAULTS['--prior']})")),
    "--a": (("rule.a",), dict(type=_float, help=f"rule exponent a (default {_DEFAULTS.rule.a:g})")),
    "--m": (("rule.m",),
            dict(type=_float, help=f"rule order m, positive and != 1 (default {_DEFAULTS.rule.m:g})")),
    "--out": (("output",), dict(help="output directory for diff.csv and diff.svg")),
    "--config": ((), dict(help="JSON config file; flags override its values")),
}


def _fields(cls, entry: dict):
    """cls(**entry), once each key of the config entry is known to name a field of cls."""
    names = {field.name for field in dataclasses.fields(cls)}
    for key in entry:
        if key not in names:
            raise ValueError(f"unknown field {key!r}")
    return cls(**entry)


# Config sections, each built from its entry before ExperimentConfig is.
_SECTIONS = {
    "generator": lambda entry: _fields(GeneratorSpec, entry),
    "rule": lambda entry: _fields(RuleParams, entry),
    "poisson_prior": lambda entry: _resolve_prior(entry, POISSON),
    "negbin_prior": lambda entry: _resolve_prior(entry, NEGBIN),
}


def _load_config_file(path: str) -> dict:
    try:
        document = json.loads(_read_text(path))
    except json.JSONDecodeError as err:
        raise CliUsageError(f"{path}: invalid JSON: {err}") from None
    if not isinstance(document, dict):
        raise CliUsageError(f"{path}: config must be a JSON object")
    return document


def _section(config: dict, key: str) -> dict:
    """The config section under key, {} when absent; a section must be a JSON object."""
    section = config.get(key, {})
    if not isinstance(section, dict):
        raise CliUsageError(f"{key}: must be a JSON object, got {section!r}")
    return section


def _overlay(document: dict, args: argparse.Namespace) -> dict:
    """The config document with every simulate flag that was given laid over it."""
    config = dict(document)
    for flag, (fields, _) in _SIMULATE_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        for field in fields if value is not None else ():
            key, _, name = field.partition(".")
            config[key] = {**_section(config, key), name: value} if name else value
    return config


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _overlay(_load_config_file(args.config) if args.config else {}, args)
    if "kind" not in _section(config, "generator"):
        raise CliUsageError("simulate needs --truth poisson|negbin (or a generator in --config)")
    if not isinstance(config.get("output"), str):
        raise CliUsageError("simulate needs --out DIR (or output in --config)")
    for key, make in _SECTIONS.items():
        if key in config:
            config[key] = _build(key, make, _section(config, key))
    replicates = config.get("replicates", _DEFAULTS.replicates)
    if isinstance(replicates, int):
        config.setdefault("plot_paths", min(_DEFAULTS.plot_paths, replicates))
    config = _build("config", _fields, ExperimentConfig, config)

    result = run_experiment(config)
    os.makedirs(config.output, exist_ok=True)
    for name, write in (("diff.csv", export_csv), ("diff.svg", render_svg)):
        path = os.path.join(config.output, name)
        write(result, path)
        print(f"wrote {path}")
    return 0


# ------------------------------------------------------------------ #
# compare / fit / score
# ------------------------------------------------------------------ #


def _bank(args: argparse.Namespace) -> dict[str, ConjugateState]:
    """Both model states, by family name, from the --prior, --k and --s flags."""
    prior = {family: _build("--prior", _resolve_prior, args.prior, family) for family in (POISSON, NEGBIN)}
    return {
        POISSON: _build("--k", PoissonGammaState, args.k, prior[POISSON]),
        NEGBIN: _build("--s", NegBinBetaState, args.s, prior[NEGBIN]),
    }


def cmd_compare(args: argparse.Namespace) -> int:
    """Score --data under both models and print the JSON report.

    The stream is scored once, block by block: --trace is opened only once
    the first block has scored, and each block's rows are written as it is
    scored, so memory beyond the input holds one block.  A scoring failure
    in the first block leaves no trace file; a later one leaves the rows
    of the blocks before it.
    """
    rule = _build("rule", RuleParams, args.a, args.m)
    observations = _read_observations(args.data)
    bank = _bank(args)
    blocks = prequential_blocks(observations, bank, rule)
    first = next(blocks)
    with (open(args.trace, "w", encoding="ascii", newline="") if args.trace
          else contextlib.nullcontext()) as fh:
        if fh:
            fh.write("step,observation,poisson_increment,negbin_increment,"
                     "poisson_cumulative,negbin_cumulative\n")
        for start, xs, increments, cumulative in chain([first], blocks):
            if fh:
                # _bank's order, poisson then negbin, is the column order.
                write_rows(fh, "%d,%d,%.12g,%.12g,%.12g,%.12g\n", range(start + 1, start + xs.size + 1),
                           xs, *increments.T, *cumulative.T)
    scores = cumulative[-1]
    final = dict(zip(bank, scores.tolist()))
    reference = args.reference
    other = NEGBIN if reference == POISSON else POISSON
    report = {
        "poisson_score": final[POISSON],
        "negbin_score": final[NEGBIN],
        "difference": final[other] - final[reference],
        "reference": reference,
        "selected": _selected(tuple(bank), scores),
    }
    print(json.dumps(report, allow_nan=False))
    return 0


def _read_table(args: argparse.Namespace) -> FrequencyTable:
    """The sample named by --freq or --data, as a frequency table."""
    if args.freq:
        return _read_frequency_table(args.freq)
    return FrequencyTable.from_observations(_read_observations(args.data))


def cmd_fit(args: argparse.Namespace) -> int:
    rule = _build("rule", RuleParams, args.a, args.m)
    table = _read_table(args)
    result = fit_minimum_score(table, rule)
    print(json.dumps({
        "theta_hat": result.theta_hat,
        "score": result.achieved_score,
        "method": result.method,
        "iterations": result.iterations,
    }, allow_nan=False))
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    rule = _build("rule", RuleParams, args.a, args.m)
    state = _bank(args)[args.model]
    if args.freq and args.mode == "preq":
        raise CliUsageError("prequential scoring needs ordered data; use --data, not --freq")
    if args.mode == "suff":
        table = _read_table(args)
        total = sufficient_score(state, table.t, table.n, rule)
    else:
        observations = _read_observations(args.data)
        for *_, cumulative in prequential_blocks(observations, {args.model: state}, rule):
            pass  # only the last block's cumulative scores are kept
        total = float(cumulative[-1, 0])
    print(json.dumps({"model": args.model, "mode": args.mode, "score": total}, allow_nan=False))
    return 0


# ------------------------------------------------------------------ #
# Parser assembly
# ------------------------------------------------------------------ #


def _add_shared_flags(parser: argparse.ArgumentParser, flags) -> None:
    """The named simulate flags, each with its _MODEL_DEFAULTS default."""
    for flag in flags:
        parser.add_argument(flag, default=_MODEL_DEFAULTS[flag], **_SIMULATE_FLAGS[flag][1])


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every token starting -digit or -.digit as a value.

    Python 3.11's argparse takes an exponent-form negative number, such
    as the -1e-3 of ``--a -1e-3``, for a flag; newer CPython widened its
    pattern to this one.  No preqscore option starts with a digit.  The
    subcommand parsers are of this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="preqscore",
        description="Prequential model selection for count data via homogeneous "
                    "local scoring rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a replicated comparison experiment")
    for flag, (_, settings) in _SIMULATE_FLAGS.items():
        p_sim.add_argument(flag, **settings)
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="score a data file under both models prequentially")
    p_cmp.add_argument("--data", required=True, help="file with one count per line")
    p_cmp.add_argument("--reference", choices=(POISSON, NEGBIN), default=POISSON,
                       help="model subtracted in the reported difference (default poisson)")
    p_cmp.add_argument("--trace", help="optional CSV path for the per-step trace")
    _add_shared_flags(p_cmp, _MODEL_DEFAULTS)
    p_cmp.set_defaults(func=cmd_compare)

    p_fit = sub.add_parser("fit", help="minimum-score fit of a Poisson mean")
    src = p_fit.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="file with one count per line")
    src.add_argument("--freq", help="file with value,count rows")
    _add_shared_flags(p_fit, ("--a", "--m"))
    p_fit.set_defaults(func=cmd_fit)

    p_sc = sub.add_parser("score", help="total score of a data file under one model")
    src = p_sc.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="file with one count per line")
    src.add_argument("--freq", help="file with value,count rows (sufficient-statistic mode only)")
    p_sc.add_argument("--model", choices=(POISSON, NEGBIN), required=True)
    p_sc.add_argument("--mode", choices=("preq", "suff"), default="preq",
                      help="prequential or sufficient-statistic scoring (default preq)")
    _add_shared_flags(p_sc, _MODEL_DEFAULTS)
    p_sc.set_defaults(func=cmd_score)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliUsageError as err:
        parser.error(str(err))  # prints usage, raises SystemExit(2)
    except (CliDataError, ValueError, OSError) as err:
        print(f"preqscore: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
