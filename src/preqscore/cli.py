"""Command-line entry point: simulate / compare / fit / score.

All numeric work is delegated to the library; this module only parses
flags, reads files and prints results.  Exit codes: 0 success, 1 runtime
or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .chart import render_svg
from .conjugate import (
    NegBinBetaState,
    PoissonGammaState,
    PriorSpec,
    negbin_sufficient_score,
    poisson_sufficient_score,
)
from .engine import ConjugateState, run_prequential, select_model
from .estimation import fit_minimum_score
from .scoring import FrequencyTable, RuleParams, ScoreDomainError
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


def _data_lines(path: str):
    """(line number, stripped line) for each line of a data file.

    An unreadable file and an empty line are data errors.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise CliDataError(f"cannot read {path}: {err}") from err
    for lineno, line in enumerate(text.splitlines(), start=1):
        token = line.strip()
        if not token:
            raise CliDataError(f"{path}: line {lineno}: empty line")
        yield lineno, token


def _read_observations(path: str) -> list[int]:
    """One non-negative integer per line, LF separated."""
    values: list[int] = []
    for lineno, token in _data_lines(path):
        try:
            value = int(token)
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
    for lineno, token in _data_lines(path):
        fields = token.split(",")
        if len(fields) != 2:
            raise CliDataError(f"{path}: line {lineno}: expected 'value,count', got {token!r}")
        try:
            value, count = int(fields[0]), int(fields[1])
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
    """make(*args, **fields), with a TypeError or ValueError reported as a usage error about where."""
    try:
        return make(*args, **fields)
    except (TypeError, ValueError) as err:
        raise CliUsageError(f"{where}: {err}") from None


def _prior_entry(spec: str) -> dict:
    """The config prior entry a ``--prior`` string names (an argparse type)."""
    kind, colon, values = spec.partition(":")
    try:
        hypers = [float(h) for h in values.split(",")] if colon else []
    except ValueError:
        hypers = None
    if hypers is None or len(hypers) not in (0, 2):
        raise argparse.ArgumentTypeError(f"expected improper, jeffreys or proper:h1,h2, got {spec!r}")
    return {"kind": kind, **dict(zip(("hyper1", "hyper2"), hypers))}


def _resolve_prior(entry: dict, family: str) -> PriorSpec:
    """A model family's prior from a config entry ``{"kind", "hyper1", "hyper2"}``."""
    factories = {
        "improper": PriorSpec.usual_improper,
        "jeffreys": PriorSpec.jeffreys_poisson if family == POISSON else PriorSpec.jeffreys_negbin,
        "proper": PriorSpec.proper,
    }
    fields = {**entry}
    kind = fields.pop("kind", None)
    if kind not in factories:
        raise ValueError(f"prior kind must be improper, jeffreys or proper, got {kind!r}")
    return factories[kind](**fields)


# ------------------------------------------------------------------ #
# simulate
# ------------------------------------------------------------------ #

# Each simulate flag and the config fields it sets ("section.field" inside a section).
_SIMULATE_FLAGS = {
    "truth": ("generator.kind",),
    "rate": ("generator.rate",),
    "theta": ("generator.theta",),
    "s": ("generator.s", "model_s"),
    "k": ("model_k",),
    "n": ("n_steps",),
    "replicates": ("replicates",),
    "plot_paths": ("plot_paths",),
    "seed": ("seed",),
    "a": ("rule.a",),
    "m": ("rule.m",),
    "prior": ("poisson_prior", "negbin_prior"),
    "out": ("output",),
}

# Config sections, each built from its entry before ExperimentConfig is.
_SECTIONS = {
    "generator": lambda entry: GeneratorSpec(**entry),
    "rule": lambda entry: RuleParams(**entry),
    "poisson_prior": lambda entry: _resolve_prior(entry, POISSON),
    "negbin_prior": lambda entry: _resolve_prior(entry, NEGBIN),
}


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise CliDataError(f"cannot read {path}: {err}") from err
    try:
        document = json.loads(text)
    except json.JSONDecodeError as err:
        raise CliUsageError(f"{path}: invalid JSON: {err}") from None
    if not isinstance(document, dict):
        raise CliUsageError(f"{path}: config must be a JSON object")
    return document


def _overlay(document: dict, args: argparse.Namespace) -> dict:
    """The config document with every simulate flag that was given laid over it."""
    config = dict(document)
    for flag, fields in _SIMULATE_FLAGS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        for field in fields:
            key, _, name = field.partition(".")
            if name:
                section = config.get(key, {})
                if not isinstance(section, dict):
                    raise CliUsageError(f"{key}: must be a JSON object, got {section!r}")
                config[key] = {**section, name: value}
            else:
                config[key] = value
    return config


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _overlay(_load_config_file(args.config) if args.config else {}, args)
    generator = config.get("generator", {})
    if isinstance(generator, dict) and "kind" not in generator:
        raise CliUsageError("simulate needs --truth poisson|negbin (or a generator in --config)")
    if not isinstance(config.get("output"), str):
        raise CliUsageError("simulate needs --out DIR (or output in --config)")
    for key, make in _SECTIONS.items():
        if key in config:
            config[key] = _build(key, make, config[key])
    config = _build("config", ExperimentConfig, **config)

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


def _model_state(args: argparse.Namespace, family: str) -> ConjugateState:
    """A family's model state from the --prior, --k and --s flags."""
    prior = _build("--prior", _resolve_prior, args.prior, family)
    return PoissonGammaState(args.k, prior) if family == POISSON else NegBinBetaState(args.s, prior)


def cmd_compare(args: argparse.Namespace) -> int:
    rule = _build("rule", RuleParams, args.a, args.m)
    observations = _read_observations(args.data)
    trace = run_prequential(observations, {f: _model_state(args, f) for f in (POISSON, NEGBIN)}, rule)
    reference = args.reference
    other = NEGBIN if reference == POISSON else POISSON
    report = {
        "poisson_score": trace.final_score(POISSON),
        "negbin_score": trace.final_score(NEGBIN),
        "difference": trace.final_score(other) - trace.final_score(reference),
        "reference": reference,
        "selected": select_model(trace, trace.n_steps - 1),
    }
    if args.trace:
        with open(args.trace, "w", encoding="ascii", newline="") as fh:
            fh.write(
                "step,observation,poisson_increment,negbin_increment,"
                "poisson_cumulative,negbin_cumulative\n"
            )
            p_col, nb_col = trace.column(POISSON), trace.column(NEGBIN)
            write_rows(
                fh, "%d,%d,%.12g,%.12g,%.12g,%.12g\n",
                range(1, trace.n_steps + 1), observations,
                trace.increments[:, p_col], trace.increments[:, nb_col],
                trace.cumulative[:, p_col], trace.cumulative[:, nb_col],
            )
    print(json.dumps(report, allow_nan=False))
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    rule = _build("rule", RuleParams, args.a, args.m)
    if args.freq:
        table = _read_frequency_table(args.freq)
    else:
        table = FrequencyTable.from_observations(_read_observations(args.data))
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
    prior = _build("--prior", _resolve_prior, args.prior, args.model)
    if args.freq and args.mode == "preq":
        raise CliUsageError("prequential scoring needs ordered data; use --data, not --freq")
    if args.mode == "suff":
        if args.freq:
            table = _read_frequency_table(args.freq)
            t_total, n_obs = table.t, table.n
        else:
            observations = _read_observations(args.data)
            t_total, n_obs = sum(observations), len(observations)
        if args.model == POISSON:
            total = poisson_sufficient_score(t_total, n_obs, args.k, prior, rule)
        else:
            total = negbin_sufficient_score(t_total, n_obs, args.s, prior, rule)
    else:
        observations = _read_observations(args.data)
        bank = {args.model: _model_state(args, args.model)}
        total = run_prequential(observations, bank, rule).final_score(args.model)
    print(json.dumps({"model": args.model, "mode": args.mode, "score": total}, allow_nan=False))
    return 0


# ------------------------------------------------------------------ #
# Parser assembly
# ------------------------------------------------------------------ #


def _add_rule_flags(parser: argparse.ArgumentParser, with_defaults: bool = True) -> None:
    parser.add_argument("--a", type=float, default=RuleParams.a if with_defaults else None,
                        help=f"rule exponent a (default {RuleParams.a:g})")
    parser.add_argument("--m", type=float, default=RuleParams.m if with_defaults else None,
                        help=f"rule order m, positive and != 1 (default {RuleParams.m:g})")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--prior", type=_prior_entry, default="improper",
                        help="improper, jeffreys or proper:h1,h2 (default improper)")
    parser.add_argument("--k", type=float, default=1.0,
                        help="Poisson exposure multiplier (default 1)")
    parser.add_argument("--s", type=float, default=81.0,
                        help="Negative Binomial size parameter (default 81)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="preqscore",
        description="Prequential model selection for count data via homogeneous "
                    "local scoring rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a replicated comparison experiment")
    p_sim.add_argument("--truth", choices=(POISSON, NEGBIN), help="generating distribution")
    d = ExperimentConfig()  # the defaults quoted in the help text
    p_sim.add_argument("--n", type=int, help=f"observations per sequence (default {d.n_steps})")
    p_sim.add_argument("--replicates", type=int, help=f"number of sequences (default {d.replicates})")
    p_sim.add_argument("--plot-paths", type=int, dest="plot_paths",
                       help=f"individually plotted sequences (default {d.plot_paths})")
    p_sim.add_argument("--seed", type=int, help=f"master seed (default {d.seed})")
    p_sim.add_argument("--rate", type=float,
                       help=f"Poisson generating mean (default {d.generator.rate:g})")
    p_sim.add_argument("--theta", type=float,
                       help=f"Negative Binomial generating probability (default {d.generator.theta:g})")
    p_sim.add_argument("--k", type=float, help=f"Poisson model exposure (default {d.model_k:g})")
    p_sim.add_argument("--s", type=float,
                       help=f"Negative Binomial size, generation and scoring (default {d.model_s:g})")
    p_sim.add_argument("--prior", type=_prior_entry,
                       help="prior for both models: improper, jeffreys or proper:h1,h2")
    _add_rule_flags(p_sim, with_defaults=False)
    p_sim.add_argument("--out", help="output directory for diff.csv and diff.svg")
    p_sim.add_argument("--config", help="JSON config file; flags override its values")
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="score a data file under both models prequentially")
    p_cmp.add_argument("--data", required=True, help="file with one count per line")
    p_cmp.add_argument("--reference", choices=(POISSON, NEGBIN), default=POISSON,
                       help="model subtracted in the reported difference (default poisson)")
    p_cmp.add_argument("--trace", help="optional CSV path for the per-step trace")
    _add_model_flags(p_cmp)
    _add_rule_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_fit = sub.add_parser("fit", help="minimum-score fit of a Poisson mean")
    src = p_fit.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="file with one count per line")
    src.add_argument("--freq", help="file with value,count rows")
    _add_rule_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_sc = sub.add_parser("score", help="total score of a data file under one model")
    src = p_sc.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="file with one count per line")
    src.add_argument("--freq", help="file with value,count rows (sufficient-statistic mode only)")
    p_sc.add_argument("--model", choices=(POISSON, NEGBIN), required=True)
    p_sc.add_argument("--mode", choices=("preq", "suff"), default="preq",
                      help="prequential or sufficient-statistic scoring (default preq)")
    _add_model_flags(p_sc)
    _add_rule_flags(p_sc)
    p_sc.set_defaults(func=cmd_score)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliUsageError as err:
        parser.error(str(err))  # prints usage, raises SystemExit(2)
        raise AssertionError("unreachable")
    except (CliDataError, ScoreDomainError, ValueError, OSError) as err:
        print(f"preqscore: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
