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
from .engine import ModelEvaluator, run_prequential
from .estimation import fit_minimum_score
from .scoring import FrequencyTable, RuleParams, ScoreDomainError
from .simulation import (
    NEGBIN,
    POISSON,
    ExperimentConfig,
    GeneratorSpec,
    export_csv,
    run_experiment,
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
    """(location, stripped line) for each line of a data file.

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
        yield f"{path}: line {lineno}", token


def _read_observations(path: str) -> list[int]:
    """One non-negative integer per line, LF separated."""
    values: list[int] = []
    for where, token in _data_lines(path):
        try:
            value = int(token)
        except ValueError:
            raise CliDataError(f"{where}: not an integer: {token!r}") from None
        if value < 0:
            raise CliDataError(f"{where}: negative count {value}")
        values.append(value)
    if not values:
        raise CliDataError(f"{path}: no observations")
    return values


def _read_frequency_table(path: str) -> FrequencyTable:
    """``value,count`` rows, one per line."""
    counts: dict[int, int] = {}
    for where, token in _data_lines(path):
        fields = token.split(",")
        if len(fields) != 2:
            raise CliDataError(f"{where}: expected 'value,count', got {token!r}")
        try:
            value, count = int(fields[0]), int(fields[1])
        except ValueError:
            raise CliDataError(f"{where}: expected integers, got {token!r}") from None
        if value < 0 or count < 0:
            raise CliDataError(f"{where}: negative entry in {token!r}")
        if value in counts:
            raise CliDataError(f"{where}: duplicate value {value}")
        counts[value] = count
    table = FrequencyTable(counts)
    if table.n == 0:
        raise CliDataError(f"{path}: no observations")
    return table


def _resolve_prior(spec: str, family: str) -> PriorSpec:
    """Parse ``improper``, ``jeffreys`` or ``proper:h1,h2`` for a model family."""
    if spec == "improper":
        return PriorSpec.usual_improper()
    if spec == "jeffreys":
        return PriorSpec.jeffreys_poisson() if family == POISSON else PriorSpec.jeffreys_negbin()
    if spec.startswith("proper:"):
        fields = spec[len("proper:"):].split(",")
        if len(fields) != 2:
            raise CliUsageError(f"--prior proper takes two values, e.g. proper:1,1 (got {spec!r})")
        try:
            h1, h2 = float(fields[0]), float(fields[1])
        except ValueError:
            raise CliUsageError(f"--prior proper values must be numbers (got {spec!r})") from None
        try:
            return PriorSpec.proper(h1, h2)
        except ValueError as err:
            raise CliUsageError(str(err)) from None
    raise CliUsageError(f"--prior must be improper, jeffreys or proper:h1,h2 (got {spec!r})")


def _rule_from(a: float, m: float) -> RuleParams:
    try:
        return RuleParams(a=a, m=m)
    except ValueError as err:
        raise CliUsageError(str(err)) from None


# ------------------------------------------------------------------ #
# simulate
# ------------------------------------------------------------------ #

_CONFIG_KEYS = {
    "generator", "n_steps", "replicates", "plot_paths", "seed", "rule",
    "poisson_prior", "negbin_prior", "model_k", "model_s", "output",
}
_GENERATOR_KEYS = {"kind", "rate", "s", "theta"}
_RULE_KEYS = {"a", "m"}
_PRIOR_KEYS = {"kind", "hyper1", "hyper2"}


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
    unknown = set(document) - _CONFIG_KEYS
    if unknown:
        raise CliUsageError(f"{path}: unknown config fields {sorted(unknown)}")
    for key, allowed in (("generator", _GENERATOR_KEYS), ("rule", _RULE_KEYS),
                         ("poisson_prior", _PRIOR_KEYS), ("negbin_prior", _PRIOR_KEYS)):
        sub = document.get(key)
        if sub is not None:
            if not isinstance(sub, dict):
                raise CliUsageError(f"{path}: field {key!r} must be a JSON object")
            bad = set(sub) - allowed
            if bad:
                raise CliUsageError(f"{path}: unknown fields {sorted(bad)} in {key!r}")
    return document


def _prior_from_config(entry: dict, family: str, where: str) -> PriorSpec:
    kind = entry.get("kind")
    if kind == "proper":
        if "hyper1" not in entry or "hyper2" not in entry:
            raise CliUsageError(f"{where}: a proper prior needs hyper1 and hyper2")
        try:
            return PriorSpec.proper(float(entry["hyper1"]), float(entry["hyper2"]))
        except (TypeError, ValueError) as err:
            raise CliUsageError(f"{where}: {err}") from None
    if kind in ("improper", "jeffreys"):
        return _resolve_prior(kind, family)
    raise CliUsageError(f"{where}: prior kind must be proper, improper or jeffreys, got {kind!r}")


def _pick(flag_value, config_value, default):
    if flag_value is not None:
        return flag_value
    if config_value is not None:
        return config_value
    return default


def cmd_simulate(args: argparse.Namespace) -> int:
    config_doc = _load_config_file(args.config) if args.config else {}
    gen_doc = config_doc.get("generator") or {}
    rule_doc = config_doc.get("rule") or {}

    truth = _pick(args.truth, gen_doc.get("kind"), None)
    if truth is None:
        raise CliUsageError("simulate needs --truth poisson|negbin (or a generator in --config)")
    if truth not in (POISSON, NEGBIN):
        raise CliUsageError(f"--truth must be poisson or negbin, got {truth!r}")

    out = _pick(args.out, config_doc.get("output"), None)
    if out is None:
        raise CliUsageError("simulate needs --out DIR (or output in --config)")

    size = float(_pick(args.s, config_doc.get("model_s", gen_doc.get("s")), 81.0))
    rule = _rule_from(float(_pick(args.a, rule_doc.get("a"), 2.0)),
                      float(_pick(args.m, rule_doc.get("m"), 2.0)))

    if args.prior is not None:
        poisson_prior = _resolve_prior(args.prior, POISSON)
        negbin_prior = _resolve_prior(args.prior, NEGBIN)
    else:
        entry = config_doc.get("poisson_prior")
        poisson_prior = (
            _prior_from_config(entry, POISSON, "poisson_prior") if entry
            else PriorSpec.usual_improper()
        )
        entry = config_doc.get("negbin_prior")
        negbin_prior = (
            _prior_from_config(entry, NEGBIN, "negbin_prior") if entry
            else PriorSpec.usual_improper()
        )

    try:
        generator = GeneratorSpec(
            truth,
            rate=float(_pick(args.rate, gen_doc.get("rate"), 10.0)),
            s=size,
            theta=float(_pick(args.theta, gen_doc.get("theta"), 0.1)),
        )
        config = ExperimentConfig(
            generator=generator,
            n_steps=int(_pick(args.n, config_doc.get("n_steps"), 1000)),
            replicates=int(_pick(args.replicates, config_doc.get("replicates"), 100)),
            plot_paths=int(_pick(args.plot_paths, config_doc.get("plot_paths"), 10)),
            seed=int(_pick(args.seed, config_doc.get("seed"), 1729)),
            rule=rule,
            poisson_prior=poisson_prior,
            negbin_prior=negbin_prior,
            model_k=float(_pick(args.k, config_doc.get("model_k"), 1.0)),
            model_s=size,
            output=str(out),
        )
    except (TypeError, ValueError) as err:
        raise CliUsageError(str(err)) from None

    result = run_experiment(config)
    os.makedirs(config.output, exist_ok=True)
    csv_path = os.path.join(config.output, "diff.csv")
    svg_path = os.path.join(config.output, "diff.svg")
    export_csv(result, csv_path)
    render_svg(result, svg_path)
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    return 0


# ------------------------------------------------------------------ #
# compare / fit / score
# ------------------------------------------------------------------ #


def _two_model_bank(args: argparse.Namespace, rule: RuleParams) -> list[ModelEvaluator]:
    return [
        ModelEvaluator(POISSON, PoissonGammaState(args.k, _resolve_prior(args.prior, POISSON)), rule),
        ModelEvaluator(NEGBIN, NegBinBetaState(args.s, _resolve_prior(args.prior, NEGBIN)), rule),
    ]


def cmd_compare(args: argparse.Namespace) -> int:
    rule = _rule_from(args.a, args.m)
    observations = _read_observations(args.data)
    trace = run_prequential(observations, _two_model_bank(args, rule))
    reference = args.reference
    other = NEGBIN if reference == POISSON else POISSON
    report = {
        "poisson_score": trace.final_score(POISSON),
        "negbin_score": trace.final_score(NEGBIN),
        "difference": trace.final_score(other) - trace.final_score(reference),
        "reference": reference,
        "selected": trace.selected[-1],
    }
    if args.trace:
        with open(args.trace, "w", encoding="ascii", newline="") as fh:
            fh.write(
                "step,observation,poisson_increment,negbin_increment,"
                "poisson_cumulative,negbin_cumulative\n"
            )
            p_col, nb_col = trace.column(POISSON), trace.column(NEGBIN)
            for i, x in enumerate(observations):
                fh.write(
                    f"{i + 1},{x},{trace.increments[i, p_col]:.12g},"
                    f"{trace.increments[i, nb_col]:.12g},"
                    f"{trace.cumulative[i, p_col]:.12g},"
                    f"{trace.cumulative[i, nb_col]:.12g}\n"
                )
    print(json.dumps(report))
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    rule = _rule_from(args.a, args.m)
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
    }))
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    rule = _rule_from(args.a, args.m)
    prior = _resolve_prior(args.prior, args.model)
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
        if args.model == POISSON:
            evaluator = ModelEvaluator(POISSON, PoissonGammaState(args.k, prior), rule)
        else:
            evaluator = ModelEvaluator(NEGBIN, NegBinBetaState(args.s, prior), rule)
        total = run_prequential(observations, [evaluator]).final_score(args.model)
    print(json.dumps({"model": args.model, "mode": args.mode, "score": total}))
    return 0


# ------------------------------------------------------------------ #
# Parser assembly
# ------------------------------------------------------------------ #


def _add_rule_flags(parser: argparse.ArgumentParser, with_defaults: bool = True) -> None:
    default = 2.0 if with_defaults else None
    parser.add_argument("--a", type=float, default=default, help="rule exponent a (default 2)")
    parser.add_argument("--m", type=float, default=default,
                        help="rule order m, positive and != 1 (default 2)")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--prior", default="improper",
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
    p_sim.add_argument("--n", type=int, help="observations per sequence (default 1000)")
    p_sim.add_argument("--replicates", type=int, help="number of sequences (default 100)")
    p_sim.add_argument("--plot-paths", type=int, dest="plot_paths",
                       help="individually plotted sequences (default 10)")
    p_sim.add_argument("--seed", type=int, help="master seed (default 1729)")
    p_sim.add_argument("--rate", type=float, help="Poisson generating mean (default 10)")
    p_sim.add_argument("--theta", type=float,
                       help="Negative Binomial generating probability (default 0.1)")
    p_sim.add_argument("--k", type=float, help="Poisson model exposure (default 1)")
    p_sim.add_argument("--s", type=float,
                       help="Negative Binomial size, generation and scoring (default 81)")
    p_sim.add_argument("--prior", help="prior for both models: improper, jeffreys or proper:h1,h2")
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
    except CliDataError as err:
        print(f"preqscore: error: {err}", file=sys.stderr)
        return 1
    except (ScoreDomainError, ValueError, OSError) as err:
        print(f"preqscore: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
