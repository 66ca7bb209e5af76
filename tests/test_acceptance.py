"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats
from test_oracle import integral_ratio

import preqscore as pq
from preqscore import (
    ExperimentConfig,
    FrequencyTable,
    GeneratorSpec,
    NegBinBetaState,
    PoissonGammaState,
    PriorSpec,
    RuleParams,
    predictive_ratio,
    prequential_step,
    ratio_from_weights,
    run_experiment,
    score_point,
    substream_seed,
    sufficient_score,
)

QUAD = RuleParams()
IMPROPER = PriorSpec.usual_improper()
ORACLE_RULES = [RuleParams(2, 2), RuleParams(2, 1.5), RuleParams(3, 2), RuleParams(1, 0.5)]


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {number} {status}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def trend_checks(result):
    mean = result.mean_diff
    m100, m500, m1000 = mean[99], mean[499], mean[999]
    positive_fraction = float(np.mean(result.diffs[:, -1] > 0))
    ok = (m1000 > 0) and (m1000 > m500 > m100) and (positive_fraction > 0.5)
    detail = (
        f"mean@100={m100:.2f}, mean@500={m500:.2f}, mean@1000={m1000:.2f}, "
        f"positive at N=1000: {positive_fraction:.0%}"
    )
    return ok, detail


def test_criterion_1_trend_poisson_truth():
    result = run_experiment(ExperimentConfig(generator=GeneratorSpec.poisson()))
    ok, detail = trend_checks(result)
    report(1, "upward trend of (negbin - poisson) under Poisson truth", ok, detail)


def test_criterion_2_trend_negbin_truth():
    result = run_experiment(ExperimentConfig(generator=GeneratorSpec.negbin()))
    ok, detail = trend_checks(result)
    report(2, "upward trend of (poisson - negbin) under Negative Binomial truth", ok, detail)


def test_criterion_3_closed_forms_match_general_rule():
    """The package's increments against the general rule on the ratios of the
    predictives' conjugate integrals (test_oracle.integral_ratio)."""
    rng = np.random.default_rng(1031)
    start = time.perf_counter()
    cases = 0
    worst = 0.0
    while cases < 1000:
        rule = ORACLE_RULES[rng.integers(len(ORACLE_RULES))]
        prior = PriorSpec.proper(
            float(np.exp(rng.uniform(np.log(0.1), np.log(10)))),
            float(np.exp(rng.uniform(np.log(0.1), np.log(10)))),
        )
        k = float(np.exp(rng.uniform(np.log(0.2), np.log(5))))
        s = float(np.exp(rng.uniform(np.log(0.5), np.log(100))))
        t, n = int(rng.integers(0, 200)), int(rng.integers(0, 50))
        x = int(rng.integers(0, 31))
        n_obs = int(rng.integers(1, 30))
        t_total = int(rng.integers(0, 300))

        pairs = [
            (prequential_step(PoissonGammaState(k, prior, t=t, n=n), x, rule)[0],
             score_point(x, integral_ratio("poisson", k, prior, t, n), rule)),
            (prequential_step(NegBinBetaState(s, prior, t=t, n=n), x, rule)[0],
             score_point(x, integral_ratio("negbin", s, prior, t, n), rule)),
            (sufficient_score(PoissonGammaState(k, prior), t_total, n_obs, rule),
             score_point(t_total, integral_ratio("poisson", n_obs * k, prior), rule)),
            (sufficient_score(NegBinBetaState(s, prior), t_total, n_obs, rule),
             score_point(t_total, integral_ratio("negbin", n_obs * s, prior), rule)),
        ]
        for got, oracle in pairs:
            worst = max(worst, abs(got - oracle) / max(abs(oracle), 1e-300))
            cases += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    report(3, "closed-form scores equal the general rule on the conjugate integrals' ratios",
           ok, f"{cases} cases, worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_4_telescoping_identity():
    rng = np.random.default_rng(1033)
    worst = 0.0
    for _ in range(200):
        rule = ORACLE_RULES[rng.integers(len(ORACLE_RULES))]
        xs = rng.integers(0, 15, size=rng.integers(1, 40)).tolist()
        weights = rng.uniform(0.05, 3.0, size=max(xs) + 2).tolist()
        ratio = ratio_from_weights(weights)
        total = pq.empirical_total_score(FrequencyTable.from_observations(xs), ratio, rule)
        per_point = sum(score_point(x, ratio, rule) for x in xs)
        worst = max(worst, abs(total - per_point) / max(abs(per_point), 1e-12))
    ok = worst < 1e-12
    report(4, "frequency-table total equals per-observation sum", ok,
           f"worst rel err {worst:.2e}")


def test_criterion_5_homogeneity():
    def truncated_poisson_weights(lam, hi=40):
        w = [1.0]
        for x in range(hi):
            w.append(w[-1] * lam / (x + 1))
        return w

    data = [2, 3, 1, 0, 4, 2, 2, 1, 5, 3, 0, 2]
    models = {"lowrate": truncated_poisson_weights(2.0), "highrate": truncated_poisson_weights(3.5)}
    baseline_scores = {
        name: [score_point(x, ratio_from_weights(weights), QUAD) for x in data]
        for name, weights in models.items()
    }
    baseline_pick = min(models, key=lambda name: sum(baseline_scores[name]))
    ok = True
    worst = 0.0
    for c in (1e-6, 1.0, 1e6):
        totals = {}
        for name, weights in models.items():
            ratio = ratio_from_weights([c * w for w in weights])
            scores = [score_point(x, ratio, QUAD) for x in data]
            totals[name] = sum(scores)
            for got, ref in zip(scores, baseline_scores[name]):
                worst = max(worst, abs(got - ref))
                if not math.isclose(got, ref, rel_tol=1e-12, abs_tol=1e-12):
                    ok = False
        if min(totals, key=totals.get) != baseline_pick:
            ok = False
    report(5, "scores and selections invariant to rescaling unnormalised weights",
           ok, f"largest score change {worst:.2e}, selection {baseline_pick!r} throughout")


def test_criterion_6_propriety_grid():
    def truncated_poisson_weights(lam, hi=40):
        w = [1.0]
        for x in range(hi):
            w.append(w[-1] * lam / (x + 1))
        return w

    truth = truncated_poisson_weights(2.0)
    z = sum(truth)
    p = [w / z for w in truth]
    expected = {}
    for i in range(46):
        lam = round(0.5 + 0.1 * i, 1)
        candidate = ratio_from_weights(truncated_poisson_weights(lam))
        expected[lam] = sum(p[x] * score_point(x, candidate, QUAD) for x in range(41))
    best = min(expected, key=expected.get)
    report(6, "expected score minimised at the generating rate", best == 2.0,
           f"argmin {best} over the 0.1-step grid")


def test_criterion_7_estimation():
    rng_tables = np.random.default_rng(1037)
    closed_ok = True
    for _ in range(50):
        xs = rng_tables.integers(0, 30, size=rng_tables.integers(1, 60)).tolist()
        table = FrequencyTable.from_observations(xs)
        fitted = pq.fit_minimum_score(table, QUAD).theta_hat
        if not math.isclose(fitted, table.t / table.n, rel_tol=1e-12, abs_tol=1e-12):
            closed_ok = False

    hits = 0
    cdf = GeneratorSpec.poisson(10.0).cdf_table()
    for r in range(100):
        rng = np.random.default_rng(substream_seed(771177, r))
        draws = np.searchsorted(cdf, rng.random(10000), side="left")
        theta = pq.fit_minimum_score(FrequencyTable.from_observations(draws), QUAD).theta_hat
        if 9.5 <= theta <= 10.5:
            hits += 1
    ok = closed_ok and hits >= 95
    report(7, "fit equals the sample mean and recovers the generating rate",
           ok, f"closed form exact: {closed_ok}, {hits}/100 replicates within [9.5, 10.5]")


def test_criterion_8_sufficient_statistic_degeneracy():
    worst = 0.0
    zero_ok = (
        sufficient_score(PoissonGammaState(1.3, IMPROPER), 0, 7, QUAD) == 0.0
        and sufficient_score(NegBinBetaState(81.0, IMPROPER), 0, 7, QUAD) == 0.0
    )
    ok = zero_ok
    for t_total in range(0, 10001):
        a = sufficient_score(PoissonGammaState(1.3, IMPROPER), t_total, 7, QUAD)
        b = sufficient_score(NegBinBetaState(81.0, IMPROPER), t_total, 7, QUAD)
        err = abs(a - b) / max(abs(a), 1e-12)
        worst = max(worst, err)
        if err > 1e-12:
            ok = False
    report(8, "sufficient-statistic scores coincide across models under improper priors",
           ok, f"t up to 10^4, worst rel err {worst:.2e}, zero at t=0: {zero_ok}")


def _poisson_pmf(lam, hi):
    p = [math.exp(-lam)]
    for x in range(hi):
        p.append(p[-1] * lam / (x + 1))
    return p


def _negbin_pmf(s, theta, hi):
    p = [(1.0 - theta) ** s]
    for x in range(hi):
        p.append(p[-1] * theta * (s + x) / (x + 1))
    return p


def _chi_square_gof(draws, pmf, n):
    """Chi-square statistic with cells pooled to expected count >= 5."""
    observed = {}
    for v in draws:
        observed[v] = observed.get(v, 0) + 1
    cells = []
    cur_e, cur_o = 0.0, 0
    for x in range(len(pmf)):
        cur_e += n * pmf[x]
        cur_o += observed.get(x, 0)
        if cur_e >= 5.0:
            cells.append((cur_o, cur_e))
            cur_e, cur_o = 0.0, 0
    tail_e = n * (1.0 - sum(pmf)) + cur_e
    tail_o = cur_o + sum(c for v, c in observed.items() if v >= len(pmf))
    last_o, last_e = cells[-1]
    cells[-1] = (last_o + tail_o, last_e + tail_e)
    statistic = sum((o - e) ** 2 / e for o, e in cells)
    return statistic, len(cells) - 1


def test_criterion_9_sampler_fidelity():
    n = 100_000
    rng = np.random.default_rng(substream_seed(424242, 0))
    pois = np.searchsorted(GeneratorSpec.poisson(10.0).cdf_table(), rng.random(n), side="left")
    rng = np.random.default_rng(substream_seed(424242, 1))
    negb = np.searchsorted(GeneratorSpec.negbin(81.0, 0.1).cdf_table(), rng.random(n), side="left")

    moment_ok = (
        abs(pois.mean() - 10.0) < 0.05
        and abs(pois.var(ddof=1) - 10.0) < 0.15
        and abs(negb.mean() - 9.0) < 0.05
        and abs(negb.var(ddof=1) - 10.0) < 0.15
    )
    stat_p, df_p = _chi_square_gof(pois.tolist(), _poisson_pmf(10.0, 60), n)
    stat_n, df_n = _chi_square_gof(negb.tolist(), _negbin_pmf(81.0, 0.1, 60), n)
    crit_p = stats.chi2.ppf(1 - 1e-3, df_p)
    crit_n = stats.chi2.ppf(1 - 1e-3, df_n)
    gof_ok = stat_p < crit_p and stat_n < crit_n
    ok = moment_ok and gof_ok
    report(9, "sampler moments and chi-square goodness of fit", ok,
           f"poisson mean {pois.mean():.3f} var {pois.var(ddof=1):.3f} "
           f"chi2 {stat_p:.1f}<{crit_p:.1f}; "
           f"negbin mean {negb.mean():.3f} var {negb.var(ddof=1):.3f} "
           f"chi2 {stat_n:.1f}<{crit_n:.1f}")
