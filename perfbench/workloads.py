"""The benchmark's workloads: seeded inputs, one argv per operation, output checks.

Each workload builds its input files and its references from the seed
before any timing starts.  An operation is one ``preqscore`` CLI call;
``check`` raises CheckError when its output disagrees with the reference.
Checks are memoised on the output's content, so a run verifies each
distinct output once and later identical outputs cost a hash.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import reference

REL = 1e-9  # relative tolerance against the 40-digit reference
CANCEL = 1e-12  # times the summed term magnitudes: room for float64 cancellation


class CheckError(Exception):
    """An operation's output disagrees with the reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json(stdout: str) -> dict:
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as err:
        raise CheckError(f"stdout is not JSON: {err}") from None
    _require(isinstance(doc, dict), "stdout JSON is not an object")
    return doc


class Workload:
    """One set of inputs and the operations run on it."""

    name = ""
    cycle = 1  # operations per cycle; a run holds whole cycles
    idle: frozenset = frozenset()  # trace buckets that must see no calls

    def prepare(self, seed: int, inputs: Path) -> None:
        raise NotImplementedError

    def argv(self, i: int, out: Path) -> list[str]:
        raise NotImplementedError

    def check(self, i: int, stdout: str, out: Path) -> None:
        raise NotImplementedError

    def input_bytes(self) -> int:
        """Bytes of input files the CLI reads per operation."""
        return 0

    def cli_outputs(self, out: Path) -> list[Path]:
        """Files the CLI module itself writes (besides stdout)."""
        return []


class SimulatePaper(Workload):
    """``simulate`` at the paper's default size, alternating the truth.

    The harness redraws the ``checked`` replicates through splitmix64
    substreams and exact inversion, scores them at 40 digits and compares
    the cumulative differences in diff.csv.  The mean row must equal the
    mean of the file's own replicate rows, which catches a change to any
    single value, and every op of one truth must write the same bytes.
    """

    name = "simulate-paper"
    cycle = 2
    idle = frozenset({"scoring", "objective", "estimation"})
    truths = ("poisson", "negbin")

    def __init__(self, n_steps: int = 1000, replicates: int = 100, checked=(0, 1, 50, 99)):
        self.n_steps = n_steps
        self.replicates = replicates
        self.checked = tuple(r for r in checked if r < replicates)
        self.plot_paths = min(10, replicates)

    def prepare(self, seed, inputs):
        self.master = int(np.random.default_rng([seed, 1]).integers(2**32))
        self.expected = {truth: self._reference(truth) for truth in self.truths}
        self.verified: dict[str, str] = {}

    def _reference(self, truth):
        # Paper defaults: Poisson mean 10, NegBin(81, 0.1), models k = 1 and
        # s = 81, usual improper priors, a = m = 2.
        table = reference.cdf_table(truth)
        wrong = "negbin" if truth == "poisson" else "poisson"
        expected = {}
        for r in self.checked:
            us = np.random.default_rng(reference.substream_seed(self.master, r)).random(self.n_steps)
            xs = [reference.invert(table, u) for u in us]
            cum, mag = {}, {}
            for family, size in (("poisson", 1.0), ("negbin", 81.0)):
                _, _, cum[family], steps = reference.prequential(xs, family, size, 0.0, 0.0, 2.0, 2.0)
                mag[family] = np.cumsum(steps)
            diff = cum[wrong] - cum[truth]
            expected[r] = (diff, REL * np.abs(diff) + CANCEL * (mag[wrong] + mag[truth]))
        return expected

    def truth(self, i):
        return self.truths[i % 2]

    def argv(self, i, out):
        return ["simulate", "--truth", self.truth(i), "--n", str(self.n_steps),
                "--replicates", str(self.replicates), "--seed", str(self.master),
                "--out", str(out)]

    def check(self, i, stdout, out):
        csv, svg = out / "diff.csv", out / "diff.svg"
        _require(stdout == f"wrote {csv}\nwrote {svg}\n", f"unexpected stdout {stdout!r}")
        svg_text = svg.read_text(encoding="ascii")
        _require(svg_text.count("<polyline") == self.plot_paths + 1,
                 "diff.svg does not hold plot_paths + 1 polylines")
        data = csv.read_bytes()
        digest = _digest(data)
        truth = self.truth(i)
        if truth in self.verified:
            _require(digest == self.verified[truth],
                     "diff.csv differs from an earlier op with the same seed")
            return
        self._verify_csv(data.decode("ascii"), self.expected[truth])
        self.verified[truth] = digest

    def _verify_csv(self, text, expected):
        n, reps = self.n_steps, self.replicates
        lines = text.split("\n")
        _require(lines[0] == "step,replicate,diff" and lines[-1] == "",
                 "diff.csv header or final newline wrong")
        rows = [line.split(",") for line in lines[1:-1]]
        _require(len(rows) == (reps + 1) * n, f"diff.csv holds {len(rows)} rows")
        steps = [str(i + 1) for i in range(n)]
        _require([row[0] for row in rows] == steps * (reps + 1), "diff.csv step column wrong")
        labels = [str(r) for r in range(reps) for _ in range(n)] + ["mean"] * n
        _require([row[1] for row in rows] == labels, "diff.csv replicate column wrong")
        values = np.array([float(row[2]) for row in rows]).reshape(reps + 1, n)
        for r, (diff, tol) in expected.items():
            bad = np.flatnonzero(np.abs(values[r] - diff) > tol)
            _require(bad.size == 0, f"replicate {r} differs from the reference from step "
                     f"{bad[0] + 1 if bad.size else 0}")
        mean = values[:reps].mean(axis=0)
        scale = np.abs(values[:reps]).mean(axis=0)
        bad = np.flatnonzero(np.abs(values[reps] - mean) > 1e-11 * scale)
        _require(bad.size == 0, "mean row is not the mean of the replicate rows")


class StreamLong(Workload):
    """``compare --prior jeffreys --trace`` on one long NegBin(81, 0.1) stream."""

    name = "stream-long"
    idle = frozenset({"sampling", "simulation", "export_csv", "chart",
                      "scoring", "objective", "estimation"})
    header = ("step,observation,poisson_increment,negbin_increment,"
              "poisson_cumulative,negbin_cumulative")

    def __init__(self, n: int = 100_000):
        self.n = n

    def prepare(self, seed, inputs):
        self.xs = np.random.default_rng([seed, 2]).negative_binomial(81, 0.9, self.n).tolist()
        self.data = inputs / "stream.txt"
        self.data.write_text("".join(f"{x}\n" for x in self.xs), encoding="ascii")
        # Jeffreys-type priors: Gamma(1/2, 0) with k = 1; Beta(0, 1/2) with s = 81.
        self.ref = {}
        for family, size, h1, h2 in (("poisson", 1.0, 0.5, 0.0), ("negbin", 81.0, 0.0, 0.5)):
            total, inc, cum, mag = reference.prequential(self.xs, family, size, h1, h2, 2.0, 2.0)
            self.ref[family] = {"total": total, "inc": inc, "inc_mag": mag,
                                "cum": cum, "cum_mag": np.cumsum(mag)}
        self.verified: set[str] = set()

    def argv(self, i, out):
        return ["compare", "--data", str(self.data), "--prior", "jeffreys",
                "--trace", str(out / "trace.csv")]

    def input_bytes(self):
        return self.data.stat().st_size

    def cli_outputs(self, out):
        return [out / "trace.csv"]

    def check(self, i, stdout, out):
        doc = _json(stdout)
        pois, negb = self.ref["poisson"]["total"], self.ref["negbin"]["total"]
        for key, ref in (("poisson_score", pois), ("negbin_score", negb), ("difference", negb - pois)):
            value = doc.get(key)
            _require(isinstance(value, float) and abs(value - ref) <= REL * abs(ref),
                     f"{key} {value!r} differs from the reference {float(ref)!r}")
        _require(doc.get("reference") == "poisson", "reference is not poisson")
        if abs(negb - pois) > REL * abs(pois):
            _require(doc.get("selected") == ("negbin" if negb < pois else "poisson"),
                     f"selected {doc.get('selected')!r} is not the reference's choice")
        data = (out / "trace.csv").read_bytes()
        digest = _digest(data)
        if digest not in self.verified:
            self._verify_trace(data.decode("ascii"))
            self.verified.add(digest)

    def _verify_trace(self, text):
        lines = text.split("\n")
        _require(lines[0] == self.header and lines[-1] == "", "trace header or final newline wrong")
        _require(len(lines) == self.n + 2, f"trace holds {len(lines) - 2} rows, not {self.n}")
        table = np.array([line.split(",") for line in lines[1:-1]], dtype=np.float64)
        _require(np.array_equal(table[:, 0], np.arange(1, self.n + 1)), "trace step column wrong")
        _require(np.array_equal(table[:, 1], self.xs), "trace observation column wrong")
        for column, family, kind in ((2, "poisson", "inc"), (3, "negbin", "inc"),
                                     (4, "poisson", "cum"), (5, "negbin", "cum")):
            ref = self.ref[family]
            tol = REL * np.abs(ref[kind]) + CANCEL * ref[kind + "_mag"]
            if kind == "cum":  # the last row is held to the plain relative bound
                tol[-1] = REL * abs(ref[kind][-1])
            bad = np.flatnonzero(np.abs(table[:, column] - ref[kind]) > tol)
            _require(bad.size == 0, f"trace column {column} differs from the reference "
                     f"at step {bad[0] + 1 if bad.size else 0}")


class FitWide(Workload):
    """``fit --freq`` on a wide-support table, cycling through four rules.

    The check evaluates the empirical score at the reported theta_hat at
    40 digits, and at (a, m) other than (2, 2) also on a float64 grid over
    the search interval and around theta_hat: no grid point may score
    lower than the reported minimum.  At (2, 2) theta_hat must be t / n.
    """

    name = "fit-wide"
    cycle = 4
    idle = frozenset({"sampling", "conjugate", "engine", "simulation", "export_csv", "chart"})
    rules = ((1.0, 1.5), (2.0, 3.0), (0.0, 0.5), (2.0, 2.0))

    def __init__(self, draws: int = 5000):
        self.draws = draws

    def prepare(self, seed, inputs):
        sample = np.random.default_rng([seed, 3]).negative_binomial(2, 0.01, self.draws)
        values, counts = np.unique(sample, return_counts=True)
        self.freq = dict(zip(values.tolist(), counts.tolist()))
        self.data = inputs / "freq.txt"
        self.data.write_text("".join(f"{y},{f}\n" for y, f in self.freq.items()), encoding="ascii")
        self.n = sum(self.freq.values())
        self.t = sum(y * f for y, f in self.freq.items())
        self.verified: set[tuple] = set()

    def rule(self, i):
        return self.rules[i % len(self.rules)]

    def argv(self, i, out):
        a, m = self.rule(i)
        return ["fit", "--freq", str(self.data), "--a", repr(a), "--m", repr(m)]

    def input_bytes(self):
        return self.data.stat().st_size

    def check(self, i, stdout, out):
        rule = self.rule(i)
        if (rule, stdout) in self.verified:
            return
        doc = _json(stdout)
        theta, score = doc.get("theta_hat"), doc.get("score")
        _require(isinstance(theta, float) and isinstance(score, float),
                 "theta_hat or score missing")
        if rule == (2.0, 2.0):
            _require(theta == self.t / self.n, f"theta_hat {theta!r} is not t/n")
        ref, magnitude = reference.empirical_score(self.freq, theta, *rule)
        tol = REL * float(magnitude)
        _require(abs(score - ref) <= tol,
                 f"score {score!r} differs from the reference {float(ref)!r} at theta_hat")
        if rule != (2.0, 2.0):
            upper = max(10.0 * self.t / self.n, 1.0)
            grid = np.concatenate([np.linspace(upper / 4000, upper, 4000),
                                   theta * (1.0 + np.linspace(-1e-3, 1e-3, 801))])
            scores = self._grid_scores(grid, *rule)
            k = int(np.argmin(scores))
            _require(scores[k] >= score - tol,
                     f"theta={grid[k]!r} scores {scores[k]!r}, below the reported minimum {score!r}")
        self.verified.add((rule, stdout))

    def _grid_scores(self, thetas, a, m):
        """Float64 empirical scores sum_x f_x S(x) at every theta in thetas."""
        x = np.array(list(self.freq), dtype=np.float64)
        f = np.array(list(self.freq.values()), dtype=np.float64)
        th = thetas[:, None]
        first = (x + 1.0) ** a * (th / (x + 1.0)) ** m / m
        with np.errstate(divide="ignore", invalid="ignore"):
            second = np.where(x > 0, x**a * (th / np.maximum(x, 1.0)) ** (m - 1.0) / (m - 1.0), 0.0)
        return ((first - second) * f).sum(axis=1)


WORKLOADS = {w.name: w for w in (SimulatePaper, StreamLong, FitWide)}
