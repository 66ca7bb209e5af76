"""In-process tracing of ``preqscore.cli.main`` from outside the package.

Wrappers replace the module attributes through which callers look up each
layer's public functions (``preqscore.simulation.sample_poisson`` is the
name ``GeneratorSpec.draw`` resolves at call time, for example), so no
file of the package is edited.  Coarse calls record a span each: name,
start, end, parent span and operation id.  Per-step calls (draws,
prequential steps, objective evaluations, generator calls) only add to a
count and a busy time, and each span carries the counts that accrued
inside it.  Every wrapped call charges its duration to its caller's child
time, so the self times of all buckets in one operation add up exactly, in
integer nanoseconds, to the duration of its ``cli.main`` span.

Buckets are the package's modules, except that ``simulation.export_csv``
and ``estimation.poisson_empirical_score`` are kept apart from the rest of
their module so their own metrics can be read off.
"""

from __future__ import annotations

import importlib
import io
import os
import time
from contextlib import redirect_stdout

SPAN, COUNT, LEAF = "span", "count", "leaf"

# Counted buckets whose per-span totals are attached to every span.
_COUNTED = ("sampling", "conjugate", "objective", "scoring")


def _replicates(args, result):
    return result.replicates


def _model_steps(args, result):
    return result.increments.size


def _file_size(args, result):
    return os.path.getsize(args[1])


def _iterations(args, result):
    return result.iterations


def _search_steps(args, x):
    return x + 1


# (module, attribute, bucket, kind, extra): ``extra(args, result)`` is
# summed into the bucket's fourth counter.
TARGETS = (
    ("preqscore.cli", "run_experiment", "simulation", SPAN, _replicates),
    ("preqscore.cli", "run_prequential", "engine", SPAN, _model_steps),
    ("preqscore.simulation", "run_prequential", "engine", SPAN, _model_steps),
    ("preqscore.cli", "export_csv", "export_csv", SPAN, _file_size),
    ("preqscore.cli", "render_svg", "chart", SPAN, _file_size),
    ("preqscore.cli", "fit_minimum_score", "estimation", SPAN, _iterations),
    ("preqscore.simulation", "sample_poisson", "sampling", LEAF, _search_steps),
    ("preqscore.simulation", "sample_negbin", "sampling", LEAF, _search_steps),
    ("preqscore.engine", "poisson_prequential_step", "conjugate", LEAF, None),
    ("preqscore.engine", "negbin_prequential_step", "conjugate", LEAF, None),
    ("preqscore.estimation", "poisson_empirical_score", "objective", COUNT, None),
    ("preqscore.estimation", "generator_value", "scoring", LEAF, None),
    ("preqscore.estimation", "generator_deriv", "scoring", LEAF, None),
)

BUCKETS = ("cli", "simulation", "export_csv", "chart", "engine", "conjugate",
           "sampling", "estimation", "objective", "scoring")


class Tracer:
    """Installs the wrappers and runs traced operations one at a time.

    ``stats[bucket]`` holds [calls, busy_ns, self_ns, extra] for the
    current operation; ``totals`` sums them over all operations run.
    """

    def __init__(self):
        self.stats = {b: [0, 0, 0, 0] for b in BUCKETS}
        self.totals = {b: [0, 0, 0, 0] for b in BUCKETS}
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._op = -1
        self._next_span = 0
        self._saved: list[tuple] = []
        self._main = None

    def install(self) -> None:
        cli = importlib.import_module("preqscore.cli")
        for module_name, attr, bucket, kind, extra in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrap = self._leaf if kind == LEAF else self._frame
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrap(fn, bucket, f"{module_name}.{attr}", kind == SPAN, extra))
        self._main = self._frame(cli.main, "cli", "preqscore.cli.main", True, None)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def run(self, argv: list[str]) -> tuple[int, str, int]:
        """Run one CLI call; return (exit code, stdout, traced wall ns)."""
        self._op += 1
        for counters in self.stats.values():
            counters[:] = (0, 0, 0, 0)
        root = [0, None]
        self._stack[:] = [root]
        out = io.StringIO()
        code = 0
        with redirect_stdout(out):
            try:
                code = self._main(argv)
            except SystemExit as stop:
                code = stop.code if isinstance(stop.code, int) else 1
        for bucket, counters in self.stats.items():
            total = self.totals[bucket]
            for k in range(4):
                total[k] += counters[k]
        return code, out.getvalue(), root[0]

    def self_ns_sum(self) -> int:
        """Sum of the current operation's self times over all buckets."""
        return sum(counters[2] for counters in self.stats.values())

    def _leaf(self, fn, bucket, name, is_span, extra):
        ns = time.perf_counter_ns
        stack = self._stack
        counters = self.stats[bucket]

        def wrapper(*args, **kwargs):
            t0 = ns()
            result = fn(*args, **kwargs)
            d = ns() - t0
            stack[-1][0] += d
            counters[0] += 1
            counters[1] += d
            counters[2] += d
            if extra is not None:
                counters[3] += extra(args, result)
            return result

        return wrapper

    def _frame(self, fn, bucket, name, is_span, extra):
        ns = time.perf_counter_ns
        stack = self._stack
        counters = self.stats[bucket]
        stats = self.stats

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0, parent[1]]
            if is_span:
                frame[1] = span_id = self._next_span
                self._next_span += 1
                before = {b: (stats[b][0], stats[b][1]) for b in _COUNTED}
            stack.append(frame)
            t0 = ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = ns()
                stack.pop()
                d = t1 - t0
                parent[0] += d
                counters[0] += 1
                counters[1] += d
                counters[2] += d - frame[0]
            if extra is not None:
                counters[3] += extra(args, result)
            if is_span:
                inside = {}
                for b, (calls, busy) in before.items():
                    if stats[b][0] != calls:
                        inside[b] = {"calls": stats[b][0] - calls, "busy_ns": stats[b][1] - busy}
                self.spans.append({"op": self._op, "id": span_id, "parent": parent[1],
                                   "name": name, "start_ns": t0, "end_ns": t1,
                                   "counted": inside})
            return result

        return wrapper


def layer_metrics(totals: dict, ops: int) -> dict:
    """Per-layer metrics, as {name: (value, unit)}, per traced operation.

    Times and counts are means over the ``ops`` traced operations; rates
    divide the run's totals.  A rate over zero calls reads 0.
    """
    def per_op(value):
        return value / ops

    def ratio(num, den):
        return num / den if den else 0.0

    s = 1e-9
    sam, con, eng = totals["sampling"], totals["conjugate"], totals["engine"]
    sim, csv, svg = totals["simulation"], totals["export_csv"], totals["chart"]
    sco, fit, obj, cli = totals["scoring"], totals["estimation"], totals["objective"], totals["cli"]
    return {
        "sampling.draws": (per_op(sam[0]), "count"),
        "sampling.busy_s": (per_op(sam[1]) * s, "s"),
        "sampling.ns_per_draw": (ratio(sam[1], sam[0]), "ns"),
        "sampling.search_steps_per_draw": (ratio(sam[3], sam[0]), "count"),
        "conjugate.increments": (per_op(con[0]), "count"),
        "conjugate.busy_s": (per_op(con[1]) * s, "s"),
        "conjugate.ns_per_increment": (ratio(con[1], con[0]), "ns"),
        "engine.model_steps": (per_op(eng[3]), "count"),
        "engine.self_s": (per_op(eng[2]) * s, "s"),
        "engine.ns_per_model_step": (ratio(eng[1], eng[3]), "ns"),
        "simulation.replicates": (per_op(sim[3]), "count"),
        "simulation.self_s": (per_op(sim[2]) * s, "s"),
        "simulation.export_csv_s": (per_op(csv[1]) * s, "s"),
        "simulation.csv_bytes": (per_op(csv[3]), "B"),
        "simulation.csv_mb_per_s": (ratio(csv[3] / 1e6, csv[1] * s), "MB/s"),
        "chart.render_svg_s": (per_op(svg[1]) * s, "s"),
        "chart.svg_bytes": (per_op(svg[3]), "B"),
        "scoring.generator_calls": (per_op(sco[0]), "count"),
        "scoring.busy_s": (per_op(sco[1]) * s, "s"),
        "scoring.ns_per_call": (ratio(sco[1], sco[0]), "ns"),
        "estimation.fits": (per_op(fit[0]), "count"),
        "estimation.objective_evals": (per_op(obj[0]), "count"),
        "estimation.evals_per_fit": (ratio(fit[3], fit[0]), "count"),
        "estimation.self_s": (per_op(fit[2] + obj[2]) * s, "s"),
        "cli.self_s": (per_op(cli[2]) * s, "s"),
    }
