"""Self-test of the benchmark's own gates.

    python3 perfbench/selftest.py

Shows that the output checks count a corrupted output and a failing child
as failed operations, that an unchanged run passes, that the printed
metric names are exactly those of BENCHMARK.json, that the traced counts
obey estimation.objective_evals = sum of FitResult.iterations + fits, and
that the command refuses to run in a directory holding only the
benchmark.  Uses small variants of the workloads; takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORK, Bench
from workloads import FitWide, SimulatePaper, StreamLong

HERE = Path(__file__).resolve().parent


def _rewrite_diff(replicate: int, step: int, factor: float):
    """A tamper hook that scales one diff.csv value by factor."""
    def tamper(stdout, out):
        path = out / "diff.csv"
        lines = path.read_text(encoding="ascii").split("\n")
        for k, line in enumerate(lines):
            s, r, value = line.split(",") if line.count(",") == 2 else ("", "", "")
            if s == str(step) and r == str(replicate):
                lines[k] = f"{s},{r},{float(value) * factor:.12g}"
        path.write_text("\n".join(lines), encoding="ascii")
        return stdout
    return tamper


def _reformat_first_value(stdout, out):
    """Same values, different bytes: '1,0,x' rewritten with a trailing zero."""
    path = out / "diff.csv"
    text = path.read_text(encoding="ascii")
    head, row, rest = text.split("\n", 2)
    s, r, value = row.split(",")
    path.write_text(f"{head}\n{s},{r},{float(value)!r}0\n{rest}", encoding="ascii")
    return stdout


def _scale_json(key: str, factor: float):
    def tamper(stdout, out):
        doc = json.loads(stdout)
        doc[key] *= factor
        return json.dumps(doc) + "\n"
    return tamper


def _outcomes(workload, steps) -> list[str | None]:
    """Run (op index, tamper) pairs in one Bench; return each op's failure reason or None."""
    work = WORK / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        (work / "inputs").mkdir()
        workload.prepare(7, work / "inputs")
        bench = Bench(workload, work)
        outcomes = []
        for i, tamper in steps:
            before = len(bench.failures)
            bench.run_child(i, tamper)
            outcomes.append(bench.failures[-1] if len(bench.failures) > before else None)
        return outcomes
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _matches(outcomes, wants) -> bool:
    """Each outcome is None where want is None, else a reason containing want."""
    return len(outcomes) == len(wants) and all(
        (got is None) if want is None else (got is not None and want in got)
        for got, want in zip(outcomes, wants))


class _Missing(FitWide):
    """fit on a file that does not exist: the child exits with code 1."""

    def argv(self, i, out):
        return ["fit", "--freq", str(out / "missing.txt")]


def _bench_run(args, cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def main() -> int:
    small_sim = SimulatePaper(n_steps=200, replicates=10, checked=(0, 9))
    cases = [
        ("simulate: clean op passes, a 1e-6 change in a checked replicate fails",
         _outcomes(small_sim, [(1, None), (0, _rewrite_diff(0, 200, 1 + 1e-6))]),
         [None, "replicate 0 differs from the reference"]),
        ("simulate: a 1e-6 change in an unchecked replicate fails on the mean row",
         _outcomes(SimulatePaper(n_steps=200, replicates=10, checked=(0,)),
                   [(0, _rewrite_diff(5, 150, 1 + 1e-6))]),
         ["mean row"]),
        ("simulate: same-seed ops must write byte-identical diff.csv",
         _outcomes(SimulatePaper(n_steps=200, replicates=10, checked=(0,)),
                   [(0, None), (2, None), (2, _reformat_first_value)]),
         [None, None, "differs from an earlier op"]),
        ("stream: clean op passes, a 1e-6 change in the difference fails",
         _outcomes(StreamLong(n=2000), [(0, None), (1, _scale_json("difference", 1 + 1e-6))]),
         [None, "difference"]),
        ("fit: clean cycle passes, a wrong theta_hat fails (bracket search and closed form)",
         _outcomes(FitWide(draws=500), [(0, None), (1, None), (2, None), (3, None),
                                        (4, _scale_json("theta_hat", 1 + 1e-3)),
                                        (7, _scale_json("theta_hat", 1 + 1e-12))]),
         [None, None, None, None, "differs from the reference", "is not t/n"]),
        ("a child that exits nonzero is a failed op",
         _outcomes(_Missing(draws=500), [(0, None)]),
         ["exit code 1"]),
    ]
    ok = True
    for name, got, want in cases:
        passed = _matches(got, want)
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name}" + ("" if passed else f": {got}"))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = _bench_run(["--workload", "fit-wide", "--seed", "3", "--seconds", "1",
                           "--trace", str(trace)], ROOT)
        result = json.loads(done.stdout.strip().split("\n")[-1])
        want = [m["name"] for m in spec[section]]
        passed = result["correct"] and list(result["metrics"]) == want and all(
            result["metrics"][m["name"]]["unit"] == m["unit"] for m in spec[section])
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} --trace {trace} prints exactly the "
              f"{section} metrics of BENCHMARK.json, correct")
        if trace:
            values = {k: v["value"] for k, v in result["metrics"].items()}
            identity = values["estimation.objective_evals"] == (
                values["estimation.evals_per_fit"] * values["estimation.fits"]
                + values["estimation.fits"])
            ok &= identity
            print(f"{'PASS' if identity else 'FAIL'} estimation.objective_evals = "
                  f"evals_per_fit * fits + fits")

    bare = WORK / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = _bench_run(["--workload", "fit-wide", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    passed = done.returncode != 0 and not done.stdout.strip()
    ok &= passed
    print(f"{'PASS' if passed else 'FAIL'} with only the benchmark present it exits "
          f"{done.returncode} and prints no result")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
