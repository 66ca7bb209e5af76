"""Benchmark of the preqscore command line, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory of a source checkout; the package is taken from
the checkout's ``src`` directory.  One client runs a closed loop: an
operation is one subprocess running ``preqscore`` as ``python -m`` does,
timed from spawn to exit, and the next starts only after the previous one
has finished and its output has been checked against the workload's
reference.  Inputs and
references are built from the seed before timing starts; operations run
in whole cycles until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
each subprocess operation with the same call made in-process through
``preqscore.cli.main`` under the tracer, and prints the per-layer metrics.
The last line of stdout is the result JSON; the line before it records
the environment.  Scratch files live under ``.perfbench-work/`` in the
checkout; a traced run leaves its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy

from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, CheckError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_SPAWNS = 9  # fresh interpreters importing preqscore; the median is setup_s
OP_TIMEOUT_S = 60.0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# Runs ``python -m preqscore ARGS`` and at exit writes the process's peak
# RSS in KiB to the file named by its first argument.  VmHWM is read because
# ru_maxrss of a spawned child starts from the spawning process's peak, so
# it would report the benchmark's memory rather than the program's.
_LAUNCH = """\
import atexit, runpy, sys
path = sys.argv.pop(1)
def peak():
    with open("/proc/self/status") as status, open(path, "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")).split()[1])
atexit.register(peak)
runpy.run_module("preqscore", run_name="__main__", alter_sys=True)
"""


def spawn(cmd: list[str], stdout: Path, stderr: Path, timeout: float = OP_TIMEOUT_S):
    """Run cmd to completion: (wall s, cpu s, exit code, timed out)."""
    killed = []

    def kill():
        killed.append(True)
        proc.kill()

    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, proc.returncode, bool(killed)


class Bench:
    """Runs one workload's operations, checks them and keeps the records."""

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.rss: list[float] = []
        self.traced_walls: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.cli_bytes = [0, 0]  # input, output, over traced operations

    def _fresh_dir(self) -> Path:
        out = self.work / f"op{self.attempted}"
        out.mkdir()
        self.attempted += 1
        return out

    def _judge(self, i: int, stdout: str, out: Path) -> str | None:
        try:
            self.workload.check(i, stdout, out)
        except CheckError as err:
            return str(err)
        except Exception as err:  # malformed output must fail the op, not the run
            traceback.print_exc()
            return f"unreadable output: {err!r}"
        return None

    def _finish(self, i: int, out: Path, reason: str | None) -> None:
        if reason is not None:
            self.failures.append(f"op {i} ({' '.join(self.workload.argv(i, out))}): {reason}")
            print(f"FAILED {self.failures[-1]}", file=sys.stderr)
        shutil.rmtree(out)

    def run_child(self, i: int, tamper=None) -> None:
        """One subprocess operation; ``tamper(stdout, out)`` lets a self-test corrupt output."""
        out = self._fresh_dir()
        stdout_path, stderr_path, peak_path = out / "stdout.log", out / "stderr.log", out / "peak.kib"
        cmd = [sys.executable, "-c", _LAUNCH, str(peak_path), *self.workload.argv(i, out)]
        wall, cpu, code, timed_out = spawn(cmd, stdout_path, stderr_path)
        self.walls.append(wall)
        self.cpus.append(cpu)
        if peak_path.exists():
            self.rss.append(int(peak_path.read_text()) / 1024)
        stdout = stdout_path.read_text(encoding="utf-8", errors="replace")
        if tamper is not None:
            stdout = tamper(stdout, out)
        if timed_out:
            reason = f"timed out after {OP_TIMEOUT_S} s"
        elif code != 0:
            tail = stderr_path.read_text(encoding="utf-8", errors="replace")[-300:]
            reason = f"exit code {code}: {tail.strip()}"
        else:
            reason = self._judge(i, stdout, out)
        self._finish(i, out, reason)

    def run_traced(self, i: int, tracer) -> None:
        """The same operation in-process, under the tracer."""
        out = self._fresh_dir()
        code, stdout, wall_ns = tracer.run(self.workload.argv(i, out))
        self.traced_walls.append(wall_ns * 1e-9)
        self.cli_bytes[0] += self.workload.input_bytes()
        self.cli_bytes[1] += len(stdout.encode()) + sum(
            p.stat().st_size for p in self.workload.cli_outputs(out) if p.exists())
        if code != 0:
            reason = f"exit code {code}"
        elif tracer.self_ns_sum() != wall_ns:
            reason = f"layer self times sum to {tracer.self_ns_sum()} ns, not {wall_ns} ns"
        else:
            reason = self._judge(i, stdout, out)
        self._finish(i, out, reason)


def measure_setup(work: Path) -> float:
    """Median wall time of a fresh interpreter running ``import preqscore``.

    One unmeasured spawn first writes the bytecode caches, which users pay
    once, not on every call.
    """
    times = []
    for k in range(SETUP_SPAWNS + 1):
        wall, _, code, _ = spawn([sys.executable, "-c", "import preqscore"],
                                 work / "setup.out", work / "setup.err")
        if code != 0:
            raise RuntimeError((work / "setup.err").read_text(errors="replace"))
        if k:
            times.append(wall)
    return statistics.median(times)


def run_cycles(bench: Bench, seconds: float, step) -> None:
    """Call step(i) over whole cycles of the workload until seconds have passed."""
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        for _ in range(bench.workload.cycle):
            step(i)
            i += 1


def end_to_end(bench: Bench, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (statistics.median(bench.walls), "s"),
        "op_cpu_s.p50": (statistics.median(bench.cpus), "s"),
        "peak_rss_mb": (max(bench.rss, default=0.0), "MiB"),
    }


def per_layer(bench: Bench, tracer: Tracer, setup_s: float) -> tuple[dict, list[str]]:
    ops = len(bench.traced_walls)
    metrics = layer_metrics(tracer.totals, ops)
    metrics["cli.input_bytes"] = (bench.cli_bytes[0] / ops, "B")
    metrics["cli.output_bytes"] = (bench.cli_bytes[1] / ops, "B")
    traced = statistics.median(bench.traced_walls) + setup_s
    metrics["trace.overhead_frac"] = (traced / statistics.median(bench.walls) - 1.0, "ratio")
    busy = [b for b in sorted(bench.workload.idle) if tracer.totals[b][0]]
    problems = [f"layer {b} made {tracer.totals[b][0]} calls on {bench.workload.name}"
                for b in busy]
    problems += [f"tracer found no {name}" for name in tracer.missing]
    return metrics, problems


def environment(args, bench: Bench) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": {args.workload: bench.attempted},
        "failed_ops_frac": len(bench.failures) / max(bench.attempted, 1),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "preqscore" / "__init__.py").is_file():
        print(f"perfbench: no preqscore package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inputs = work / "inputs"
        inputs.mkdir()
        started = time.perf_counter()
        workload.prepare(args.seed, inputs)
        prepared = time.perf_counter()
        setup_s = measure_setup(work)
        print(f"perfbench: inputs and references {prepared - started:.1f} s, "
              f"setup spawns {time.perf_counter() - prepared:.1f} s", file=sys.stderr)
        bench = Bench(workload, work)
        problems: list[str] = []
        if args.trace:
            sys.path.insert(0, str(SRC))
            tracer = Tracer()
            tracer.install()

            def both(i):
                bench.run_traced(i, tracer)
                bench.run_child(i)

            try:
                run_cycles(bench, args.seconds, both)
            finally:
                tracer.uninstall()
            metrics, problems = per_layer(bench, tracer, setup_s)
            with open(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
                fh.writelines(json.dumps(span) + "\n" for span in tracer.spans)
        else:
            run_cycles(bench, args.seconds, bench.run_child)
            metrics = end_to_end(bench, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"TRACE CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"environment": environment(args, bench)}))
    print(json.dumps({
        "correct": not bench.failures and not problems,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
