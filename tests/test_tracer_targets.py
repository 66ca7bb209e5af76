"""The benchmark tracer finds package functions by module and attribute name;
a refactor that moves one of them breaks only a traced run, so check every
name here."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SRC = Path(__file__).resolve().parents[1] / "src"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attribute", [target[:2] for target in load_tracer().TARGETS])
def test_tracer_target_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None)), f"{module}.{attribute}"


def test_commands_call_the_wrappers_installed_before_the_first_command(tmp_path):
    """cli binds a command's library names at its first parse; names the
    tracer has bound there already must stay the tracer's wrappers."""
    freq = tmp_path / "freq.csv"
    freq.write_text("0,3\n1,2\n5,1\n")
    simulate = ["simulate", "--truth", "poisson", "--n", "5", "--replicates", "2", "--out", str(tmp_path / "out")]
    code = (f"import sys; sys.path.insert(0, {str(TRACER.parent)!r}); from tracer import Tracer; "
            f"tracer = Tracer(); tracer.install(); tracer.run({simulate!r}); "
            f"tracer.run(['fit', '--freq', {str(freq)!r}]); "
            "print({bucket: tracer.totals[bucket][0] for bucket in ('simulation', 'export_csv', 'chart', 'estimation')})")
    done = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": str(SRC), "PATH": ""},
                          capture_output=True, text=True, timeout=60, check=True)
    assert ast.literal_eval(done.stdout) == {"simulation": 1, "export_csv": 1, "chart": 1, "estimation": 1}
