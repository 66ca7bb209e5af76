"""The benchmark tracer finds package functions by module and attribute name;
a refactor that moves one of them breaks only a traced run, so check every
name here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attribute", [target[:2] for target in load_tracer().TARGETS])
def test_tracer_target_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None)), f"{module}.{attribute}"
