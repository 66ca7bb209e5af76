"""The README's library quick start runs as written against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (library)", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under the library quick start"
    return match.group(1)


def test_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(quick_start(), str(README), "exec"), namespace)
    assert namespace["pq"].select_model(namespace["trace"], 4) in ("poisson", "negbin", "tie")
    assert (tmp_path / "diff.csv").is_file() and (tmp_path / "diff.svg").is_file()
