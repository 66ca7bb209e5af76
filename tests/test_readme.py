"""The README's library quick start and simulate config run as written against the current API."""

import json
import re
from pathlib import Path

from preqscore import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def first_block(heading: str, language: str) -> str:
    """The first ``language`` code block after ``heading`` in the README."""
    section = README.read_text(encoding="utf-8").split(heading, 1)[1]
    match = re.search(rf"```{language}\n(.*?)```", section, re.DOTALL)
    assert match, f"no {language} block under {heading}"
    return match.group(1)


def test_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(first_block("## Quick start (library)", "python"), str(README), "exec"), namespace)
    assert namespace["pq"].select_model(namespace["trace"], 4) in ("poisson", "negbin", "tie")
    assert (tmp_path / "diff.csv").is_file() and (tmp_path / "diff.svg").is_file()


def test_simulate_config_runs(tmp_path):
    config = json.loads(first_block("### simulate", "json"))
    config["output"] = str(tmp_path / "results")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["simulate", "--config", str(path)]) == 0
    assert (tmp_path / "results" / "diff.csv").is_file()
    assert (tmp_path / "results" / "diff.svg").is_file()
