"""The README's examples run against the current API."""

import json
import re
from pathlib import Path

from evidunc import parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(language: str) -> list:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.S | re.M)


def test_python_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sources = blocks("python")
    assert sources
    namespace = {}
    for source in sources:
        exec(compile(source, "README.md", "exec"), namespace)


def test_config_example_parses():
    (document,) = blocks("json")
    parse_config(json.loads(document))
