"""The README's examples run and print what the README says they print."""

import math
import re

import pytest

from conftest import REPO_ROOT
from dimcalc.cli import main

README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    start = README.index(f"\n{title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def test_library_use_snippet_runs(monkeypatch, capsys):
    snippets = re.findall(r"```python\n(.*?)```", _section("## Library use"),
                          re.DOTALL)
    assert len(snippets) == 1
    monkeypatch.chdir(REPO_ROOT)
    exec(compile(snippets[0], "README.md", "exec"), {})
    assert math.isfinite(float(capsys.readouterr().out))


EXPLAIN = re.findall(r"^\$ dimcalc (explain .*)\n(.*)$",
                     _section("### `dimcalc explain MODEL VARIABLE`"),
                     re.MULTILINE)


def test_readme_has_two_explain_examples():
    assert len(EXPLAIN) == 2


@pytest.mark.parametrize("command,printed", EXPLAIN)
def test_explain_example_prints_what_readme_shows(monkeypatch, capsys,
                                                  command, printed):
    monkeypatch.chdir(REPO_ROOT)
    assert main(command.split()) == 0
    assert capsys.readouterr().out == printed + "\n"
