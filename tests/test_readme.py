"""README.md against the code: the gate's F table against test_oracle.ROUTES,
every command of its Command line block and of its exit-code table, the
verify groups and route methods it lists, the module constants it names,
the exports its Library section lists, and its Python example."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

import malmsten
from malmsten import cli, verify
from malmsten.verify import CheckRecord
from test_oracle import ROUTES

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(title):
    """The text of the README section `## title`, up to the next `## `."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def _fence(text, lang):
    """The first ```lang fenced block of `text`."""
    return re.search(rf"```{lang}\n(.*?)```", text, re.S).group(1)


def _table(text, header):
    """The rows of the Markdown table in `text` whose header row starts with
    `header`, as lists of stripped cells."""
    lines = text[text.index(header):].splitlines()
    rows = []
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


COMMANDS = [line for line in _fence(_section("Command line"), "sh").splitlines()
            if line.startswith("malmsten ")]


def test_the_f_table_is_the_gates():
    rows = _table(_section("The promise"), "| Route | F | applies |")
    table = {}
    for route, f, applies in rows:
        f_tol = None if applies == "everywhere" else float(applies.removeprefix("tol ≤ "))
        table[route] = (float(f), f_tol)
    assert table == {route: (r.f, r.f_tol) for route, r in ROUTES.items()}


@pytest.mark.parametrize("line", COMMANDS)
def test_every_command_line_example_exits_0(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line, comments=True)[1:]) == 0, capsys.readouterr().err


def test_every_exit_code_example_exits_with_its_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rows = _table(_section("Command line"), "| Code | Meaning | Example |")
    assert [code for code, _, _ in rows] == ["`0`", "`1`", "`2`", "`3`"]
    for code, _, example in rows:
        code = int(code.strip("`"))
        if code == 1:
            # the example fails only when a check does
            failing = [CheckRecord("x", 1.0, 0.0, 1.0, 0.0, False)]
            monkeypatch.setattr(cli, "run_checks", lambda only=None: failing)
        argv = shlex.split(re.search(r"`malmsten ([^`]*)`", example).group(1))
        assert cli.main(argv) == code, example


def test_the_listed_groups_and_methods_are_the_codes():
    text = _section("Command line")
    listed = text[text.index("list of groups:"):text.index("The module docstring")]
    assert re.findall(r"`(\w+)`", listed) == list(verify.GROUPS)
    methods = [row[0].strip("`") for row in _table(text, "| Method | Route |")]
    assert sorted(methods) == sorted(cli.METHODS)


def test_every_named_module_constant_exists():
    named = set(re.findall(r"`(\w+)\.([A-Z][A-Z_]+)`", README))
    assert named
    for module, name in named:
        assert hasattr(importlib.import_module(f"malmsten.{module}"), name), (module, name)


def test_every_listed_export_exists():
    text = _section("Library")
    listed = text[text.index("The route functions behind it"):text.index("are exported from")]
    names = re.findall(r"`(\w+)`", listed)
    assert "series_eval" in names and "log_sine_sum" in names
    for name in names:
        assert hasattr(malmsten, name), name


def test_the_python_example_runs(capsys):
    exec(_fence(_section("Library"), "python"), {})
    assert capsys.readouterr().out
